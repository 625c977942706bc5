import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path
from typing import Iterator, Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import seeded_forms
from hilb2 import lattice
from hilb2.exactlin import (
    complement_basis,
    det_bareiss,
    gram_det2,
    gram_matrix,
    mat_mul,
)
from hilb2.hilb import canonical_forms, enumerate_points
from hilb2.lattice import (
    LinearForm,
    Row,
    count_form_le,
    cross,
    dot,
    eval_quadratic,
    iroot,
    kernel_basis_of,
    product_basis,
    product_covol2_formula,
    quotient,
    min_form_value,
    reduce_gram,
    restriction_map,
    successive_minima,
)
from hilb2.verify import _certify_minima, _gon_main_term, _gon_sample
from hilb2 import oracles
from hilb2.lattice import count_primitive_form
from hilb2.oracles import count_primitive_gram_boxscan, count_primitive_rows, minima_boxscan


def test_linear_form_validation():
    # the checks run in this order: zero, then primitive, then sign
    with pytest.raises(ValueError, match="^zero form$"):
        LinearForm(0, 0, 0)
    with pytest.raises(ValueError, match="^form must be primitive$"):
        LinearForm(2, 4, 6)
    with pytest.raises(ValueError, match="^form must be primitive$"):
        LinearForm(-2, 4, 6)
    for bad in ((-1, 0, 0), (0, -1, 5), (0, 0, -1), (-3, 2, 0)):
        with pytest.raises(ValueError, match="^form must be sign-canonical "):
            LinearForm(*bad)
    for good in ((1, 0, 0), (0, 1, -5), (0, 0, 1), (3, -2, 0)):
        assert LinearForm(*good).triple == good
    assert LinearForm.from_raw(-2, 0, -4).triple == (1, 0, 2)
    assert LinearForm.from_raw(0, -3, 3).triple == (0, 1, -1)


def test_product_covol2_examples():
    assert product_covol2_formula(1, 2, 3) == 2130
    assert 2 * 14**3 <= 3 * 2130 and 2130 <= 14**3


def test_product_formula_equals_gram_small_exhaustive():
    for a in range(-6, 7):
        for b in range(-6, 7):
            for c in range(0, 7):
                if (a, b, c) == (0, 0, 0) or gcd(gcd(a, b), c) != 1:
                    continue
                rows = [
                    (a, b, c, 0, 0, 0),
                    (0, a, 0, b, c, 0),
                    (0, 0, a, 0, b, c),
                ]
                assert gram_det2(rows) == product_covol2_formula(a, b, c)


def test_product_formula_equals_gram_random_large():
    # the exhaustive small-coefficient check lives in the acceptance suite;
    # here: 10^4 random larger forms
    rng = random.Random(13)
    for _ in range(10_000):
        t = tuple(rng.randint(-10**6, 10**6) for _ in range(3))
        if t == (0, 0, 0) or gcd(gcd(t[0], t[1]), t[2]) != 1:
            continue
        a, b, c = t
        rows = [(a, b, c, 0, 0, 0), (0, a, 0, b, c, 0), (0, 0, a, 0, b, c)]
        cv = product_covol2_formula(a, b, c)
        assert gram_det2(rows) == cv
        r2 = a * a + b * b + c * c
        assert 2 * r2**3 <= 3 * cv <= 3 * r2**3


def test_quotient_axis_form():
    q = quotient(LinearForm(1, 0, 0))
    assert q.covol2_product == 1
    assert q.gram_int == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_quotient_reciprocal_covolume():
    # the quotient has squared covolume 1 / covol2_product = 1 / 20
    q = quotient(LinearForm(1, 1, 1))
    assert q.covol2_product == 20


def test_quotient_volume_identity_sample():
    # det(gram) * covol2(product) = 1 exactly: gram_int = covol2_product * gram,
    # so det(gram_int) = covol2_product^2
    for f in seeded_forms(3, 25, 9):
        q = quotient(f)
        assert det_bareiss(q.gram_int) == q.covol2_product**2


def test_coset_coordinates_roundtrip():
    for f in seeded_forms(4, 20, 8):
        q = quotient(f)
        for x in [(1, 0, 0), (0, 1, 0), (2, -3, 5)]:
            assert q.coset_coords(q.lift(x)) == x
        for row in product_basis(f):
            assert q.coset_coords(row) == (0, 0, 0)


def _reference_projected_gram(f, rows):
    # covol2(product) times the Gram of the projections orthogonal to the
    # product lattice, from the generic Gram matrix and its adjugate
    p = product_basis(f)
    g3 = gram_matrix(p)
    adj = oracles._adjugate3(g3)
    d = det_bareiss(g3)
    pr = [[dot(row, r) for row in p] for r in rows]
    return [
        [d * dot(r, s) - dot([dot(row, x) for row in adj], y) for s, y in zip(rows, pr)]
        for r, x in zip(rows, pr)
    ]


def _primitive(t):
    return gcd(gcd(t[0], t[1]), t[2]) == 1


_coord = st.integers(-60, 60)
# general forms, and forms with a = 0 or c = 0 (axis-parallel kernel vectors)
_form = st.one_of(
    st.tuples(_coord, _coord, _coord),
    st.tuples(st.just(0), _coord, _coord),
    st.tuples(_coord, _coord, st.just(0)),
).filter(_primitive)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_form, st.tuples(*[st.integers(-50, 50)] * 6))
@example((1, 0, 0), (0, 0, 0, 1, 0, 0))
@example((0, 1, 0), (1, 2, 3, 4, 5, 6))
@example((0, 0, 1), (-3, 0, 0, 1, 0, 0))
def test_quotient_gram_is_the_adjugate_of_the_restriction_map(raw, x):
    f = LinearForm.from_raw(*raw)
    q = quotient(f)
    rho = restriction_map(f)
    # the steps of the proof: rho sends the lift basis to the unit vectors and
    # kills the product lattice, and det(rho rho^T) is the product covolume
    assert [[dot(r, w) for w in q.lift_basis] for r in rho] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert all(dot(r, p) == 0 for r in rho for p in product_basis(f))
    assert det_bareiss(gram_matrix(rho)) == product_covol2_formula(*f.triple) == q.covol2_product
    # gram_int and the distance against the projection in Z^6
    assert [list(r) for r in q.gram_int] == _reference_projected_gram(f, q.lift_basis)
    e, g = kernel_basis_of(f)
    a, c = eval_quadratic(x, e), eval_quadratic(x, g)
    assert q.coset_coords(x) == (a, eval_quadratic(x, [s + t for s, t in zip(e, g)]) - a - c, c)
    assert q.covol2_with(q.coset_coords(x)) == _reference_projected_gram(f, [x])[0][0]


def test_quotient_rejects_a_restriction_map_off_the_product_covolume(monkeypatch):
    # the Gram reads rho rho^T from the kernel basis; on (2e, f) rho becomes
    # diag(4, 2, 1) rho, which does not map Z^6 onto Z^3, and det(rho rho^T)
    # grows by 2^6
    basis = lattice.kernel_basis_of
    monkeypatch.setattr(lattice, "kernel_basis_of", lambda f: (tuple(2 * x for x in basis(f)[0]), basis(f)[1]))
    with pytest.raises(AssertionError):
        lattice._quotient_cached.__wrapped__(LinearForm(2, 1, 0))


def test_quotient_gram_from_moments_is_the_restriction_map_adjugate():
    # gram_int is read from the moments of the kernel basis; pin it to
    # adj(rho rho^T) with rho rho^T the dot products of restriction_map's rows
    rng = random.Random(11)
    forms = [LinearForm(1, 0, 0), LinearForm(0, 1, 0), LinearForm(0, 0, 1)]
    forms += seeded_forms(23, 2000, 40)
    while len(forms) < 4003:
        t = [rng.randint(-10**6, 10**6) for _ in range(3)]
        if any(t) and gcd(gcd(t[0], t[1]), t[2]) == 1:
            forms.append(LinearForm.from_raw(*t))
    for f in forms:
        want = oracles._adjugate3(gram_matrix(restriction_map(f)))
        assert [list(r) for r in lattice._quotient_cached.__wrapped__(f).gram_int] == want, f


def test_closed_form_quotient_against_complement_basis():
    forms = [LinearForm(0, 0, 1), LinearForm(1, 0, 0), LinearForm(1, 1, 1)]
    forms += seeded_forms(17, 300, 40)
    for f in forms:
        q = quotient(f)
        e, g = kernel_basis_of(f)
        # oriented and Lagrange-reduced kernel basis
        assert cross(e, g) == f.triple
        assert 2 * abs(dot(e, g)) <= dot(g, g) <= dot(e, e)
        # [product basis; lift basis] is a basis of Z^6
        assert det_bareiss(list(product_basis(f)) + list(q.lift_basis)) in (1, -1)
        # the generic completion has unimodular coset coordinates, and its
        # projected Gram is gram_int in those coordinates
        ref = complement_basis(product_basis(f))
        m = [q.coset_coords(w) for w in ref]
        assert det_bareiss(m) in (1, -1)
        mt = [list(col) for col in zip(*m)]
        assert mat_mul(m, mat_mul(q.gram_int, mt)) == _reference_projected_gram(f, ref)


def test_qbar_is_the_restricted_form():
    pts = list(enumerate_points(2, 1, 8))
    assert len(pts) == 3001
    for z in pts:
        e, f = kernel_basis_of(z.ell)
        q = z.q_lift()
        a = eval_quadratic(q, e)
        c = eval_quadratic(q, f)
        b = eval_quadratic(q, tuple(x + y for x, y in zip(e, f))) - a - c
        assert (a, b, c) == z.qbar


def test_successive_minima_axis():
    sm = successive_minima(quotient(LinearForm(1, 0, 0)))
    assert (sm.lam1_sq, sm.lam2_sq, sm.lam3_sq) == (1, 1, 1)


def test_successive_minima_sharp_form():
    sm = successive_minima(quotient(LinearForm(2, 1, 0)))
    assert sm.lam1_sq <= Fraction(1, 4)  # witness -3 X0^2 + X1^2 at distance 1/(M^2-M)
    assert sm.lam1_sq >= Fraction(1, 784)  # 1/(49 M^4) at M = 2


def test_successive_minima_witnesses_attain():
    for f in seeded_forms(5, 20, 12):
        q = quotient(f)
        sm = successive_minima(q)
        vals = (sm.lam1_sq, sm.lam2_sq, sm.lam3_sq)
        assert vals[0] <= vals[1] <= vals[2]
        for lam, w in zip(vals, sm.witnesses):
            assert Fraction(q.covol2_with(w), q.covol2_product) == lam
        d = det3(sm.witnesses)
        assert d != 0


def det3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def test_successive_minima_against_boxscan():
    # independent oracle: box-scan all vectors up to the claimed third minimum
    for f in seeded_forms(6, 25, 7):
        q = quotient(f)
        sm = successive_minima(q)
        bound = int(sm.lam3_sq * q.covol2_product)
        pts = minima_boxscan(q, bound)
        assert pts, f
        assert Fraction(pts[0][0], q.covol2_product) == sm.lam1_sq
        # greedy independent selection over the oracle list
        vals = []
        wits = []
        for v, x in pts:
            if not wits:
                wits.append(x)
                vals.append(v)
            elif len(wits) == 1:
                cr = (
                    wits[0][1] * x[2] - wits[0][2] * x[1],
                    wits[0][2] * x[0] - wits[0][0] * x[2],
                    wits[0][0] * x[1] - wits[0][1] * x[0],
                )
                if cr != (0, 0, 0):
                    wits.append(x)
                    vals.append(v)
            elif det3((wits[0], wits[1], x)) != 0:
                wits.append(x)
                vals.append(v)
                break
        assert len(vals) == 3
        assert [Fraction(v, q.covol2_product) for v in vals] == [
            sm.lam1_sq,
            sm.lam2_sq,
            sm.lam3_sq,
        ]


def test_minima_read_off_the_reduced_gram_are_certified():
    # the Minkowski-reduced diagonal against the exact counting certificate,
    # on every form with M <= 10; the witnesses are a basis
    forms = canonical_forms(10)
    assert len(forms) == 3745
    for f in forms:
        q = quotient(f)
        sm = successive_minima(q)
        vals = [int(lam * q.covol2_product) for lam in (sm.lam1_sq, sm.lam2_sq, sm.lam3_sq)]
        assert _certify_minima(q.gram_int, vals, sm.witnesses), f
        assert abs(det3(sm.witnesses)) == 1, f
        assert min_form_value(q) == vals[0], f


def test_certify_minima_rejects_wrong_claims():
    q = quotient(LinearForm(2, 1, 0))
    sm = successive_minima(q)
    w1, w2, w3 = sm.witnesses
    vals = [int(lam * q.covol2_product) for lam in (sm.lam1_sq, sm.lam2_sq, sm.lam3_sq)]
    assert vals == [5, 21, 105]
    assert _certify_minima(q.gram_int, vals, (w1, w2, w3))
    # a value its witness does not attain; second and third swapped; a
    # non-minimal first witness; dependent witnesses
    assert not _certify_minima(q.gram_int, [5, 21, 104], (w1, w2, w3))
    assert not _certify_minima(q.gram_int, [5, 105, 21], (w1, w3, w2))
    w = tuple(x + y for x, y in zip(w1, w2))
    assert not _certify_minima(q.gram_int, [q.covol2_with(w), 21, 105], (w, w2, w3))
    w = tuple(2 * x for x in w1)
    assert not _certify_minima(q.gram_int, [5, 21, 20], (w1, w2, w))


@pytest.mark.parametrize(
    "h",
    [
        ((2, 0, 0), (0, 1, 0), (0, 0, 3)),  # diagonal not sorted
        ((2, 2, 0), (2, 5, 0), (0, 0, 6)),  # 2|h| > a
        ((2, 0, 2), (0, 5, 0), (2, 0, 6)),  # 2|k| > a
        ((2, 0, 0), (0, 5, 3), (0, 3, 6)),  # 2|m| > b
        # e1 b1 + e2 b2 + b3 shorter than b3, for (e1, e2) = (1, 1), (1, -1),
        # (-1, 1), (-1, -1)
        ((4, -2, -2), (-2, 4, -2), (-2, -2, 5)),
        ((4, 2, -2), (2, 4, 2), (-2, 2, 5)),
        ((4, 2, 2), (2, 4, -2), (2, -2, 5)),
        ((4, -2, 2), (-2, 4, 2), (2, 2, 5)),
        ((0, 0, 0), (0, 1, 0), (0, 0, 1)),  # a = 0
        ((1, 0, 0), (1, 1, 0), (0, 0, 1)),  # not symmetric
    ],
)
def test_minima_reject_a_gram_that_is_not_minkowski_reduced(monkeypatch, h):
    u = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    monkeypatch.setattr(lattice, "reduce_gram", lambda g: (h, u))
    q = quotient(LinearForm(1, 0, 0))
    with pytest.raises(AssertionError):
        successive_minima(q)
    with pytest.raises(AssertionError):
        min_form_value(q)


def _count_primitive_below(q, radius) -> int:
    """#{primitive coset vectors of norm < radius}, both signs: the quotient
    norm is x^T gram_int x / covol2_product, so with radius^2 covol2_product
    = num / den the count is that of x^T (den gram_int) x <= num - 1."""
    t = Fraction(radius) ** 2 * q.covol2_product
    scaled = [[t.denominator * x for x in row] for row in q.gram_int]
    return count_primitive_form(scaled, t.numerator - 1)


def test_count_primitive_axis_examples():
    q = quotient(LinearForm(1, 0, 0))
    assert _count_primitive_below(q, Fraction(3, 2)) == 18
    assert _count_primitive_below(q, 1) == 0  # strict inequality excludes the unit vectors
    assert _count_primitive_below(q, Fraction(101, 100)) == 6


def test_count_primitive_below_first_minimum():
    for f in seeded_forms(7, 10, 6):
        q = quotient(f)
        sm = successive_minima(q)
        r_small = Fraction(1, 2) * _sqrt_lower(sm.lam1_sq)
        assert _count_primitive_below(q, r_small) == 0


def _sqrt_lower(x: Fraction) -> Fraction:
    from math import isqrt

    # rational lower bound for sqrt(x)
    num, den = x.numerator, x.denominator
    scale = 10**8
    return Fraction(isqrt(num * scale * scale // den), scale)


def test_count_primitive_main_term_ballpark():
    q = quotient(LinearForm(1, 0, 0))
    covol = q.covol2_product**-0.5
    n = _count_primitive_below(q, 10)
    main = _gon_main_term(10.0, covol)
    assert abs(n - main) / main < 0.05
    assert abs(_gon_main_term(1.0, covol) - 3.4846854535556503) < 1e-12
    assert abs(main - 3484.6854535556503) < 1e-9


def test_count_primitive_vs_boxscan_200_instances():
    # independent naive enumerator: different traversal, gcd primitivity
    rng = random.Random(11)
    checked = 0
    while checked < 200:
        t = tuple(rng.randint(-6, 6) for _ in range(3))
        if t == (0, 0, 0) or gcd(gcd(t[0], t[1]), t[2]) != 1:
            continue
        q = quotient(LinearForm.from_raw(*t))
        r = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        tt = r * r * q.covol2_product
        scaled = [[tt.denominator * x for x in row] for row in q.gram_int]
        assert _count_primitive_below(q, r) == count_primitive_gram_boxscan(scaled, tt.numerator - 1)
        checked += 1


def test_count_primitive_form_on_a_skewed_gram():
    # the smallest diagonal entry is 100 but the first minimum is 2, so the
    # sieve must run to d = isqrt(1000 // 2) = 22
    g = [[100, 99, 0], [99, 100, 0], [0, 0, 100]]
    assert count_primitive_form(g, 1000) == 762
    assert count_primitive_gram_boxscan(g, 1000) == 762


def test_count_primitive_form_checks_its_reduction_under_python_O():
    # a reduction that is not Minkowski-reduced would make the sieve stop
    # early; the check is raised explicitly, so python -O keeps it
    script = "\n".join(
        [
            "import sys",
            "from hilb2 import lattice",
            "assert sys.flags.optimize == 0",  # fails unless -O drops bare asserts
            "print('optimize', sys.flags.optimize)",
            "eye = ((1, 0, 0), (0, 1, 0), (0, 0, 1))",
            "lattice.reduce_gram = lambda g: (((2, 0, 0), (0, 1, 0), (0, 0, 1)), eye)",
            "try:",
            "    lattice.count_primitive_form(eye, 10)",
            "except AssertionError as exc:",
            "    print('raised', exc)",
        ]
    )
    src = str(Path(lattice.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    r = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("optimize 1\nraised Gram matrix is not Minkowski-reduced"), r.stdout


def test_coprime_in_bruteforce():
    for g in (0, 1, 2, 4, 8, 9, 12, 18, 30, 36, 49, 60):
        for lo in range(-13, 14):
            for hi in range(lo - 2, 14):
                want = sum(1 for x in range(lo, hi + 1) if gcd(x, g) == 1)
                assert oracles._coprime_in(lo, hi, g) == want, (lo, hi, g)


@pytest.mark.parametrize("vectorized", [True, False])
def test_count_primitive_rows(monkeypatch, vectorized):
    if not vectorized:  # every slice takes the exact pure-Python path
        monkeypatch.setattr(oracles, "_INT64_SAFE", 0)
    # t = 0 and rows where only x1 = x2 = 0 holds a point (the +-e0 pair)
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    thin = [[1, 0, 0], [0, 100, 0], [0, 0, 100]]
    assert count_primitive_rows(eye, 0) == 0
    assert count_primitive_rows(thin, 0) == 0
    assert count_primitive_rows(thin, 1) == 2
    assert count_primitive_rows(thin, 99) == 2
    # small instances: the numpy grid path is the second reference; the
    # identity at t = 400 has rows with gcd(x1, x2) in {4, 8, 9, 12, 16, 18}
    cases = [(eye, 400), ([[2, 1, 0], [1, 3, 1], [0, 1, 5]], 300)]
    rng = random.Random(3)
    for f in seeded_forms(4, 12, 5):
        q = quotient(f)
        cases.append((q.gram_int, rng.randint(0, 60) * q.covol2_product))
    for g, t in cases:
        for bound in (t, t - 1):
            want = count_primitive_form(g, bound)
            assert count_primitive_gram_boxscan(g, bound) == want
            assert count_primitive_rows(g, bound) == want, (g, bound)
    # skewed quotient Grams (lambda1 ~ 1/M^2) at literal-style radii
    for triple, r in (((50, 49, 0), 2), ((46, -38, 29), 1), ((1, -47, -3), 2)):
        q = quotient(LinearForm(*triple))
        t = r * r * q.covol2_product
        want = count_primitive_form(q.gram_int, t - 1)
        assert count_primitive_rows(q.gram_int, t - 1) == want, triple


@pytest.mark.parametrize("error", [-3.5, 2.5])
def test_count_primitive_rows_corrects_float_estimate(monkeypatch, error):
    # the int64 form values, not the float interval estimate, decide each row
    estimate = oracles._halfwidth_estimate
    monkeypatch.setattr(oracles, "_halfwidth_estimate", lambda c, r, a: estimate(c, r, a) + error)
    for triple, t in (((1, 0, 0), 400), ((3, -2, 5), 4 * 10**5), ((46, -38, 29), 16 * 10**9)):
        g = quotient(LinearForm(*triple)).gram_int
        assert count_primitive_rows(g, t) == count_primitive_form(g, t), triple


def test_python_candidates_against_the_grid():
    # the oracles' one listing of ellipsoid points, the exact row walk,
    # against the numpy grid of the gcd box count
    cases = [([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 30), ([[2, 1, 0], [1, 3, 1], [0, 1, 5]], 40)]
    cases += [([[5, 2, -2], [2, 7, 3], [-2, 3, 9]], 0)]
    for f in seeded_forms(21, 6, 6):
        g = quotient(f).gram_int
        cases.append((g, min(g[i][i] for i in range(3)) * 7))
    for g, t in cases:
        bounds = oracles._box_bounds(g, t)
        x0, x1, x2, vals = oracles._grid_form_values(g, bounds)
        mask = vals <= t
        want = set(zip(x0[mask].tolist(), x1[mask].tolist(), x2[mask].tolist()))
        got = oracles._python_candidates(g, t)
        assert len(got) == len(set(got)) and set(got) == want, (g, t)


@pytest.mark.parametrize(
    "h, u",
    [
        (((4, 0, 0), (0, 1, 0), (0, 0, 1)), ((2, 0, 0), (0, 1, 0), (0, 0, 1))),  # det u = 2
        (((2, 0, 0), (0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 0), (0, 0, 1))),  # h != u^T g u
    ],
)
def test_count_primitive_rows_rejects_bad_reduction(monkeypatch, h, u):
    monkeypatch.setattr(oracles, "reduce_gram", lambda g: (h, u))
    with pytest.raises(AssertionError):
        count_primitive_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 10)


def _reference_reduce_gram(g):
    # the list-based loop reduce_gram replaced: same steps, same tie order
    gm = [list(row) for row in g]
    u = [[1 if i == j else 0 for j in range(3)] for i in range(3)]

    def addmul(j, i, k):
        # b_j <- b_j + k b_i
        for r in range(3):
            u[r][j] += k * u[r][i]
        for r in range(3):
            gm[r][j] += k * gm[r][i]
        for r in range(3):
            gm[j][r] += k * gm[i][r]

    def swap(i, j):
        for r in range(3):
            u[r][i], u[r][j] = u[r][j], u[r][i]
        gm[i], gm[j] = gm[j], gm[i]
        for r in range(3):
            gm[r][i], gm[r][j] = gm[r][j], gm[r][i]

    while True:
        changed = False
        for i, j in ((0, 1), (1, 2), (0, 1)):
            if gm[i][i] > gm[j][j]:
                swap(i, j)
                changed = True
        for i, j in ((0, 1), (0, 2), (1, 2)):
            k = (2 * gm[i][j] + gm[i][i]) // (2 * gm[i][i])
            if k and gm[j][j] - 2 * k * gm[i][j] + k * k * gm[i][i] < gm[j][j]:
                addmul(j, i, -k)
                changed = True
        best = None
        for e1 in (-1, 0, 1):
            for e2 in (-1, 0, 1):
                if e1 == e2 == 0:
                    continue
                val = (
                    gm[2][2]
                    + e1 * e1 * gm[0][0]
                    + e2 * e2 * gm[1][1]
                    + 2 * (e1 * gm[0][2] + e2 * gm[1][2] + e1 * e2 * gm[0][1])
                )
                if val < gm[2][2] and (best is None or val < best[0]):
                    best = (val, e1, e2)
        if best is not None:
            _, e1, e2 = best
            if e1:
                addmul(2, 0, e1)
            if e2:
                addmul(2, 1, e2)
            changed = True
        if not changed:
            return tuple(map(tuple, gm)), tuple(map(tuple, u))


def _random_pd_grams(seed, n):
    # B^T B for random nonsingular B: small entries, large entries, and
    # unimodular B = lower unitriangular with large entries (long reductions)
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        kind = len(out) % 3
        if kind == 2:
            x, y, z = (rng.randint(-1000, 1000) for _ in range(3))
            b = [[1, 0, 0], [x, 1, 0], [y, z, 1]]
        else:
            m = 9 if kind == 0 else 10**4
            b = [[rng.randint(-m, m) for _ in range(3)] for _ in range(3)]
            if det3(b) == 0:
                continue
        out.append(tuple(tuple(dot(ci, cj) for cj in zip(*b)) for ci in zip(*b)))
    return out


def test_reduce_gram_consistency():
    # bit for bit against the reference loop: the witnesses reach verify
    grams = [quotient(f).gram_int for f in canonical_forms(8)]
    assert len(grams) == 2017
    # the benchmark's distribution: coordinates up to 40
    grams += [quotient(f).gram_int for f in seeded_forms(0, 2000, 40)]
    grams += _random_pd_grams(8, 3000)
    eye = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for g in grams:
        gred, u = reduce_gram(g)
        assert (gred, u) == _reference_reduce_gram(g), g
        # a reduced Gram is a fixed point: reduce_gram stops before a pass
        assert reduce_gram(gred) == (gred, eye), g
        assert det3(u) in (1, -1)
        ut = [list(col) for col in zip(*u)]
        assert mat_mul(ut, mat_mul(g, u)) == [list(r) for r in gred]
        lattice._assert_minkowski_reduced(gred)


# The two walks count_form_le and enumerate_form_le ran before both became
# one half-space walk, kept verbatim as references: each walks every x3 slice
# and both vectors of each +-x pair.
def _reference_count_form_le(g: Sequence[Sequence[int]], t: int) -> int:
    """#{x in Z^3 : x^T g x <= t}, including x = 0, by exact interval counting."""
    if t < 0:
        return 0
    a = g[0][0]
    a2 = a * g[1][1] - g[0][1] ** 2
    b2 = a * g[1][2] - g[0][1] * g[0][2]
    c2 = a * g[2][2] - g[0][2] ** 2
    detg = lattice._det3(g)
    # x3 range: x3^2 * det(g) <= t * det(top-left 2x2 block)
    m3 = isqrt((t * a2) // detg)
    total = 0
    at = a * t
    adet = a * detg
    for x3 in range(-m3, m3 + 1):
        d2 = a2 * at - x3 * x3 * adet
        if d2 < 0:
            continue
        s2 = isqrt(d2)
        bb = b2 * x3
        lo2 = -((bb + s2) // a2)
        hi2 = (s2 - bb) // a2
        for x2 in range(lo2, hi2 + 1):
            beta = g[0][1] * x2 + g[0][2] * x3
            rest = g[1][1] * x2 * x2 + 2 * g[1][2] * x2 * x3 + g[2][2] * x3 * x3
            d1 = a * t - a * rest + beta * beta
            if d1 < 0:
                continue
            s1 = isqrt(d1)
            total += (s1 - beta) // a + ((s1 + beta) // a) + 1
    return total


def _reference_enumerate_form_le(g: Sequence[Sequence[int]], t: int) -> Iterator[Row]:
    """Yield every nonzero x in Z^3 with x^T g x <= t (both signs)."""
    if t < 0:
        return
    a = g[0][0]
    a2 = a * g[1][1] - g[0][1] ** 2
    b2 = a * g[1][2] - g[0][1] * g[0][2]
    detg = lattice._det3(g)
    m3 = isqrt((t * a2) // detg)
    at = a * t
    adet = a * detg
    for x3 in range(-m3, m3 + 1):
        d2 = a2 * at - x3 * x3 * adet
        if d2 < 0:
            continue
        s2 = isqrt(d2)
        bb = b2 * x3
        lo2 = -((bb + s2) // a2)
        hi2 = (s2 - bb) // a2
        for x2 in range(lo2, hi2 + 1):
            beta = g[0][1] * x2 + g[0][2] * x3
            rest = g[1][1] * x2 * x2 + 2 * g[1][2] * x2 * x3 + g[2][2] * x3 * x3
            d1 = a * t - a * rest + beta * beta
            if d1 < 0:
                continue
            s1 = isqrt(d1)
            lo1 = -((beta + s1) // a)
            hi1 = (s1 - beta) // a
            for x1 in range(lo1, hi1 + 1):
                if x1 or x2 or x3:
                    yield (x1, x2, x3)


def _gram_of(b):
    return tuple(tuple(dot(ci, cj) for cj in zip(*b)) for ci in zip(*b))


_small = st.integers(-5, 5)
# quotient Grams as built (unreduced) and after reduce_gram, and B^T B for
# small nonsingular B, which is often skewed enough to leave empty rows
_gram = st.one_of(
    _form.map(lambda raw: quotient(LinearForm.from_raw(*raw)).gram_int),
    _form.map(lambda raw: reduce_gram(quotient(LinearForm.from_raw(*raw)).gram_int)[0]),
    st.lists(st.lists(_small, min_size=3, max_size=3), min_size=3, max_size=3)
    .filter(lambda b: det3(b) != 0)
    .map(_gram_of),
)


def _unimodular_of(steps):
    # product of the column operations b_j <- b_j + k b_i
    u = [[int(i == j) for j in range(3)] for i in range(3)]
    for i, j, k in steps:
        for row in u:
            row[j] += k * row[i]
    return u


_unimodular = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-3, 3)).filter(lambda s: s[0] != s[1]),
    max_size=6,
).map(_unimodular_of)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_gram, _unimodular, st.integers(-1, 40))
def test_count_primitive_form_is_basis_free(g, u, k):
    # t from below 0 to 10 times the first minimum
    t = k * reduce_gram(g)[0][0][0] // 4
    h = mat_mul(list(zip(*u)), mat_mul(g, u))
    assert count_primitive_form(g, t) == count_primitive_form(h, t) == count_primitive_rows(g, t)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(_gram, st.integers(-1, 64))
@example(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 0)
@example(((100, 30, 0), (30, 10, 0), (0, 0, 1)), 24)
def test_half_space_walk_against_the_two_full_walks(g, k):
    # t runs over multiples of a quarter of the first minimum: t < 0, t = 0,
    # t below the minimum (so below g00), and up to 16 times the minimum
    t = k * reduce_gram(g)[0][0][0] // 4
    assert count_form_le(g, t) == _reference_count_form_le(g, t)
    half = list(lattice.enumerate_form_le(g, t))
    assert len(set(half)) == len(half)
    assert (0, 0, 0) not in half
    assert all(next(v for v in reversed(x) if v) > 0 for x in half)
    assert set(half) | {(-a, -b, -c) for a, b, c in half} == set(_reference_enumerate_form_le(g, t))


def _slice_rows(g, t):
    """The rows (x2, x3, lo1, hi1) of ``lattice._half_slices``, walked with
    its three difference identities and checked row by row against beta
    and d computed from scratch."""
    (a, g01, g02), (_, g11, g12), (_, _, g22) = g
    for x3, lo2, hi2, beta, d, dd in lattice._half_slices(g, t):
        for x2 in range(lo2, hi2 + 1):
            assert beta == g01 * x2 + g02 * x3
            assert d == a * t - a * (g11 * x2 * x2 + 2 * g12 * x2 * x3 + g22 * x3 * x3) + beta * beta >= 0
            s1 = isqrt(d)
            yield x2, x3, (-((beta + s1) // a) if x2 or x3 else 1), (s1 - beta) // a
            beta += g01
            d += dd
            dd -= 2 * (a * g11 - g01 * g01)


def test_half_space_walk_meets_empty_rows():
    # the second example of the half-space test has rows whose x1 interval
    # holds no integer
    rows = list(_slice_rows(((100, 30, 0), (30, 10, 0), (0, 0, 1)), 24))
    assert any(hi1 < lo1 for x2, x3, lo1, hi1 in rows if x2 or x3)


def _skewed_gram(args):
    # U^T diag(1, p, q) U: first minimum 1, so t = 10^4 gives rows of about
    # 200 vectors and, for small p, slices of up to 200 rows
    p, q, u = args
    return tuple(map(tuple, mat_mul(list(zip(*u)), mat_mul(((1, 0, 0), (0, p, 0), (0, 0, q)), u))))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    st.one_of(_gram, st.tuples(st.integers(1, 50), st.integers(1, 10**4), _unimodular).map(_skewed_gram)),
    st.integers(0, 100),
)
@example(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 100)
@example(((1, 0, 0), (0, 1, 0), (0, 0, 10**6)), 100)
def test_slice_walk_on_long_rows(g, k):
    # the differences are summed along each slice, so an error in them grows
    # with its length: t runs up to 10^4 times the first minimum, capped so
    # that the reference walks at most about 3 * 10^4 rows (pi t sqrt(g00 /
    # det g) of them); the enumeration is compared where it is small
    t = min(k * k * reduce_gram(g)[0][0][0], isqrt(10**8 * det3(g) // g[0][0]))
    n = count_form_le(g, t)
    assert n == _reference_count_form_le(g, t)
    if n <= 20_001:
        half = list(lattice.enumerate_form_le(g, t))
        assert 2 * len(half) + 1 == n
        assert set(half) | {(-a, -b, -c) for a, b, c in half} == set(_reference_enumerate_form_le(g, t))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 60), st.integers(1, 60), st.integers(1, 60), st.integers(-1, 400))
@example(1, 1, 1, 4000)
@example(2, 3, 6, 0)
@example(5, 1, 3, 3)
def test_octant_count_on_diagonal_grams(a, b, c, k):
    # t < 0, t = 0, t below min(a, b, c) and up to 100 times it, in quarters
    # of it; x1 -> x1 + x2 carries diag(a, b, c) to a Gram that is not
    # diagonal, so the slice walk counts the same ellipsoid
    t = k * min(a, b, c) // 4
    g = ((a, 0, 0), (0, b, 0), (0, 0, c))
    h = ((a, a, 0), (a, a + b, 0), (0, 0, c))
    assert count_form_le(g, t) == count_form_le(h, t) == _reference_count_form_le(g, t)
    assert count_primitive_form(g, t) == count_primitive_rows(g, t)


@pytest.mark.parametrize("ell", _gon_sample(0, 100, 50)[:6], ids=lambda ell: str(ell.triple))
def test_slice_walk_on_the_gon_sample(ell):
    # the ellipsoids criterion 05b counts: the literal radius R = 5 and the
    # volume-matched radius k = 20, on the quotient Gram and its reduction
    q = quotient(ell)
    cv2p = q.covol2_product
    for t in (25 * cv2p - 1, iroot(20**6 * cv2p * cv2p - 1, 3)):
        for g in (q.gram_int, reduce_gram(q.gram_int)[0]):
            assert count_form_le(g, t) == _reference_count_form_le(g, t), (g, t)


def test_dist_to_span_examples():
    # squared distance from x in Z^6 to the span of the product lattice:
    # covol2_with(coset_coords(x)) / covol2_product
    def dist2(x, f):
        q = quotient(f)
        return Fraction(q.covol2_with(q.coset_coords(x)), q.covol2_product)

    assert dist2((0, 0, 0, 1, 0, 0), LinearForm(1, 0, 0)) == 1
    assert dist2((-3, 0, 0, 1, 0, 0), LinearForm(2, 1, 0)) <= Fraction(1, 4)
    assert dist2((1, 0, 0, 0, 0, 0), LinearForm(1, 0, 0)) == 0
    assert dist2((2, 1, 0, 0, 0, 0), LinearForm(2, 1, 0)) == 0


def test_kernel_basis_of_cached():
    f = LinearForm(1, 1, 1)
    assert kernel_basis_of(f) == kernel_basis_of(f)


_PER_FORM_CACHES = ("_quotient_cached", "_kernel_basis_cached", "_minkowski_reduced")


def test_cache_bounds_cost_no_rebuild(monkeypatch):
    # the lattice caches keep at most 128 entries (16 for the reduction):
    # on the counting paths and a point listing read through the four
    # height functions, every miss is the first call with its key, so the
    # bound makes no run build anything twice
    from hilb2.asymptotics import count_Nst, le_count_detailed
    from hilb2.heights import classify, discriminant, height_st, le_height

    cached = {name: getattr(lattice, name) for name in _PER_FORM_CACHES}
    seen = {name: set() for name in cached}

    def recording(name):
        def call(*key):
            seen[name].add(key)
            return cached[name](*key)
        return call

    for name in cached:
        monkeypatch.setattr(lattice, name, recording(name))

    def listing():
        for z in enumerate_points(2, 1, 12):
            classify(z), discriminant(z), height_st(z, 2, 1), le_height(z)

    for run in (lambda: count_Nst(2, 1, 300), lambda: le_count_detailed(1000), listing):
        for name, fn in cached.items():
            fn.cache_clear()
            seen[name].clear()
        run()
        for name, fn in cached.items():
            assert fn.cache_info().misses == len(seen[name]), (name, fn.cache_info())
    assert cached["_quotient_cached"].cache_info().hits > 10000


def test_cache_size_stays_bounded_over_many_forms():
    forms = [LinearForm(1, b, c) for b in range(25) for c in range(40)]
    for ell in forms:
        successive_minima(quotient(ell))
    for name in _PER_FORM_CACHES:
        info = getattr(lattice, name).cache_info()
        assert info.currsize <= 128 and info.misses >= len(forms), (name, info)
