import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

from hilb2.heights import (
    NonsplitParams,
    PointClass,
    classify,
    discriminant,
    height2_e,
    height2_st,
    height_e,
    height_st,
    le_height,
    le_height2,
    nonsplit_params,
    restrict_to_line,
)
from hilb2.hilb import HilbPoint, canonicalize, enumerate_points, eval_quadratic
from hilb2.lattice import LinearForm, kernel_basis_of
from hilb2.oracles import _squarefree_divisors
from hilb2.verify import (
    _maximal_order_norm,
    disc_nonsplit,
    disc_ratio,
    disc_split_gcd,
    ideal_norm,
    nonreduced_solution,
    split_solutions,
    squarefree_decompose,
    za_point,
)


def test_restrict_examples():
    z = canonicalize((0, 0, 1), (1, 0, 0, -2, 0, 0))
    assert restrict_to_line(z).coeffs == (1, 0, -2)
    assert discriminant(z) == 8
    z = canonicalize((0, 0, 1), (0, 1, 0, 0, 0, 0))
    assert restrict_to_line(z).coeffs == (0, 1, 0)
    assert discriminant(z) == 1
    z = canonicalize((1, 1, 1), (1, 0, 0, 0, 0, 0))
    assert restrict_to_line(z).coeffs == (1, 0, 0)
    assert discriminant(z) == 0


def test_discriminant_square_family():
    for d in (1, 2, 3, 5, 9):
        z = canonicalize((0, 0, 1), (1, 0, 0, -d, 0, 0))
        assert discriminant(z) == 4 * d
    # w-family: w1 X0 X1 - w0 X1^2 has discriminant w1^2
    for w0, w1 in ((0, 1), (1, 3), (2, 5)):
        z = canonicalize((0, 0, 1), (0, w1, 0, -w0, 0, 0))
        assert discriminant(z) == w1 * w1


def test_classify_examples():
    assert classify(canonicalize((0, 0, 1), (0, 1, 0, 0, 0, 0))) is PointClass.SPLIT
    assert classify(canonicalize((0, 0, 1), (1, 0, 0, -2, 0, 0))) is PointClass.NONSPLIT
    assert classify(canonicalize((0, 0, 1), (1, 0, 0, 0, 0, 0))) is PointClass.NONREDUCED


def test_split_solutions_examples():
    s = split_solutions(canonicalize((0, 0, 1), (0, 1, 0, 0, 0, 0)))
    assert (s.v, s.w) == ((1, 0, 0), (0, 1, 0))
    assert disc_split_gcd(s) == 1
    s = split_solutions(canonicalize((0, 0, 1), (0, 3, 0, -2, 0, 0)))
    assert (s.v, s.w) == ((1, 0, 0), (2, 3, 0))
    assert disc_split_gcd(s) == 9
    s = split_solutions(canonicalize((0, 0, 1), (1, 0, 0, -4, 0, 0)))
    assert (s.v, s.w) == ((2, 1, 0), (2, -1, 0))
    assert disc_split_gcd(s) == 16


def test_split_solutions_wrong_class():
    with pytest.raises(ValueError):
        split_solutions(canonicalize((0, 0, 1), (1, 0, 0, -2, 0, 0)))


def test_split_solutions_solve_the_system():
    for z in _points_of_class(PointClass.SPLIT, 40):
        s = split_solutions(z)
        q = z.q_lift()
        a, b, c = z.ell.triple
        for v in (s.v, s.w):
            assert a * v[0] + b * v[1] + c * v[2] == 0
            assert eval_quadratic(q, v) == 0
            assert gcd(gcd(v[0], v[1]), v[2]) == 1


def test_nonreduced_solution_za():
    z = za_point(3)
    v = nonreduced_solution(z)
    assert v == (3, 2, 1)


def test_nonsplit_params_worked_example():
    z = canonicalize((0, 0, 1), (1, 0, 0, -2, 0, 0))
    p = nonsplit_params(z)
    assert (p.g, p.alpha, p.beta, p.disc) == (2, 0, 1, 8)
    assert p.e == (0, 1, 0) and p.f == (1, 0, 0)
    assert disc_nonsplit(p) == 8
    assert ideal_norm(p) == 2


def test_disc_nonsplit_formula_arithmetic():
    # pure formula evaluation on synthetic parameters
    p = NonsplitParams(g=1, alpha=0, beta=1, disc=5, e=(1, 0, 0), f=(0, 1, 0))
    assert disc_nonsplit(p) == 20
    p = NonsplitParams(g=2, alpha=0, beta=1, disc=8, e=(1, 0, 0), f=(0, 1, 0))
    assert disc_nonsplit(p) == 8


def test_ideal_norm_examples():
    p = NonsplitParams(g=2, alpha=0, beta=1, disc=8, e=(0, 1, 0), f=(1, 0, 0))
    assert ideal_norm(p) == 2
    p = NonsplitParams(g=1, alpha=0, beta=1, disc=8, e=(0, 1, 0), f=(1, 0, 0))
    assert ideal_norm(p) == 1


def _points_of_class(cls, n, seed=31):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        t = tuple(rng.randint(-4, 4) for _ in range(3))
        if t == (0, 0, 0) or gcd(gcd(t[0], t[1]), t[2]) != 1:
            continue
        ell = LinearForm.from_raw(*t)
        x = tuple(rng.randint(-3, 3) for _ in range(3))
        if x == (0, 0, 0) or gcd(gcd(x[0], x[1]), x[2]) != 1:
            continue
        first = next(v for v in x if v)
        if first < 0:
            x = tuple(-v for v in x)
        z = HilbPoint(ell, x)
        if classify(z) is cls:
            out.append(z)
    return out


def test_disc_triple_agreement_random():
    for z in _points_of_class(PointClass.SPLIT, 60, seed=5):
        assert disc_split_gcd(split_solutions(z)) == discriminant(z)
    for z in _points_of_class(PointClass.NONSPLIT, 60, seed=6):
        p = nonsplit_params(z)
        assert disc_nonsplit(p) == discriminant(z) == p.disc
        ideal_norm(p)


def test_discriminant_invariant_under_kernel_basis_change(rng):
    # GL2(Z) change of the kernel basis leaves the restricted discriminant fixed
    for z in _points_of_class(PointClass.NONSPLIT, 10, seed=7) + _points_of_class(
        PointClass.SPLIT, 10, seed=8
    ):
        e, f = kernel_basis_of(z.ell)
        q = z.q_lift()
        d = discriminant(z)
        for _ in range(6):
            k = rng.randint(-3, 3)
            sw = rng.random() < 0.5
            e2 = tuple(x + k * y for x, y in zip(e, f))
            f2 = f
            if sw:
                e2, f2 = f2, e2
            a = eval_quadratic(q, e2)
            c = eval_quadratic(q, f2)
            b = eval_quadratic(q, tuple(x + y for x, y in zip(e2, f2))) - a - c
            assert b * b - 4 * a * c == d


def test_squarefree_decompose():
    assert squarefree_decompose(8) == (2, 2)
    assert squarefree_decompose(-4) == (-1, 2)
    assert squarefree_decompose(45) == (5, 3)
    assert squarefree_decompose(7) == (7, 1)


def test_factorizations_against_a_divisor_table():
    # divisors by their multiples, and mu from sum_{d | n} mu(d) = [n = 1]
    # alone, with no factorization
    n_max = 2000
    divisors = [[] for _ in range(n_max + 1)]
    mu = [0, 1] + [0] * (n_max - 1)
    for d in range(1, n_max + 1):
        for k in range(d, n_max + 1, d):
            divisors[k].append(d)
            if k > d:
                mu[k] -= mu[d]
    for n in range(1, n_max + 1):
        want = [(d, mu[d]) for d in divisors[n] if mu[d]]
        assert sorted(_squarefree_divisors(n)) == want, n
        m = max(k for k in range(1, isqrt(n) + 1) if n % (k * k) == 0)
        assert mu[n // (m * m)] != 0
        assert squarefree_decompose(n) == (n // (m * m), m), n
        assert squarefree_decompose(-n) == (-(n // (m * m)), m), n


def test_maximal_order_norm_invariance_under_conjugation():
    for z in _points_of_class(PointClass.NONSPLIT, 25, seed=9):
        p = nonsplit_params(z)
        r, s = p.rational_part, p.irrational_part
        ms = tuple(-x for x in s)
        assert _maximal_order_norm(p.disc, r, s) == _maximal_order_norm(p.disc, r, ms)


def test_height_e_examples():
    z = canonicalize((1, -1, -1), (0, 0, 0, 1, 0, 0))
    assert height2_e(z, 1) == 3
    assert abs(height_e(z, 1) - 3**0.5) < 1e-15
    za = za_point(1)
    assert height2_e(za, 2) == 588
    for d in (2, 3, 7):
        z = canonicalize((0, 0, 1), (1, 0, 0, -d, 0, 0))
        assert height2_e(z, 2) == d * d + 1


def test_height2_e_closed_form_equals_generic_saturation():
    from hilb2.exactlin import gram_det2
    from hilb2.oracles import oracle_ideal_basis

    def reference(z, e):
        return gram_det2(oracle_ideal_basis(z.ell.triple, z.q_lift(), e))

    pts = list(enumerate_points(2, 1, 8))
    assert len(pts) == 3001
    # the tested points include every branch of the annihilator recurrence
    assert any(z.qbar[0] == 0 != z.qbar[2] for z in pts)
    assert any(z.qbar[2] == 0 != z.qbar[0] for z in pts)
    assert any(z.qbar == (0, 1, 0) for z in pts)
    for z in pts:
        assert height2_e(z, 1) == z.covol2_I1
        assert height2_e(z, 2) == z.covol2_I2
        for e in (2, 3, 4):
            assert height2_e(z, e) == reference(z, e), (z, e)
    rng = random.Random(5)
    sample = rng.sample(pts, 40) + [
        _point_from(rng, qbar) for qbar in [(0, 1, 0), (0, 3, 7), (5, -2, 0)] * 4
    ]
    for z in sample:
        assert height2_e(z, 5) == reference(z, 5), z
    with pytest.raises(ValueError):
        height2_e(pts[0], 0)


def _point_from(rng, qbar):
    """A point with the given qbar over a seeded form with coordinates up to 40."""
    while True:
        t = tuple(rng.randint(-40, 40) for _ in range(3))
        if any(t) and gcd(gcd(t[0], t[1]), t[2]) == 1:
            ell = LinearForm.from_raw(*t)
            return HilbPoint(ell, qbar)


def test_height_st_examples():
    z = canonicalize((0, 0, 1), (1, 0, 0, -2, 0, 0))
    assert height_st(z, 1, 1) == height_e(z, 2)
    za = za_point(1)
    assert height2_st(za, 0, 3) == Fraction(588, 3) ** 3
    assert abs(height_st(za, 0, 3) - 2744.0) < 1e-9
    z = canonicalize((1, 0, 0), (0, 0, 0, 1, 0, 0))
    assert height2_st(z, 3, 1) == 1
    # negative exponents are accepted (discriminant-bound height)
    assert height2_st(z, -2, 2) == 1


def test_height2_st_needs_integer_exponents():
    z = canonicalize((1, 0, 0), (0, 0, 0, 1, 0, 0))
    with pytest.raises(ValueError):
        height2_st(z, Fraction(1, 2), 1)


def test_le_height_examples():
    for a in (1, 4, 20):
        assert le_height2(za_point(a)) == 196
        assert le_height(za_point(a)) == 14.0
    assert le_height2(canonicalize((0, 0, 1), (0, 1, 0, 0, 0, 0))) == 1
    z = canonicalize((0, 0, 1), (1, 0, 0, -2, 0, 0))
    assert le_height2(z) == 9
    assert le_height(z) == 3.0


def test_le_height_invariance_under_solution_scaling():
    # split: the height does not depend on which of the two roots is v
    for z in _points_of_class(PointClass.SPLIT, 20, seed=12):
        s = split_solutions(z)
        nv = sum(x * x for x in s.v)
        nw = sum(x * x for x in s.w)
        assert le_height2(z) == Fraction(nv * nw)


def test_disc_ratio_examples():
    assert disc_ratio(za_point(2)) == 0
    z = canonicalize((0, 0, 1), (1, 0, 0, -4, 0, 0))
    assert disc_ratio(z) == Fraction(16, 17)
    for k in (1, 2, 5):
        z = canonicalize((0, 0, 1), (1, 0, 0, -k * k, 0, 0))
        assert disc_ratio(z) == Fraction(4 * k * k, k**4 + 1)


def test_disc_congruence_mod4_sweep():
    for z in list(enumerate_points(2, 1, 5)):
        assert discriminant(z) % 4 in (0, 1)
