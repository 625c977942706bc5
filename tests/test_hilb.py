import dataclasses
import re
import time
from fractions import Fraction
from itertools import product
from math import gcd, isqrt

import pytest

from conftest import seeded_forms
from hilb2 import hilb
from hilb2.asymptotics import count_Nst
from hilb2.exactlin import gram_det2
from hilb2.hilb import (
    HilbPoint,
    NonPrimitiveIdealError,
    QInSpanError,
    _orbit_forms,
    _orbit_representatives,
    canonicalize,
    canonical_forms,
    enumerate_points,
    fiber_point_count,
    fiber_points,
    height_query,
    max_covol2_I2,
    monomials,
    norm_cutoff,
)
from hilb2.lattice import (
    LinearForm,
    count_primitive_form,
    dot,
    enumerate_form_le,
    kernel_basis_of,
    min_form_value,
    product_covol2_formula,
    quotient,
    sign_canonical,
)
from hilb2.oracles import (
    _distance_lemma_cutoff,
    oracle_fiber_points_monomial_box,
    oracle_ideal_basis,
    poly_mul,
    product_basis,
)


def test_monomial_order_degree2():
    assert monomials(2) == ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))


def test_poly_mul_linear_squares():
    # (X0 + X1)^2 = X0^2 + 2 X0 X1 + X1^2
    assert poly_mul((1, 1, 0), 1, (1, 1, 0), 1) == (1, 2, 0, 1, 0, 0)


def test_canonicalize_obstruction():
    with pytest.raises(NonPrimitiveIdealError, match="non-primitive"):
        canonicalize((1, 0, 0), (0, 0, 0, 2, 0, 0))


def test_canonicalize_q_in_span():
    with pytest.raises(QInSpanError, match="q in span"):
        canonicalize((1, 0, 0), (1, 1, 1, 0, 0, 0))  # X0*(X0+X1+X2)


def test_canonicalize_equivalences():
    z1 = canonicalize((1, 0, 0), (0, 0, 0, 1, 0, 0))
    z2 = canonicalize((1, 0, 0), (0, 0, 1, 1, 0, 0))  # + X0 X2
    z3 = canonicalize((2, 0, 0), (0, 0, 0, 1, 0, 0))
    assert z1 == z2 == z3


def _ideal_basis(z, e):
    return oracle_ideal_basis(z.ell.triple, z.q_lift(), e)


def test_ideal_lattice_small_degrees():
    z = canonicalize((0, 0, 1), (1, 0, 0, 0, 0, 0))
    l1 = _ideal_basis(z, 1)
    assert len(l1) == 1 and gram_det2(l1) == 1
    l2 = _ideal_basis(z, 2)
    assert len(l2) == 4 and gram_det2(l2) == z.covol2_I2
    l3 = _ideal_basis(z, 3)
    assert len(l3) == 8 and len(l3[0]) == 10


def test_ideal_lattice_rank_law_random():
    # rank dim(V_e) - 2 for e >= 2: the rank count behind heights.height2_e
    pts = _sample_points(40)
    for z in pts:
        for e in range(1, 5):
            assert len(_ideal_basis(z, e)) == (len(monomials(e)) - 2 if e > 1 else 1)
    # a couple of degree-5 spot checks
    for z in pts[:3]:
        assert len(_ideal_basis(z, 5)) == len(monomials(5)) - 2


def _sample_points(n):
    out = []
    for f in seeded_forms(21, n, 5):
        for x in [(1, 0, 0), (0, 1, 0), (1, 1, -2), (0, 2, 1)]:
            if gcd(gcd(x[0], x[1]), x[2]) != 1:
                continue
            first = next(v for v in x if v)
            if first < 0:
                continue
            out.append(HilbPoint(f, x))
            break
    return out


def test_multiplicativity_consistency():
    # covol2 of the degree-2 lattice = covol2(product) * coset norm^2, and the
    # direct 4x4 Gram determinant agrees with the quadratic-form cache
    for z in _sample_points(30):
        q = quotient(z.ell)
        direct = gram_det2(list(product_basis(z.ell)) + [z.q_lift()])
        assert direct == z.covol2_I2
        assert z.covol2_I2 == q.covol2_with(z.qbar)


def test_point_is_its_form_and_restricted_binary_form():
    assert [f.name for f in dataclasses.fields(HilbPoint)] == ["ell", "qbar"]
    ell = LinearForm(1, 2, 3)
    with pytest.raises(TypeError):  # covol2_I2 is derived, not a field
        HilbPoint(ell, (1, 0, 0), **{"covol2_I2": 1})
    for z in _sample_points(30):
        twin = HilbPoint(LinearForm(*z.ell.triple), z.qbar)
        assert twin == z and hash(twin) == hash(z)
        assert twin.covol2_I2 == z.covol2_I2 == quotient(z.ell).covol2_with(z.qbar)
    assert HilbPoint(ell, (1, 0, 0)) != HilbPoint(ell, (0, 1, 0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        z.covol2_I2 = z.covol2_I2 + 1


def test_enumerate_points_empty_below_one():
    assert list(enumerate_points(2, 1, Fraction(99, 100))) == []


def test_enumerate_points_rejects_bad_exponents():
    with pytest.raises(ValueError):
        list(enumerate_points(0, 1, 10))
    with pytest.raises(ValueError):
        list(enumerate_points(2, -1, 10))


def test_enumerate_points_refuses_oversized_bounds():
    # isqrt(norm_cutoff(2, 1, 26455)) = 180 is the first cutoff with more
    # than 10^6 orbit representatives, C(183, 3); every bound here is
    # refused before walking
    assert isqrt(norm_cutoff(height_query(Fraction(2), Fraction(1), Fraction(26454)))) == 179
    assert isqrt(norm_cutoff(height_query(Fraction(2), Fraction(1), Fraction(26455)))) == 180
    for b in (26455, 10**30, 10**400):
        with pytest.raises(ValueError, match="B is too large: about 10\\^"):
            next(enumerate_points(2, 1, Fraction(b)))


def test_orbit_walk_is_a_stream_guarded_before_its_first_form():
    walk = _orbit_representatives(36)
    assert iter(walk) is walk
    assert next(walk) == (LinearForm(0, 0, 1), 3)
    assert len(list(walk)) == 27
    # C(183, 3) > 10^6 triples: the guard raises on the first next(), and
    # nothing was yielded before it
    walk = _orbit_representatives(180 * 180)
    with pytest.raises(ValueError, match="B is too large: about 10\\^6.0 orbit representatives"):
        next(walk)
    assert list(walk) == []


@pytest.mark.parametrize("b", [10**4, 26454])
def test_point_listing_refuses_before_the_walk(b):
    # the lower bound on the first representative, (0, 0, 1), refuses
    # before the rest of the walk is built
    start = time.perf_counter()
    with pytest.raises(ValueError, match="B is too large: at least .* points to list"):
        next(enumerate_points(2, 1, b))
    assert time.perf_counter() - start < 0.05


def test_covol2_I2_is_at_least_two_thirds_of_n_on_every_representative():
    # the bound norm_cutoff reads: 3 covol2_I2 >= 2n on every point, checked
    # on the first minimum of every fiber with n <= 20000
    walked = 0
    for f, _ in _orbit_representatives(20000):
        assert 3 * min_form_value(quotient(f)) >= 2 * f.norm2, f
        walked += 1
    assert walked == 211093


def test_huge_fibers_are_refused_past_every_bound_the_walk_admits():
    for s, b, rows in ((10, 10**5, "10^9.7"), (1000, 10**200, "10^399.7")):
        for call in (lambda: count_Nst(s, 1, b), lambda: next(enumerate_points(s, 1, b))):
            with pytest.raises(ValueError, match=rf"about {re.escape(rows)} ellipsoid rows"):
                call()
    # (0, 0, 1) has the largest row estimate of every walk at s >= t, with
    # E + |G| = covol2_product = n = 1 and t_max = B^2 at (2, 1); that walk
    # admits B = 26454, and refusal starts at 9 t_max^2 > 32 * 10^18
    ell = LinearForm(0, 0, 1)
    assert max_covol2_I2(1, height_query(Fraction(2), Fraction(1), Fraction(26454))) == 26454**2
    assert hilb._open_fiber(ell, 26454**2) is not None
    t_first = isqrt(32 * 10**18 // 9) + 1
    assert 9 * (t_first - 1) ** 2 <= 32 * 10**18 < 9 * t_first**2
    assert hilb._open_fiber(ell, t_first - 1) is not None
    with pytest.raises(ValueError, match=r"about 10\^9\.0 ellipsoid rows .* \(0, 0, 1\)"):
        hilb._open_fiber(ell, t_first)


def test_enumerate_points_refuses_a_listing_by_its_exact_size():
    # count_Nst(2, 1, B) is 987757 at B = 55 and 1042969 at B = 56; the
    # listing is refused from the orbit counts, before its first point
    assert count_Nst(2, 1, 55) == 987757 and count_Nst(2, 1, 56) == 1042969
    assert next(enumerate_points(2, 1, 55)) == HilbPoint(LinearForm(0, 0, 1), (0, 0, 1))
    for b, total in ((56, 1042969), (100, 5939677), (408, 403427221)):
        with pytest.raises(ValueError, match=f"B is too large: {total} points to list, more than 1000000"):
            next(enumerate_points(2, 1, b))
    # from B = 409 on, the lower bound on the (0, 0, 1) orbit refuses first
    with pytest.raises(ValueError, match="B is too large: at least 1005723 points to list, more than 1000000"):
        next(enumerate_points(2, 1, 409))


@pytest.mark.parametrize(
    "s, t, b, n",
    [(2, 1, 10, 5881), (2, 1, 20, 47461), (2, 1, 30, 160417),
     (1, 1, 10, 7909), (1, 1, 20, 63661), (1, 1, 30, 213853),
     (2, 3, 8, 75), (2, 3, 16, 201), (2, 3, 32, 397),
     (1, 2, 8, 409), (1, 2, 12, 817), (1, 2, 16, 1345), (1, 2, 24, 2929), (1, 2, 32, 5077)],
)
def test_listing_lower_bound_is_at_most_the_exact_count(s, t, b, n):
    # the listing's first refusal reads 3 (2k + 1)^2, k = isqrt((t_max - 1) // 2),
    # off the (0, 0, 1) orbit; at every query of the class table it is at
    # most that orbit's exact count and the listing's size N
    t_max = max_covol2_I2(1, height_query(Fraction(s), Fraction(t), Fraction(b)))
    low = 3 * (2 * isqrt((t_max - 1) // 2) + 1) ** 2
    assert low <= 3 * fiber_point_count(LinearForm(0, 0, 1), t_max) <= n == count_Nst(s, t, b)


def test_enumerate_points_checks_each_fiber_against_its_orbit_count(monkeypatch):
    # a fiber listed short of its orbit's count is an internal error, raised
    # explicitly so that python -O keeps it
    monkeypatch.setattr(hilb, "fiber_points", lambda ell, t_max: list(fiber_points(ell, t_max))[1:])
    with pytest.raises(AssertionError, match="points listed at"):
        list(enumerate_points(2, 1, 3))


@pytest.mark.parametrize(
    "s, t, b",
    [
        (2, 1, 10),
        (2, 1, Fraction(31, 3)),
        (1, 1, 5),
        (1, 2, 8),
        (2, 3, 6),
        (Fraction(3, 2), 2, 5),
        (3, 2, 20),
    ],
)
def test_enumerate_points_equals_the_full_form_walk(s, t, b):
    # the orbit walk lists what the walk over every sign-canonical form
    # lists, in the same order
    s, t, b = Fraction(s), Fraction(t), Fraction(b)
    forms = canonical_forms(isqrt(norm_cutoff(height_query(s, t, b))))
    full = [z for f in forms for z in fiber_points(f, max_covol2_I2(f.norm2, height_query(s, t, b)))]
    assert full
    assert list(enumerate_points(s, t, b)) == full


def test_orbit_expansion_partitions_the_canonical_forms():
    # n <= 432 = 3 * 12^2 holds every form with M <= 12, and the walk runs
    # to M = isqrt(432) = 20
    seen = []
    for rep, h in _orbit_representatives(432):
        forms = _orbit_forms(rep)
        assert len(forms) == h, rep
        assert rep in forms
        seen.extend(forms)
    assert sorted(f.triple for f in seen) == [f.triple for f in canonical_forms(20) if f.norm2 <= 432]


@pytest.mark.parametrize("t_max", [0, 1, 7, 50, 400, 3000])
def test_fiber_walk_is_the_sorted_sign_canonical_fiber(t_max):
    # the walk on the reversed quotient Gram lists what sorting the
    # sign-canonical primitive vectors of the Gram's own walk lists, with
    # strictly increasing qbar, on every form of the orbits with n <= 200
    pairs = 0
    for rep, _ in _orbit_representatives(200):
        for ell in _orbit_forms(rep):
            want = sorted(
                sign_canonical(x)
                for x in enumerate_form_le(quotient(ell).gram_int, t_max)
                if gcd(gcd(x[0], x[1]), x[2]) == 1
            )
            # a HilbPoint is equal to another exactly when (ell, qbar) is
            got = [(z.ell, z.qbar) for z in fiber_points(ell, t_max)]
            assert got == [(ell, x) for x in want], (ell, t_max)
            assert all(p < q for (_, p), (_, q) in zip(got, got[1:])), (ell, t_max)
            pairs += 1
    assert pairs == 29454 // 6


def test_fiber_points_axis_example():
    ell = LinearForm(1, 0, 0)
    pts = list(fiber_points(ell, max_covol2_I2(ell.norm2, height_query(Fraction(2), Fraction(1), Fraction(2)))))
    assert len(pts) == 13
    assert sorted({p.covol2_I2 for p in pts}) == [1, 2, 3]


def test_enumerate_points_deterministic_and_duplicate_free():
    pts1 = list(enumerate_points(2, 1, 6))
    pts2 = list(enumerate_points(2, 1, 6))
    assert pts1 == pts2
    assert len(set(pts1)) == len(pts1)
    keys = [(p.ell.triple, p.qbar) for p in pts1]
    assert keys == sorted(keys)


def test_enumerate_points_height_filter_exact():
    # every emitted point has height <= B; height^2 = cv1^(s-t) cv2^t
    b = Fraction(6)
    for z in enumerate_points(2, 1, b):
        assert Fraction(z.covol2_I1) * z.covol2_I2 <= b * b
    # boundary inclusion: a point of height exactly B is kept (<= convention)
    z = canonicalize((1, 0, 0), (0, 0, 0, 1, 2, 2))  # coset norm^2 = 9, H = 3
    assert Fraction(z.covol2_I1) * z.covol2_I2 == 9
    assert z in list(enumerate_points(2, 1, 3))
    assert z not in list(enumerate_points(2, 1, Fraction(3) - Fraction(1, 10**9)))


def test_scaling_law_same_point_set():
    a = list(enumerate_points(2, 1, 5))
    b = list(enumerate_points(4, 2, 25))
    assert a == b
    c = list(enumerate_points(3, 1, 7))
    d = list(enumerate_points(6, 2, 49))
    assert c == d


def test_canonical_forms_against_sorted_brute_force():
    for m in range(7):
        r = range(-m, m + 1)
        want = sorted(t for t in product(r, r, r) if any(t) and gcd(*t) == 1 and sign_canonical(t) == t)
        assert [f.triple for f in canonical_forms(m)] == want, m


def test_m_cutoff_is_sound():
    s, t, b = Fraction(2), Fraction(1), Fraction(5)
    m = isqrt(norm_cutoff(height_query(s, t, b)))
    # fibers just beyond the cutoff are empty
    for f in canonical_forms(m + 2):
        if f.M > m:
            assert fiber_point_count(f, max_covol2_I2(f.norm2, height_query(s, t, b))) == 0


def test_fiber_count_matches_point_list():
    s, t, b = Fraction(2), Fraction(1), Fraction(8)
    for f in canonical_forms(3):
        t_max = max_covol2_I2(f.norm2, height_query(s, t, b))
        assert fiber_point_count(f, t_max) == len(list(fiber_points(f, t_max)))


def test_roundtrip_canonicalize_lift():
    for z in list(enumerate_points(2, 1, 5))[:200]:
        z2 = canonicalize(z.ell.triple, z.q_lift())
        assert z2 == z


def test_roundtrip_recovers_defining_lattices():
    # the canonical point reconstructs the same pair of ideal lattices that
    # the raw defining system generates
    from hilb2.exactlin import hnf, saturate

    raw = [
        ((0, 0, 1), (1, 0, 0, -2, 0, 0)),
        ((2, -1, 3), (1, 1, 0, 0, 2, -1)),
        ((1, 1, 1), (3, 0, 0, 1, 0, 0)),
    ]
    for ell_raw, q_raw in raw:
        z = canonicalize(ell_raw, q_raw)
        gens = [list(r) for r in product_basis(z.ell)] + [list(q_raw)]
        assert hnf(_ideal_basis(z, 2)) == saturate(gens)
        assert _ideal_basis(z, 1) == ((z.ell.a, z.ell.b, z.ell.c),)


def _unpruned_count(f, s, t, b):
    """Fiber count straight from the quotient lattice, with no prune."""
    t_max = max_covol2_I2(f.norm2, height_query(s, t, b))
    n = count_primitive_form(quotient(f).gram_int, t_max)
    assert n % 2 == 0
    return n // 2


def test_max_covol2_I2_is_the_largest_admissible_value():
    import random
    from math import lcm

    rng = random.Random(3)
    for _ in range(400):
        s = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        t = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        b = Fraction(rng.randint(1, 400), rng.randint(1, 9))
        cv1 = rng.randint(1, 3000)
        big_l = lcm(s.denominator, t.denominator)

        def ok(x):  # H^(2L) = cv1^(L(s-t)) * x^(Lt) <= b^(2L)
            return Fraction(cv1) ** int(big_l * (s - t)) * x ** int(big_l * t) <= b ** (2 * big_l)

        k = max_covol2_I2(cv1, height_query(s, t, b))
        assert (k == 0 or ok(k)) and not ok(k + 1)


def test_max_covol2_I2_against_the_fraction_formula():
    import random
    from math import floor, lcm

    from hilb2.lattice import iroot

    rng = random.Random(8)
    below = 0
    for _ in range(400):
        s = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        t = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        b = Fraction(rng.randint(1, 400), rng.randint(1, 9))
        cv1 = rng.randint(1, 3000)
        big_l = lcm(s.denominator, t.denominator)
        a_exp, b_exp = int(big_l * (s - t)), int(big_l * t)
        want = iroot(floor(b ** (2 * big_l) / Fraction(cv1) ** a_exp), b_exp)
        assert max_covol2_I2(cv1, height_query(s, t, b)) == want, (cv1, s, t, b)
        below += s < t
    assert below > 100


def _kernel_radius(f):
    """E + |G| with E = e.e, G = e.f for (e, f) = kernel_basis_of(f)."""
    e, g = kernel_basis_of(f)
    return dot(e, e) + abs(dot(e, g))


def test_first_minimum_lower_bound_all_forms_m12():
    # 2 n^2 * lambda_1^2 >= 1, the lemma of norm_cutoff, and the sharper
    # 2 r^2 * lambda_1^2 >= 1 with r = E + |G| <= n behind the fiber prune
    sharper = 0
    for f in canonical_forms(12):
        q = quotient(f)
        r = _kernel_radius(f)
        assert r <= f.norm2, f
        assert 2 * r * r * min_form_value(q) >= q.covol2_product, f
        sharper += r < f.norm2
    assert sharper > 0


def test_empty_fiber_prune_is_sound():
    s, t = Fraction(2), Fraction(1)
    for b in (Fraction(5), Fraction(10)):
        fired = 0
        for f in canonical_forms(_distance_lemma_cutoff(s, t, b)):
            unpruned = _unpruned_count(f, s, t, b)
            r = _kernel_radius(f)
            if 2 * r * r * max_covol2_I2(f.norm2, height_query(s, t, b)) < product_covol2_formula(*f.triple):
                fired += 1
                assert unpruned == 0, f
            assert fiber_point_count(f, max_covol2_I2(f.norm2, height_query(s, t, b))) == unpruned, f
        assert fired > 0


def test_m_cutoff_is_sound_upper_bound_regime():
    for s, t, b in ((1, 2, 2), (1, 2, 3), (1, 1, 3)):
        s, t, b = Fraction(s), Fraction(t), Fraction(b)
        m = isqrt(norm_cutoff(height_query(s, t, b)))
        for f in canonical_forms(m + 3):
            if f.M > m:
                assert _unpruned_count(f, s, t, b) == 0, (s, t, b, f)


@pytest.mark.parametrize("s, t, b", [(2, 1, 5), (1, 2, 3), (1, 1, 3), (Fraction(5, 2), Fraction(3, 2), Fraction(7, 3))])
def test_norm_cutoff_is_sound(s, t, b):
    # the forms past the norm cutoff, below M = isqrt(norm_cutoff) + 2, hold no point
    # even without the fiber prune
    s, t, b = Fraction(s), Fraction(t), Fraction(b)
    n_max = norm_cutoff(height_query(s, t, b))
    past = [f for f in canonical_forms(isqrt(n_max) + 2) if f.norm2 > n_max]
    assert past
    for f in past:
        assert _unpruned_count(f, s, t, b) == 0, (s, t, b, f)


def test_m_cutoff_is_the_root_of_the_norm_cutoff():
    # with X = floor((3/2)^(tL) B^(2L)) and k = sL, norm_cutoff is iroot(X, k)
    # and its isqrt, the walk's M cutoff, equals iroot(X, 2k), the largest M
    # with M^(2s) <= (3/2)^t B^2
    import random
    from math import floor, lcm

    from hilb2.lattice import iroot

    rng = random.Random(21)
    queries = [(Fraction(2), Fraction(1), Fraction(26454)), (Fraction(2), Fraction(1), Fraction(26455))]
    for _ in range(1000):
        s = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        t = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        queries.append((s, t, Fraction(rng.randint(1, 20000), rng.randint(1, 9))))
    for s, t, b in queries:
        big_l = lcm(s.denominator, t.denominator)
        x = floor(Fraction(3, 2) ** int(t * big_l) * b ** (2 * big_l))
        k = int(s * big_l)
        n = norm_cutoff(height_query(s, t, b))
        assert n**k <= x < (n + 1) ** k, (s, t, b)
        assert isqrt(n) == iroot(x, 2 * k), (s, t, b)
    assert [isqrt(norm_cutoff(height_query(*q))) for q in queries[:2]] == [179, 180]


def test_upper_bound_regime_counts_match_unpruned_recount():
    for b, expected in ((2, 33), (3, 63)):
        s, t = Fraction(1), Fraction(2)
        n = count_Nst(s, t, b)
        recount = sum(
            _unpruned_count(f, s, t, Fraction(b))
            for f in canonical_forms(2 * isqrt(norm_cutoff(height_query(s, t, Fraction(b)))))
        )
        assert n == recount == expected


def test_monomial_box_oracle_inside_fiber_points():
    # raw quadrics pushed through canonicalize land in the pruned fiber lists
    s, t, b = Fraction(2), Fraction(1), Fraction(3)
    forms = canonical_forms(1)
    assert len(forms) == 13
    found = 0
    for f in forms:
        box = oracle_fiber_points_monomial_box(f, s, t, b, coeff_box=2)
        assert box <= {p.qbar for p in fiber_points(f, max_covol2_I2(f.norm2, height_query(s, t, b)))}, f
        found += len(box)
    assert found > 0
