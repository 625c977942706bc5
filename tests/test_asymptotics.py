import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import chain
from math import floor, gcd, isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hilb2
from hilb2 import asymptotics
from hilb2.asymptotics import (
    _exact_sum,
    _le_region_worker,
    _orbit_sum,
    _pair_tables,
    _shell_terms,
    _shell_weights,
    _split_pair_count,
    bm_exponents,
    constant_c,
    convergence_report,
    count_Nst,
    le_count,
    le_count_detailed,
    le_rudulier_prediction,
)
from hilb2.heights import discriminant, is_perfect_square, le_height2
from hilb2.hilb import (
    HilbPoint,
    _canonical_orbit_size,
    _orbit_forms,
    _orbit_representatives,
    canonical_forms,
    enumerate_points,
    fiber_point_count,
    fiber_points,
    height_query,
    max_covol2_I2,
    norm_cutoff,
)
from hilb2.lattice import enumerate_form_le, iroot, product_covol2_formula, quotient, sign_canonical
from hilb2.oracles import oracle_count_points


def test_constant_first_shell_value():
    # 26 primitive triples at M = 1: axes 6*1, face diagonals 12*2^-1.5/6,
    # space diagonals 8*3^-1.5/20, scaled by pi/(3 zeta(3))
    est = constant_c(2.0, 1)
    assert abs(est.partial - 5.910102161783023) < 1e-12
    assert est.tail_bound > 0


def test_constant_brackets_are_nested():
    e10 = constant_c(2.0, 10)
    e20 = constant_c(2.0, 20)
    assert e10.partial <= e20.partial
    assert e20.hi <= e10.hi + 1e-12
    assert e20.lo <= e20.hi


def test_constant_validation():
    with pytest.raises(ValueError):
        constant_c(0.0, 10)
    with pytest.raises(ValueError):  # beyond what the rounding budget covers
        constant_c(2e6, 10)
    with pytest.raises(ValueError):
        constant_c(2.0, 0)


@pytest.mark.parametrize("m_max", [200.0, 2.5, "3", None])
def test_constant_refuses_a_non_integral_m_max(m_max):
    # 200.0 would pass the range check, so the type is checked before it
    with pytest.raises(ValueError, match="M_max must be an integer"):
        constant_c(2.0, m_max)


def test_constant_takes_any_integer_m_max():
    assert constant_c(2.0, np.int64(30)) == constant_c(2.0, 30)


@pytest.mark.parametrize("ratio", [1e-308, 5e-324])
def test_constant_refuses_a_tail_bound_beyond_the_float_range(ratio):
    # 13 / ratio overflows below ratio = 7.2e-308
    with pytest.raises(ValueError, match="exceeds the float range"):
        constant_c(ratio, 5)


def test_constant_tail_bound_near_the_float_range():
    est = constant_c(1e-307, 5)
    assert 0 < est.lo <= est.hi < float("inf")
    assert est.tail_bound > 1e308


def _cube_terms(m_max):
    """(n, covol2_product) of every primitive vector of max-norm <= m_max,
    by a plain scan of the cube."""
    r = range(-m_max, m_max + 1)
    for a in r:
        for b in r:
            for c in r:
                if gcd(gcd(a, b), c) == 1:
                    yield a * a + b * b + c * c, product_covol2_formula(a, b, c)


@pytest.mark.parametrize("ratio", [1.5, 2.0, 3.0])
def test_orbit_sum_matches_full_cube(ratio):
    expo = 1.5 - 1.5 * ratio
    for m in range(1, 9):
        want = math.fsum(n**expo / p for n, p in _cube_terms(m))
        assert abs(_orbit_sum(expo, m) - want) <= 4 * math.ulp(want), m


def _reference_shells(m_max):
    """(M, a, b, w) per shell M = 1..m_max, by filtering the pairs a <= b <=
    M coprime to M in each shell and computing their orbit sizes w = 2h
    there: the per-shell walk the pair tables replace, kept as their
    reference."""
    bb, aa = np.tril_indices(m_max + 1)
    gab = np.gcd(aa, bb)
    for m in range(1, m_max + 1):
        k = (m + 1) * (m + 2) // 2
        keep = np.gcd(gab[:k], m) == 1
        a, b = aa[:k][keep], bb[:k][keep]
        yield m, a, b, _canonical_orbit_size(a, b, m) << 1


def _reference_terms(powers, m_max):
    """The terms w * n^expo / covol2_product of ``_reference_shells``, one
    array per shell, given powers[n] = n^expo, with the covolume from
    ``product_covol2_formula`` directly."""
    for m, a, b, w in _reference_shells(m_max):
        yield powers[a * a + b * b + m * m] / product_covol2_formula(a, b, np.int64(m)) * w


def _reference_powers(expo, m_max):
    return np.fromiter(
        (math.pow(k, expo) if k else 0.0 for k in range(3 * m_max * m_max + 1)),
        dtype=np.float64,
    )


@pytest.mark.parametrize("m_max", [200, 500])
@pytest.mark.parametrize("ratio", [2, 1e6, 0.001, 1.5, 3])
def test_power_table_is_math_pow_bit_for_bit(ratio, m_max, monkeypatch):
    # the rounding budget of constant_c assumes libm's pow; a numpy whose
    # float_power is another function (np.power's SIMD loop differs from
    # math.pow on thousands of these entries) fails here.  The table is the
    # one _orbit_sum hands to every shell
    seen = []
    shell_terms = asymptotics._shell_terms

    def spy(powers, tables, m):
        seen.append(powers)
        return shell_terms(powers, tables, m)

    monkeypatch.setattr(asymptotics, "_shell_terms", spy)
    expo = 1.5 - 1.5 * ratio
    _orbit_sum(expo, m_max)
    assert len(seen) == m_max and all(p is seen[0] for p in seen)
    n_max = 3 * m_max * m_max
    want = np.array([math.pow(n, expo) for n in range(1, n_max + 1)], dtype=np.float64)
    got = seen[0]
    assert got.dtype == np.float64 and got.shape == (n_max,)
    bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert bad.size == 0, (bad.size, bad[:5] + 1)


def _table_shells(m_max):
    """(M, a, b, w) per shell from the pair tables of the orbit sum: the
    pairs of nonzero weight and their weights."""
    tables = _pair_tables(m_max)
    bb, aa = np.tril_indices(m_max + 1)
    for m in range(1, m_max + 1):
        w = _shell_weights(tables, m)
        keep = w != 0
        yield m, aa[: len(w)][keep], bb[: len(w)][keep], w[keep]


def _orbit_sum_by_fsum(expo, m_max):
    """The orbit sum as one math.fsum over every shell's terms turned into
    Python floats: the reference the exact sum must equal."""
    terms = _reference_terms(_reference_powers(expo, m_max), m_max)
    return math.fsum(chain.from_iterable(x.tolist() for x in terms))


@pytest.mark.parametrize("ratio", [0.001, 0.5, 1, 1.5, 2, 3, 5, 400, 1e6])
def test_orbit_sum_is_bit_identical_to_fsum(ratio):
    # at 1e6 every term but the one of (0, 0, 1) underflows to 0
    expo = 1.5 - 1.5 * ratio
    for m in [*range(1, 41), 120]:
        assert _orbit_sum(expo, m) == _orbit_sum_by_fsum(expo, m), m


def _binned_sum(arrays):
    """The correctly rounded sum of the nonnegative finite entries by
    exponent bins (Demmel and Hida, SIAM J. Sci. Comput. 25(4), 2003), a
    method independent of ``_exact_sum``'s extraction: ``np.frexp`` gives
    x = f 2^e, f 2^53 an integer cut into limbs hi = floor(f 2^27) < 2^27
    and lo < 2^26, each limb is summed per exponent by ``np.bincount``
    (exact below 2^53), and the bins are added as Python ints and rounded
    once.  Each array must be shorter than 2^26."""
    min_exponent = -1073  # np.frexp exponents of finite floats run from -1073 to 1024
    hi_bins = np.zeros(1024 - min_exponent + 1, dtype=np.int64)
    lo_bins = np.zeros_like(hi_bins)
    for x in arrays:
        frac, expo = np.frexp(x)
        expo -= min_exponent
        frac *= 2.0**27
        hi = np.floor(frac)
        frac -= hi
        frac *= 2.0**26
        k = int(expo.max(initial=0)) + 1
        hi_bins[:k] += np.bincount(expo, weights=hi, minlength=k).astype(np.int64)
        lo_bins[:k] += np.bincount(expo, weights=frac, minlength=k).astype(np.int64)
    total = sum(
        ((int(hi_bins[i]) << 26) + int(lo_bins[i])) << int(i)
        for i in np.flatnonzero(hi_bins | lo_bins)
    )
    # bin i counts units of 2^(i + min_exponent - 53)
    return total / (1 << (53 - min_exponent))


def _reference_orbit_sum(expo, m_max):
    return _binned_sum(_reference_terms(_reference_powers(expo, m_max), m_max))


@pytest.mark.parametrize("ratio", [0.001, 0.5, 1, 1.5, 2, 3, 5, 400, 1e6])
def test_orbit_sum_is_bit_identical_to_the_shell_walk(ratio):
    expo = 1.5 - 1.5 * ratio
    for m in [*range(1, 41), 120]:
        assert _orbit_sum(expo, m).hex() == _reference_orbit_sum(expo, m).hex(), m


@pytest.mark.parametrize("ratio", [2, 0.5])
def test_orbit_sum_is_bit_identical_to_the_shell_walk_at_large_m(ratio):
    # 276 / 277 straddle the exact conversion of covol2 <= 20 M^6 < 2^53,
    # and 500 is the largest M_max that constant_c admits
    expo = 1.5 - 1.5 * ratio
    for m in (200, 276, 277, 500):
        assert _orbit_sum(expo, m).hex() == _reference_orbit_sum(expo, m).hex(), m


@pytest.mark.parametrize("m", [1, 2, 57, 276, 277, 500])
def test_pair_tables_give_the_product_covolume(m):
    # k0 + M^2 (k1 + M^2 (2 s + M^2)) is product_covol2_formula, as Python
    # ints, on every pair of shell M; the weights are the orbit sizes 2h
    s, k0, k1, gab, w_inner, w_edge = (x.tolist() for x in _pair_tables(m))
    m2 = m * m
    bb, aa = np.tril_indices(m + 1)
    for i, (a, b) in enumerate(zip(aa.tolist(), bb.tolist())):
        assert s[i] == a * a + b * b and gab[i] == gcd(a, b)
        assert k0[i] + m2 * (k1[i] + m2 * (2 * s[i] + m2)) == product_covol2_formula(a, b, m), (a, b)
        assert w_inner[i] == 2 * _canonical_orbit_size(a, b, m + 1)
        assert w_edge[i] == 2 * _canonical_orbit_size(a, b, b)


def test_shell_weights_are_the_shell_walk():
    # the pairs of nonzero weight and their weights, shell by shell
    for (m, a, b, w), (m1, a1, b1, w1) in zip(_table_shells(60), _reference_shells(60), strict=True):
        assert m == m1 and a.tolist() == a1.tolist() and b.tolist() == b1.tolist()
        assert w.tolist() == w1.tolist(), m


# nonnegative finite floats from subnormal to 2^1017, so that 64 of them
# still add to a finite float
_summands = st.one_of(
    st.floats(min_value=0.0, max_value=2.0**1017, allow_subnormal=True),
    st.floats(min_value=0.0, max_value=2.0**-1000, allow_subnormal=True),
    st.sampled_from([0.0, 5e-324, 2.0**-1022 - 5e-324, 2.0**-1022, 1.0, 1.0 - 2.0**-53, 2.0**1017]),
)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(st.lists(_summands, max_size=64), st.lists(st.integers(0, 64), max_size=3))
def test_exact_sum_equals_fsum(xs, cuts):
    # the list is cut into up to four arrays, so the bins also carry across arrays
    arrays = np.split(np.array(xs, dtype=np.float64), sorted(min(c, len(xs)) for c in cuts))
    assert _exact_sum(arrays).hex() == math.fsum(xs).hex()


def test_exact_sum_of_many_equal_terms():
    # 2^20 mantissas of 53 ones in one bin, and a tie that rounds to even
    x = 1.0 - 2.0**-53
    assert _exact_sum([np.full(2**20, x)]) == math.fsum([x] * 2**20)
    assert _exact_sum([np.array([1.0, 2.0**-53])]) == 1.0 == math.fsum([1.0, 2.0**-53])
    assert _exact_sum([np.zeros(3), np.array([])]) == 0.0


def test_exact_sum_of_shell_1_at_ratio_1():
    # n^0 = 1: the terms of shell 1 are 6, 12 / 6 and 8 / 20, and the first
    # pass rounds 0.4 up, so its remainder goes negative
    terms = _shell_terms(np.ones(3), _pair_tables(1), 1)
    assert _exact_sum([terms]).hex() == math.fsum(terms.tolist()).hex()
    assert _exact_sum([terms, terms[::-1], terms[:1]]).hex() == math.fsum([*terms, *terms, terms[0]]).hex()


def test_exact_sum_of_n_entries_just_below_a_power_of_two():
    # the q of n entries near 2^e add to about n 2^e, the most that sigma
    # must leave room for; 1 - 2^-52 rounds up, so the remainders are negative
    for n in [*range(1, 40), 2**12 - 1, 2**12, 2**12 + 1]:
        for x in (1 - 2.0**-52, 1 - 2.0**-53, 2.0**959 * (1 - 2.0**-52), 2.0**-1022 - 5e-324):
            assert _exact_sum([np.full(n, x)]).hex() == math.fsum([x] * n).hex(), (n, x)


@pytest.mark.parametrize("n", [1, 2**12])
def test_exact_sum_of_entries_up_to_the_float_max(n):
    # a pass's sigma = 2^(e + bit_length(2n)) would overflow here
    rng = np.random.default_rng(n)
    huge = np.ldexp(rng.uniform(1, 2, n), rng.integers(1000, 1012, n))  # n of them stay below 2^1023
    small = np.ldexp(rng.uniform(1, 2, n - 1), rng.integers(-1080, 950, n - 1))
    top = np.array([sys.float_info.max, *small])
    for xs in (huge, top, np.full(n, 2.0**1000), np.full(n, 2.0**960), np.full(n, 2.0**959)):
        assert _exact_sum([xs]).hex() == math.fsum(xs.tolist()).hex()
    assert _exact_sum([top[:1]]) == sys.float_info.max
    with pytest.raises(OverflowError):
        _exact_sum([top[:1], top[:1]])
    with pytest.raises(OverflowError):
        math.fsum([sys.float_info.max] * 2)


def test_exact_sum_of_subnormals_only():
    rng = np.random.default_rng(5)
    for n in (1, 7, 2**10, 2**15):
        xs = rng.integers(0, 2**52, n).view(np.float64)  # the bit patterns of 0 and the subnormals
        assert _exact_sum([xs]).hex() == math.fsum(xs.tolist()).hex(), n
    assert _exact_sum([np.full(3, 5e-324)]) == 3 * 5e-324


def test_exact_sum_from_subnormals_to_2_900():
    rng = np.random.default_rng(6)
    xs = np.ldexp(rng.uniform(1, 2, 2**16), rng.integers(-1080, 901, 2**16))
    want = math.fsum(xs.tolist()).hex()
    assert _exact_sum([xs]).hex() == want
    # cut into arrays of many sizes, which the sum gathers into blocks
    assert _exact_sum(np.split(xs, np.sort(rng.integers(0, 2**16, 90)))).hex() == want


# up to 2^10 nonnegative finite floats below 2^1013, so that the sum stays finite
_many_summands = st.one_of(
    st.floats(min_value=0.0, max_value=2.0**1013, allow_subnormal=True),
    st.floats(min_value=0.0, max_value=2.0**-1000, allow_subnormal=True),
    st.sampled_from([0.0, 5e-324, 2.0**-1022, 1.0, 1.0 - 2.0**-53, 2.0**959, 2.0**960, 2.0**1013]),
)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(_many_summands, max_size=2**10))
def test_exact_sum_of_up_to_1024_entries_equals_fsum(xs):
    # sigma moves with the number of entries n
    assert _exact_sum([np.array(xs, dtype=np.float64)]).hex() == math.fsum(xs).hex()


# (ratio, M_max, partial, tail_bound) of constant_c as float.hex, computed
# with the exponent-binned sum (``_binned_sum``) that ``_exact_sum`` replaced
_CONSTANT_GOLDEN = [
    (0.001, 1, "0x1.7ea590e37a2aap+3", "0x1.61e9d266ed6f8p+13"),
    (0.001, 2, "0x1.1038492fb1c45p+4", "0x1.612d9dceffabap+13"),
    (0.001, 7, "0x1.d700d1df82096p+4", "0x1.5fda742495ff3p+13"),
    (0.001, 50, "0x1.93d1649cb07a3p+5", "0x1.5dc8ba541cc69p+13"),
    (0.001, 200, "0x1.06d558523a87ap+6", "0x1.5c5518598ac39p+13"),
    (0.001, 276, "0x1.14fac6a322f59p+6", "0x1.5bfef92288255p+13"),
    (0.001, 277, "0x1.152bb091f397ep+6", "0x1.5bfe01b0a6fb0p+13"),
    (0.5, 1, "0x1.1e73b49555312p+3", "0x1.6a6843fee6d8cp+4"),
    (0.5, 2, "0x1.493993c1fc15cp+3", "0x1.0042b9fed63e0p+3"),
    (0.5, 7, "0x1.6daf72fb63c47p+3", "0x1.391728dd8ce88p+0"),
    (0.5, 50, "0x1.75c8d043b72ecp+3", "0x1.06693125b8d00p-4"),
    (0.5, 200, "0x1.7638d03e72645p+3", "0x1.06693125bac00p-7"),
    (0.5, 276, "0x1.763f0075897a3p+3", "0x1.43bcd87279000p-8"),
    (0.5, 277, "0x1.763f1111416a9p+3", "0x1.41fc758e79800p-8"),
    (0.5, 500, "0x1.7644e5ea338a3p+3", "0x1.098a89e91c000p-9"),
    (1, 1, "0x1.d4577b496e515p+2", "0x1.6a6843fee6d8ep+3"),
    (1, 2, "0x1.eb698aa161a9fp+2", "0x1.6a6843fee6db4p+0"),
    (1, 7, "0x1.f3941552bf459p+2", "0x1.0e7c17e153d00p-5"),
    (1, 50, "0x1.f3e56b8014b2fp+2", "0x1.7c02f72ad0000p-14"),
    (1, 200, "0x1.f3e5b1537f532p+2", "0x1.7c02f75400000p-20"),
    (1, 276, "0x1.f3e5b206acaf8p+2", "0x1.2131b72000000p-21"),
    (1, 277, "0x1.f3e5b2081ab2bp+2", "0x1.1e12cc3000000p-21"),
    (1.5, 1, "0x1.9a9e214f4c843p+2", "0x1.e335affe89215p+2"),
    (1.5, 2, "0x1.a0f46b274bff9p+2", "0x1.55ae4d53c85b0p-2"),
    (1.5, 7, "0x1.a20279ede19edp+2", "0x1.3791b2be29000p-10"),
    (1.5, 50, "0x1.a2048c5bfe75bp+2", "0x1.6ee086a000000p-23"),
    (1.5, 200, "0x1.a2048c76e3b51p+2", "0x1.6ee2c00000000p-32"),
    (1.5, 276, "0x1.a2048c76ee54bp+2", "0x1.587c000000000p-34"),
    (1.5, 277, "0x1.a2048c76ee64ep+2", "0x1.52ee000000000p-34"),
    (2, 1, "0x1.7a3f1d2338204p+2", "0x1.6a6843fee6d90p+2"),
    (2, 2, "0x1.7c034dbb3b886p+2", "0x1.6a6843fee6f80p-4"),
    (2, 7, "0x1.7c2983800d3a4p+2", "0x1.93c1720480000p-15"),
    (2, 50, "0x1.7c29930633d09p+2", "0x1.8e7ac00000000p-32"),
    (2, 200, "0x1.7c2993063fa09p+2", "0x1.b000000000000p-44"),
    (2, 276, "0x1.7c2993063fa13p+2", "0x1.7000000000000p-46"),
    (2, 277, "0x1.7c2993063fa12p+2", "0x1.8000000000000p-46"),
    (2, 500, "0x1.7c2993063fa14p+2", "0x1.4000000000000p-47"),
    (0.6666666666666666, 1, "0x1.096dacec52c6ep+3", "0x1.0fce32ff2d22bp+4"),
    (0.6666666666666666, 2, "0x1.24fff67f2f1a2p+3", "0x1.0fce32ff2d23ap+2"),
    (0.6666666666666666, 7, "0x1.363afb4a3d809p+3", "0x1.6302df57bdaa0p-2"),
    (0.6666666666666666, 50, "0x1.385365cfc5da5p+3", "0x1.bd5379a564800p-8"),
    (0.6666666666666666, 200, "0x1.385f00c29febcp+3", "0x1.bd5379a608000p-12"),
    (0.6666666666666666, 276, "0x1.385f6000e3c06p+3", "0x1.d3ae65a030000p-13"),
    (0.6666666666666666, 277, "0x1.385f60eac38f0p+3", "0x1.d04f81c010000p-13"),
    (3, 1, "0x1.5d4b674ae9ec6p+2", "0x1.e335affe8921cp+1"),
    (3, 2, "0x1.5d6fb1bf421e5p+2", "0x1.e335affe8b000p-8"),
    (3, 7, "0x1.5d709605a5a3ep+2", "0x1.91cb360000000p-24"),
    (3, 50, "0x1.5d709609ed0fcp+2", "0x1.4000000000000p-47"),
    (3, 200, "0x1.5d709609ed0fcp+2", "0x1.0000000000000p-47"),
    (3, 276, "0x1.5d709609ed0fcp+2", "0x1.0000000000000p-47"),
    (3, 277, "0x1.5d709609ed0fbp+2", "0x1.4000000000000p-47"),
    (7.3, 1, "0x1.4eb09f24d894dp+2", "0x1.8d289eae23934p+0"),
    (7.3, 2, "0x1.4eb09f5fcbae9p+2", "0x1.a9aa063000000p-22"),
    (7.3, 7, "0x1.4eb09f5fced5bp+2", "0x1.d800000000000p-45"),
    (7.3, 50, "0x1.4eb09f5fced46p+2", "0x1.9400000000000p-44"),
    (7.3, 200, "0x1.4eb09f5fced38p+2", "0x1.0200000000000p-43"),
    (7.3, 276, "0x1.4eb09f5fced34p+2", "0x1.1200000000000p-43"),
    (7.3, 277, "0x1.4eb09f5fced34p+2", "0x1.1200000000000p-43"),
    (400, 1, "0x1.4e87a134735eap+2", "0x1.cfe19eb6ea900p-6"),
    (400, 2, "0x1.4e87a134735eap+2", "0x1.0000000000000p-47"),
    (400, 7, "0x1.4e87a134735eap+2", "0x1.0000000000000p-47"),
    (400, 50, "0x1.4e87a134735eap+2", "0x1.0000000000000p-47"),
    (400, 200, "0x1.4e87a134735eap+2", "0x1.0000000000000p-47"),
    (400, 276, "0x1.4e87a134735eap+2", "0x1.0000000000000p-47"),
    (400, 277, "0x1.4e87a134735eap+2", "0x1.2000000000000p-47"),
    (1000000.0, 1, "0x1.4e87a134735eap+2", "0x1.7c02f72e00000p-17"),
    (1000000.0, 2, "0x1.4e87a134735eap+2", "0x1.0000000000000p-47"),
    (1000000.0, 7, "0x1.4e87a134735eap+2", "0x1.0000000000000p-47"),
    (1000000.0, 50, "0x1.4e87a134735eap+2", "0x1.0000000000000p-47"),
    (1000000.0, 200, "0x1.4e87a134735eap+2", "0x1.0000000000000p-47"),
    (1000000.0, 276, "0x1.4e87a134735eap+2", "0x1.0000000000000p-47"),
    (1000000.0, 277, "0x1.4e87a134735eap+2", "0x1.2000000000000p-47"),
]


@pytest.mark.parametrize("ratio, m_max, partial, tail_bound", _CONSTANT_GOLDEN)
def test_constant_golden_values(ratio, m_max, partial, tail_bound):
    est = constant_c(ratio, m_max)
    assert (est.partial.hex(), est.tail_bound.hex()) == (partial, tail_bound)


def test_orbit_weights_count_each_shell():
    brute = Counter()
    r = range(-15, 16)
    for a in r:
        for b in r:
            for c in r:
                if gcd(gcd(a, b), c) == 1:
                    brute[max(abs(a), abs(b), abs(c))] += 1
    shells = {m: int(w.sum()) for m, _, _, w in _table_shells(15)}
    assert shells == dict(brute)
    assert shells[1] == 26


def test_python_orbit_walk_matches_the_array_walk():
    for m_max in range(41):
        arrays = [
            (a, b, m, w // 2)
            for m, aa, bs, ws in _table_shells(m_max)
            for a, b, w in zip(aa.tolist(), bs.tolist(), ws.tolist())
        ]
        # n <= 3 M^2 holds every shell up to m_max, and the norm bound
        # keeps exactly the representatives within it
        reps = [(*f.triple, h) for f, h in _orbit_representatives(3 * m_max * m_max)]
        assert [r for r in reps if r[2] <= m_max] == arrays, m_max
        for n_max in (m_max * m_max, m_max * m_max + m_max, (m_max + 1) ** 2 - 1):
            kept = [(*f.triple, h) for f, h in _orbit_representatives(n_max)]
            assert kept == [r for r in arrays if r[0] ** 2 + r[1] ** 2 + r[2] ** 2 <= n_max], (m_max, n_max)


def test_orbit_walk_refuses_oversized_bounds():
    # C(m_max + 3, 3) is far above the cap at both bounds, so nothing is walked
    for call in (
        lambda b: count_Nst(2, 1, b),
        lambda b: count_Nst(1, 2, b),
        lambda b: le_count_detailed(b),
    ):
        for b in (Fraction(10**30), Fraction(10**400)):
            with pytest.raises(ValueError, match="B is too large: about 10\\^"):
                call(b)


@pytest.mark.parametrize("ratio", [1.5, 2.0, 3.0])
def test_constant_bracket_encloses_mpmath_partial_sum(ratio):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        pref = mpmath.pi / (3 * mpmath.zeta(3))
        expo = mpmath.mpf(3) / 2 - mpmath.mpf(3) / 2 * mpmath.mpf(ratio)
        # at M = 2, 3 (ratio 2), 3 (1.5) and 6 (3) the correctly rounded sum of
        # the float terms lies above the true partial sum: they need the budget
        for m in (1, 2, 3, 5, 6, 20):
            terms = Counter(_cube_terms(m))
            partial = pref * mpmath.fsum(k * mpmath.mpf(n) ** expo / p for (n, p), k in terms.items())
            est = constant_c(ratio, m)
            assert est.lo <= partial <= est.hi, (m, est, partial)
        # the bracket assumes n^expo within 1 ulp; spot-check math.pow here
        e = float(expo)
        for n in [*range(1, 1201), *range(1201, 3 * 200 * 200 + 1, 997)]:
            assert abs(math.pow(n, e) - mpmath.mpf(n) ** expo) <= math.ulp(math.pow(n, e))


def test_constant_at_benchmark_scale():
    est = constant_c(2.0, 200)
    assert est.lo <= 5.940037494756796 <= est.hi
    assert est.hi - est.lo <= 1e-12
    assert abs(est.partial - 5.940037494756796) <= 1e-14


def test_count_query_validation():
    with pytest.raises(ValueError):
        count_Nst(Fraction(0), Fraction(1), Fraction(2))
    with pytest.raises(ValueError):
        count_Nst(2, 0, 5)


@pytest.mark.parametrize("s, t", [(0, 1), (2, 0), (-1, 1), (Fraction(1, 2), Fraction(-1, 3))])
def test_one_check_of_the_exponents(s, t):
    # every entry point reports a non-positive s or t with the same message
    calls = (
        lambda: count_Nst(s, t, 5),
        lambda: list(enumerate_points(s, t, 5)),
        lambda: convergence_report(s, t, [5], const_m_max=10),
        lambda: bm_exponents(s, t),
    )
    for call in calls:
        with pytest.raises(ValueError, match="s and t must be positive"):
            call()


def test_count_rejects_a_negative_bound():
    with pytest.raises(ValueError, match="B must be nonnegative"):
        count_Nst(2, 1, -1)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda x: count_Nst(2, 1, x), "B"),
        (lambda x: count_Nst(x, 1, 3), "s"),
        (lambda x: count_Nst(2, x, 3), "t"),
        (lambda x: le_count_detailed(x), "B"),
        (lambda x: next(enumerate_points(2, 1, x)), "B"),
        (lambda x: bm_exponents(x, 1), "s"),
        (lambda x: convergence_report(2, 1, [10, x], const_m_max=5), "B"),
    ],
)
def test_non_finite_arguments_are_refused_by_name(call, name, x):
    # Fraction(x) raises OverflowError for +-inf and a ValueError naming no
    # parameter for NaN; every entry point names the parameter instead
    with pytest.raises(ValueError, match=rf"^{name} must be a finite number, got {x!r}$"):
        call(x)


@pytest.mark.parametrize(
    "s, t, b",
    [(2, Fraction(1, 10**9 + 7), 2), (Fraction(1, 10**12), 1, 2), (2, 1, 1 + Fraction(1, 2**20000))],
)
def test_too_fine_queries_are_refused_before_any_power(s, t, b):
    # norm_cutoff would take 3^(L t) B^(2L) with L = 10^9 + 7 or 10^12, and
    # B^(2L) has 40000 bits in the last query
    for call in (lambda: count_Nst(s, t, b), lambda: list(enumerate_points(s, t, b))):
        with pytest.raises(ValueError, match="exact height comparison needs integers of about 10"):
            call()


def test_count_below_floor():
    assert count_Nst(2, 1, Fraction(99, 100)) == 0


def test_count_matches_enumeration():
    for (s, t, b) in ((2, 1, 8), (3, 1, 6), (3, 2, 4)):
        assert count_Nst(s, t, b) == len(list(enumerate_points(s, t, b)))


def test_count_matches_oracle_small():
    for (s, t, b) in ((2, 1, 5), (3, 1, 3), (3, 2, 3)):
        assert count_Nst(s, t, b) == oracle_count_points(s, t, b)


def test_fiber_sum_identity():
    # the global count is the sum over forms of per-fiber counts at the
    # separated threshold covol(L2) <= B^(1/t) covol(L1)^(1-s/t); for
    # (s, t) = (2, 1) that is covol2(L2) * covol2(L1) <= B^2 exactly
    from hilb2.lattice import count_primitive_form, quotient

    b = 8
    total = 0
    for f in canonical_forms(isqrt(norm_cutoff(height_query(Fraction(2), Fraction(1), Fraction(b))))):
        q = quotient(f)
        cv1 = f.norm2
        scaled = [[cv1 * x for x in row] for row in q.gram_int]
        n = count_primitive_form(scaled, b * b)
        assert n % 2 == 0
        total += n // 2
    assert total == count_Nst(2, 1, b)


def test_count_golden_values():
    # exact counts across both regimes, recorded before the empty-fiber prune
    golden = {
        (1, 1, 3): 225,
        (1, 1, 5): 937,
        (5, 2, 3): 39,
        (3, 1, 10): 5397,
        (3, 2, 10): 213,
        (2, 1, 7): 2005,
    }
    for (s, t, b), n in golden.items():
        assert count_Nst(s, t, b) == n, (s, t, b)


def test_count_regression_pins_at_larger_bounds():
    # regression pins, not an independent check: the values are the ones
    # the code has printed since the ROADMAP baseline, in both regimes; at
    # (2, 1, B) the (0, 0, 1) fiber's long rows dominate; an independent
    # count at this scale is still open (ROADMAP item 9)
    assert count_Nst(2, 1, 100) == 5939677
    assert count_Nst(2, 1, 400) == 380159569
    assert count_Nst(2, 1, 1000) == 5940041605
    assert count_Nst(1, 2, 24) == 2929
    assert count_Nst(2, 3, 32) == 397
    assert count_Nst(1, 1, 30) == 213853


@pytest.mark.parametrize(
    "s, t, b, n, reps",
    [(1, 2, 32, 5077, 8685), (1, 2, 48, 10621, 28570), (1, 1, 30, 213853, 3998),
     (2, 3, 64, 769, 128), (2, 1, 1000, 5940041605, 3459), (3, 2, 10**4, 6532621, 1262),
     (1, 3, 16, 913, 2090), (2, 1, 30, 160417, 28)],
)
def test_count_at_the_norm_cutoff_from_two_thirds_n(s, t, b, n, reps):
    # the cutoff n^s <= (3/2)^t B^2 keeps every point: the counts are those
    # the cutoff n^s <= 3^t B^2 gave, over fewer representatives
    s, t, b = Fraction(s), Fraction(t), Fraction(b)
    assert count_Nst(s, t, b) == n
    assert sum(1 for _ in _orbit_representatives(norm_cutoff(height_query(s, t, b)))) == reps


def _walk_by_m(s, t, b):
    """The orbit representatives of every shell M <= isqrt(norm_cutoff):
    the walk bounded by M alone."""
    m = isqrt(norm_cutoff(height_query(s, t, b)))
    return [(rep, h) for rep, h in _orbit_representatives(3 * m * m) if rep.M <= m]


def test_count_walks_only_the_forms_below_the_norm_cutoff(monkeypatch):
    # H^2 >= (2/3)^t n^s on every point, so at (2, 1, 30) only the 28
    # representatives with n <= 36 are opened, of the 55 with M <= 6; the
    # 13 non-empty fibers of the walk by M alone are all among them
    s, t, b = Fraction(2), Fraction(1), Fraction(30)
    opened = []

    def counting(ell, *args):
        n = fiber_point_count(ell, *args)
        opened.append((ell, n))
        return n

    monkeypatch.setattr(asymptotics, "fiber_point_count", counting)
    assert count_Nst(s, t, b) == 160417
    assert len(opened) == 28
    reps = _walk_by_m(s, t, b)
    by_m = [(rep, fiber_point_count(rep, max_covol2_I2(rep.norm2, height_query(s, t, b)))) for rep, _ in reps]
    assert len(by_m) == 55
    nonempty = {(rep, n) for rep, n in by_m if n}
    assert len(nonempty) == 13
    assert nonempty == {(rep, n) for rep, n in opened if n}
    # the point listing walks the same forms and lists the points of the
    # walk by M alone
    s, t, b = Fraction(2), Fraction(1), Fraction(10)
    forms = sorted(
        (ell for rep, _ in _walk_by_m(s, t, b) for ell in _orbit_forms(rep)),
        key=lambda f: f.triple,
    )
    listed = [z for f in forms for z in fiber_points(f, max_covol2_I2(f.norm2, height_query(s, t, b)))]
    assert list(enumerate_points(s, t, b)) == listed


def test_point_listing_opens_each_orbit_once(monkeypatch):
    # the cap, the prune and the first minimum are constant on an orbit, so
    # the listing computes t_max and reduces a quotient once per
    # representative: 28 caps and 19 reductions at (2, 1, 30), as many as
    # the count; both read the caps off the one stream in hilb
    from hilb2 import hilb

    calls = Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(hilb, "min_form_value")
    counted(hilb, "max_covol2_I2")
    assert sum(1 for _ in enumerate_points(2, 1, 30)) == 160417
    assert calls == {"max_covol2_I2": 28, "min_form_value": 19}
    calls.clear()
    assert count_Nst(2, 1, 30) == 160417
    assert calls == {"max_covol2_I2": 28, "min_form_value": 19}


class _SerialPool:
    """A stand-in for ``multiprocessing.Pool`` that records the requested
    size and runs ``starmap`` in this process: no worker is started."""

    sizes: list = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, fn, calls, chunksize=None):
        return [fn(*c) for c in calls]


def test_parallel_map_never_asks_for_more_workers_than_cpus(monkeypatch):
    monkeypatch.setattr(asymptotics, "Pool", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    assert count_Nst(2, 1, 5, threads=10**4) == 729
    report = le_count_detailed(10, threads=10**4)
    assert (report["split"], report["nonsplit"]) == (48, 9)
    assert all(n <= (os.cpu_count() or 1) for n in _SerialPool.sizes), _SerialPool.sizes
    assert all(n <= asymptotics.usable_cpus() for n in _SerialPool.sizes), _SerialPool.sizes
    # one call (the form (0, 0, 1)) needs no pool at any thread count
    monkeypatch.setattr(_SerialPool, "sizes", [])
    assert count_Nst(2, 1, 1, threads=2) == 9
    assert _SerialPool.sizes == []
    # the bound is the CPUs the process may use, not the machine's
    monkeypatch.setattr(asymptotics, "usable_cpus", lambda: 1)
    assert count_Nst(2, 1, 5, threads=2) == 729
    assert _SerialPool.sizes == []
    # with more CPUs than calls, the pool is as large as the call list
    monkeypatch.setattr(asymptotics, "usable_cpus", lambda: 64)
    assert asymptotics.parallel_map(pow, [(2, 3), (3, 2)], threads=10**4) == [8, 9]
    assert _SerialPool.sizes == [2]


def test_usable_cpus_reads_the_affinity_set(monkeypatch):
    # only reads what the platform reports; no worker is started here
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1}, raising=False)
    assert asymptotics.usable_cpus() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert asymptotics.usable_cpus() == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert asymptotics.usable_cpus() == 1


def test_count_scaling_law():
    assert count_Nst(2, 1, 7) == count_Nst(4, 2, 49)
    assert count_Nst(3, 2, 4) == count_Nst(6, 4, 16)
    assert count_Nst(2, 1, 7) == count_Nst(6, 3, 343)


def test_count_threads_invariant():
    # 8 orbit representatives at B = 10 and 28 at B = 30, split into four
    # chunks per worker, so both workers run
    for b in (10, 30):
        assert count_Nst(2, 1, b, threads=2) == count_Nst(2, 1, b, threads=1)


@pytest.mark.parametrize(
    "s, t, b",
    [(2, 1, 100), (3, 2, 1000), (1, 1, 30), (1, 2, Fraction(61, 3)), (2, 3, 300)],
)
def test_fiber_count_is_constant_on_signed_permutation_orbits(s, t, b):
    # every sign-canonical form with max |coordinate| <= 4, grouped by its
    # orbit representative (sorted absolute values); each orbit holds w / 2
    # sign-canonical forms, w the orbit size of ``_shell_weights``
    s, t, b = Fraction(s), Fraction(t), Fraction(b)
    counts = {}
    for f in canonical_forms(4):
        n = fiber_point_count(f, max_covol2_I2(f.norm2, height_query(s, t, b)))
        counts.setdefault(tuple(sorted(map(abs, f.triple))), []).append(n)
    halves = {
        (a, bb, m): w // 2
        for m, aa, bs, ws in _table_shells(4)
        for a, bb, w in zip(aa.tolist(), bs.tolist(), ws.tolist())
    }
    assert {rep: len(c) for rep, c in counts.items()} == halves
    for rep, c in counts.items():
        assert len(set(c)) == 1, (rep, c)
    assert sum(c[0] > 0 for c in counts.values()) > len(counts) // 2


def test_count_equals_the_sum_over_every_canonical_form():
    # the orbit sum against the full walk, in both regimes
    grid = [
        (2, 1, 1), (2, 1, 7), (2, 1, Fraction(31, 3)), (3, 1, 10), (5, 2, 3), (3, 2, 10),
        (1, 1, 5), (1, 2, 4), (2, 3, 6), (Fraction(3, 2), 2, 5),
    ]
    for s, t, b in grid:
        s, t, b = Fraction(s), Fraction(t), Fraction(b)
        forms = canonical_forms(isqrt(norm_cutoff(height_query(s, t, b))))
        full = sum(fiber_point_count(f, max_covol2_I2(f.norm2, height_query(s, t, b))) for f in forms)
        assert count_Nst(s, t, b) == full, (s, t, b)


def test_bm_exponents():
    assert bm_exponents(2, 1) == (Fraction(3), 0)
    assert bm_exponents(4, 2) == (Fraction(3, 2), 0)
    assert bm_exponents(3, 1) == (Fraction(3), 0)
    with pytest.raises(ValueError):
        bm_exponents(-1, 1)
    with pytest.raises(ValueError):
        bm_exponents(1, 0)


def test_convergence_report_shape_and_regime():
    rep = convergence_report(2, 1, [5, 10], const_m_max=20)
    assert rep["regime"] == "asymptotic"
    assert [row["B"] for row in rep["rows"]] == [5.0, 10.0]
    for row in rep["rows"]:
        assert row["N"] == count_Nst(2, 1, Fraction(row["B"]).limit_denominator())
        assert row["c_low"] <= row["c_high"]
        assert row["envelope"] > 0
    # s/t <= 1 is labeled as the upper-bound regime (no counting requested)
    rep = convergence_report(1, 1, [], const_m_max=10)
    assert rep["regime"] == "upper-bound regime"


def test_le_count_small_values():
    # B = 1: the three unordered pairs of coordinate points
    assert le_count(1) == 3
    rep = le_count_detailed(8)
    assert rep == {
        "schema_version": 1,
        "B": 8.0,
        "split": 48,
        "nonsplit": 9,
        "total": 57,
        "min_ratio": 1.0,
    }
    assert le_count(27) == 271


def test_le_count_below_one():
    assert le_count(Fraction(1, 2)) == 0


def test_le_count_nonreduced_excluded():
    # the pencil member at a=1 is nonreduced with anticanonical height
    # 14^3 = 2744; its fiber worker must skip it even when the bound passes it
    from fractions import Fraction as F

    from hilb2.asymptotics import _le_region_worker
    from hilb2.heights import classify, le_height2, PointClass
    from hilb2.verify import za_point

    za = za_point(1)
    assert classify(za) is PointClass.NONREDUCED
    b = F(2800)
    assert le_height2(za) ** 3 <= b * b
    n_split, n_nonsplit, _ = _le_region_worker(za.ell, iroot(floor(b * b), 3))
    # recount the same fiber including nonreduced points
    from hilb2.lattice import enumerate_form_le, quotient
    from hilb2.hilb import HilbPoint

    quo = quotient(za.ell)
    t_f = iroot(floor(8 * b * b * za.covol2_I1**3), 3)
    n_all = 0
    seen_za = False
    for x in enumerate_form_le(quo.gram_int, t_f):
        x = sign_canonical(x)
        if gcd(gcd(x[0], x[1]), x[2]) != 1:
            continue
        first = next(v for v in x if v)
        if first < 0:
            continue
        z = HilbPoint(za.ell, x)
        if le_height2(z) ** 3 <= b * b:
            n_all += 1
            if z == za:
                seen_za = True
    assert seen_za
    assert n_split + n_nonsplit < n_all


@pytest.mark.parametrize("b", [8, 27, Fraction(7999, 1000), Fraction(26999, 1000)])
def test_le_count_cutoff_and_region_are_sound(b):
    # rescan with the wider form cutoff iroot(64 (4B)^2, 6) and region
    # H_{0,3} <= 4B that the count used before both were proved; floor(B^2)
    # = 63 and 728 sit one below the cubes 64 and 729
    b = Fraction(b)
    n_split = n_nonsplit = 0
    ratios = []
    for ell in canonical_forms(iroot(floor(64 * (4 * b) ** 2), 6)):
        quo = quotient(ell)
        cv1 = ell.norm2
        for x in enumerate_form_le(quo.gram_int, iroot(floor(cv1**3 * (4 * b) ** 2), 3)):
            x = sign_canonical(x)
            if gcd(gcd(x[0], x[1]), x[2]) != 1 or sign_canonical(x) != x:
                continue
            z = HilbPoint(ell, x)
            d = discriminant(z)
            le2 = le_height2(z)
            if d == 0 or le2**3 > b * b:
                continue
            if is_perfect_square(d):
                n_split += 1
            else:
                n_nonsplit += 1
            ratios.append(le2**3 * cv1**3 / Fraction(z.covol2_I2) ** 3)
    rep = le_count_detailed(b)
    assert (rep["split"], rep["nonsplit"]) == (n_split, n_nonsplit)
    assert rep["min_ratio"] == float(min(ratios)) ** 0.5


def test_le_count_north_star_fixed_point():
    assert le_count_detailed(1000) == {
        "schema_version": 1,
        "B": 1000.0,
        "split": 13194,
        "nonsplit": 7483,
        "total": 20677,
        "min_ratio": 0.5510373445332432,
    }


def test_le_count_threads_invariant():
    # 36 orbit representatives at B = 300 and 102 at B = 1000, split into
    # four chunks per worker, so both workers run
    for b in (300, 1000):
        assert le_count_detailed(b, threads=2) == le_count_detailed(b, threads=1)


def _kept_forms(bound: Fraction) -> list:
    """Every sign-canonical form with n^3 <= B^2: the full walk."""
    b2 = bound * bound
    return [f for f in canonical_forms(iroot(floor(b2), 6)) if f.norm2**3 <= b2]


def _orbit_representative(f) -> tuple[int, int, int]:
    return tuple(sorted(map(abs, f.triple)))


def test_le_region_worker_is_constant_on_orbits():
    # every kept form at B = 1000 scans to its representative's exact triple
    bound = Fraction(1000)
    kept = _kept_forms(bound)
    x = iroot(floor(bound * bound), 3)
    reps = {f.triple: (f, h) for f, h in _orbit_representatives(x)}
    assert x == 100 and len(kept) == 1729 and len(reps) == 102
    assert Counter(_orbit_representative(f) for f in kept) == {t: h for t, (_, h) in reps.items()}
    want = {t: _le_region_worker(f, x) for t, (f, _) in reps.items()}
    for f in kept:
        assert _le_region_worker(f, x) == want[_orbit_representative(f)], f


def _full_walk_le_count(bound: Fraction) -> dict:
    """``le_count_detailed`` as it was before the orbit walk: a region scan
    per kept form and the pair count over their norms, one per form."""
    x = iroot(floor(bound * bound), 3)
    kept = _kept_forms(bound)
    split_pairs = _split_pair_count([(f.norm2, 1) for f in kept], x)
    results = [_le_region_worker(f, x) for f in kept]
    n_split = sum(r[0] for r in results)
    n_nonsplit = sum(r[1] for r in results)
    ratios = [r[2] for r in results if r[2] is not None]
    assert n_split == split_pairs
    return {
        "schema_version": 1,
        "B": float(bound),
        "split": n_split,
        "nonsplit": n_nonsplit,
        "total": n_split + n_nonsplit,
        "min_ratio": float(min(ratios)) ** 0.5 if ratios else None,
    }


@pytest.mark.parametrize(
    "b", [1, Fraction(7, 3), 8, 27, 100, Fraction(1000, 7), 300, 1000, Fraction(7999, 1000), Fraction(26999, 1000)]
)
def test_le_count_equals_the_full_walk(b):
    b = Fraction(b)
    assert le_count_detailed(b) == _full_walk_le_count(b)


def _reference_split_pair_count(bound: Fraction) -> int:
    """The pair count with its own walk, as it was before it read the region
    scan's forms: the primitive sign-canonical (x, y, z) with n^3 <= B^2 from
    the box max |coordinate| <= isqrt(iroot(B^2, 3)), then the same sweep."""
    b2 = bound * bound
    num, den = b2.numerator, b2.denominator
    nmax = iroot(num // den, 3)
    if nmax < 1:
        return 0
    box = isqrt(nmax)
    rng = range(-box, box + 1)
    norms = []
    for x in range(0, box + 1):
        for y in rng:
            for z in rng:
                if gcd(x, y, z) != 1 or sign_canonical((x, y, z)) != (x, y, z):
                    continue
                n = x * x + y * y + z * z
                if n <= nmax:
                    norms.append(n)
    norms.sort()
    count = 0
    j = len(norms) - 1
    for i, ni in enumerate(norms):
        while j > i and (ni * norms[j]) ** 3 * den > num:
            j -= 1
        if j <= i:
            break
        count += j - i
    return count


def _orbit_pair_count(bound: Fraction) -> int:
    """``_split_pair_count`` over the norm multiplicities that
    ``le_count_detailed`` reads off the orbit representatives."""
    x = iroot(floor(bound * bound), 3)
    norms = Counter()
    for f, h in _orbit_representatives(x):
        norms[f.norm2] += h
    return _split_pair_count(norms.items(), x)


def test_split_pair_count_over_the_kept_forms_matches_the_box_walk():
    bounds = [Fraction(b) for b in range(1, 301)]
    bounds += [Fraction(7, 3), Fraction(27, 2), Fraction(1000, 7), Fraction(3**6 + 1, 3), Fraction(4097, 64)]
    bounds += [Fraction(7999, 1000), Fraction(26999, 1000)]
    for b in bounds:
        want = _reference_split_pair_count(b)
        kept = Counter(f.norm2 for f in _kept_forms(b))
        assert _split_pair_count(kept.items(), iroot(floor(b * b), 3)) == want, b
        assert _orbit_pair_count(b) == want, b
    assert _orbit_pair_count(Fraction(10**3)) == _reference_split_pair_count(Fraction(10**3)) == 13194


def test_split_pair_count_out_to_a_million():
    # ROADMAP item 7: the local slope d(N / B) / d log B of the pair count
    # tends to kappa^2 / 2 = 2 pi^2 / (9 zeta(3)^2), about 1.518 (derivation
    # in the ``_split_pair_count`` docstring)
    counts = [_orbit_pair_count(Fraction(10**k)) for k in range(3, 7)]
    assert counts == [13194, 168438, 2023422, 23723856]
    per_b = [n / 10**k for n, k in zip(counts, range(3, 7))]
    slopes = [(y - x) / math.log(10) for x, y in zip(per_b, per_b[1:])]
    half_kappa2 = 2 * math.pi**2 / (9 * 1.2020569031595942**2)
    assert abs(half_kappa2 - 1.518) < 1e-3
    assert all(abs(slope - half_kappa2) < 0.08 for slope in slopes), slopes


def _reference_le_region_worker(ell, bound):
    """The fiber scan before the integer rewrite of ``_le_region_worker``: a
    validated HilbPoint per canonical vector, its discriminant and Le
    Rudulier height through the heights layer, and Fraction comparisons."""
    quo = quotient(ell)
    cv1 = ell.norm2
    b2 = bound * bound
    t_f = iroot(floor(8 * b2 * cv1**3), 3)
    n_split = 0
    n_nonsplit = 0
    min_ratio_sq = None
    for x in enumerate_form_le(quo.gram_int, t_f):
        x = sign_canonical(x)
        if gcd(*x) != 1:
            continue
        z = HilbPoint(ell, x)
        cv2 = z.covol2_I2
        d = discriminant(z)
        if d == 0:
            continue
        assert abs(d) * cv1 * cv1 <= 4 * cv2
        le2 = le_height2(z)
        if le2**3 <= b2:
            if is_perfect_square(d):
                n_split += 1
            else:
                n_nonsplit += 1
            ratio_sq = le2**3 * cv1**3 / Fraction(cv2) ** 3
            assert 8 * ratio_sq >= 1
            if min_ratio_sq is None or ratio_sq < min_ratio_sq:
                min_ratio_sq = ratio_sq
    return n_split, n_nonsplit, min_ratio_sq


@pytest.mark.parametrize("b", [100, 300, 27, Fraction(26999, 1000)])
def test_le_region_worker_matches_reference_scan(b):
    # the reference scans H_{0,3}^2 <= 8 B^2 and tests H^6 <= B^2 in
    # Fractions; the worker reads only X = iroot(floor(B^2), 3)
    bound = Fraction(b)
    b2 = bound * bound
    forms = [f for f in canonical_forms(iroot(floor(b2), 6)) if f.norm2**3 <= b2]
    assert forms
    x = iroot(floor(b2), 3)
    for ell in forms:
        assert _le_region_worker(ell, x) == _reference_le_region_worker(ell, bound), ell


def test_le_count_scans_the_region_of_x(monkeypatch):
    # at B = 100, X = iroot(10^4, 3) = 21: every fiber of norm n is scanned
    # on covol2_I2 <= 2 n X = 42 n, inside the 8 B^2 region
    # iroot(8 n^3 10^4, 3) (43 n at n = 1)
    scanned = []
    worker = asymptotics._le_region_worker

    def recording_worker(ell, *args):
        scanned.append([ell.norm2])
        return worker(ell, *args)

    def recording_scan(gram, t):
        scanned[-1].append(t)
        return enumerate_form_le(gram, t)

    monkeypatch.setattr(asymptotics, "_le_region_worker", recording_worker)
    monkeypatch.setattr(asymptotics, "enumerate_form_le", recording_scan)
    assert le_count_detailed(100)["total"] == 1279
    assert all(t == 2 * n * 21 for n, t in scanned), scanned
    assert len(scanned) == len(list(_orbit_representatives(21))) == 15


# One break per check of the anticanonical count, each applied by a
# monkeypatch in a ``python -O`` child, which drops bare asserts: a closed
# form that is too small breaks the height-comparison theorem, one that is too
# large loses split points, and a fiber scanned with the quotient Gram of
# another form breaks the discriminant bound.
_BROKEN = {
    "height-comparison theorem": "asymptotics.le_height2_gram = lambda *a: closed(*a) // 4",
    "split counts disagree": "asymptotics.le_height2_gram = lambda *a: 2 * closed(*a)",
    "disc bound": "asymptotics.quotient = lambda ell: quotient(LinearForm(1, 0, 0))",
}


@pytest.mark.parametrize("check", sorted(_BROKEN))
def test_le_count_checks_survive_python_O(check):
    script = "\n".join(
        [
            "import sys",
            "from hilb2 import asymptotics",
            "from hilb2.heights import le_height2_gram as closed",
            "from hilb2.lattice import LinearForm, quotient",
            "assert sys.flags.optimize == 0",  # fails unless -O drops bare asserts
            "print('optimize', sys.flags.optimize)",
            _BROKEN[check],
            "try:",
            "    asymptotics.le_count_detailed(100)",
            "except AssertionError as exc:",
            "    print('raised', exc)",
        ]
    )
    src = str(Path(hilb2.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    r = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("optimize 1\nraised "), r.stdout
    assert check in r.stdout, r.stdout


# The same for the two checks of the count path, in ``hilb``: a first minimum
# that is too small breaks the bound 2 n^2 m0 >= covol2_product, and an odd
# primitive count cannot come from +-x pairs.
_BROKEN_COUNT = {
    "first-minimum bound": "hilb.min_form_value = lambda quo: 0",
    "odd primitive count": "hilb.count_primitive_form = lambda *a, **k: 1",
}


@pytest.mark.parametrize("check", sorted(_BROKEN_COUNT))
def test_count_checks_survive_python_O(check):
    script = "\n".join(
        [
            "import sys",
            "from hilb2 import asymptotics, hilb",
            "assert sys.flags.optimize == 0",  # fails unless -O drops bare asserts
            "print('optimize', sys.flags.optimize)",
            _BROKEN_COUNT[check],
            "try:",
            "    asymptotics.count_Nst(2, 1, 10)",
            "except AssertionError as exc:",
            "    print('raised', exc)",
        ]
    )
    src = str(Path(hilb2.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    r = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("optimize 1\nraised "), r.stdout
    assert check in r.stdout, r.stdout


def test_le_rudulier_prediction_constant():
    # 2 (24 + pi^2) / (3 zeta(3)^2) = 15.62675529119955659... (mpmath, 30 digits)
    assert abs(le_rudulier_prediction(1000.0) / (1000.0 * 6.907755278982137) - 15.626755291199557) < 1e-12
