"""Counting function, leading constant with certified brackets, growth
exponents, and the anticanonical-height count.

The leading constant of the counting function is a sum over primitive
integer triples (both signs) of

    (a^2 + b^2 + c^2)^(3/2 - (3/2) ratio) / covol2_product(a, b, c)

scaled by pi / (3 zeta(3)).  The partial sum over the shells
max |coordinate| <= M_max takes one term per orbit of the 48 signed
coordinate permutations, weighted by the orbit size, and an exact zero for
each pair not coprime to M (``_pair_tables``); the terms are added exactly
by error-free extraction and rounded once (``_exact_sum``).  The tail is
bounded termwise using the lower covolume sandwich (2/3)(a^2+b^2+c^2)^3 and
a 26 M^2 shell count.  The bracket [partial, partial + tail_bound] is widened
by a per-term rounding budget and rounded outward, so it is certified.
"""

from __future__ import annotations

import math
import operator
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from multiprocessing import Pool
from typing import Callable, Iterable, Sequence

import numpy as np

from .constants import PI, PI_BRACKET, ZETA3, ZETA3_BRACKET
from .heights import is_perfect_square, le_height2_gram
from .hilb import (
    _canonical_orbit_size,
    _capped_orbits,
    _orbit_representatives,
    fiber_point_count,
    height_query,
    nonnegative_bound,
    positive_exponents,
)
from .lattice import (
    LinearForm,
    dot,
    enumerate_form_le,
    iroot,
    kernel_basis_of,
    quotient,
)
from math import floor, gcd


@dataclass(frozen=True)
class ConstantEstimate:
    """Certified bracket for the leading constant at ratio = s/t."""

    ratio: float
    M_max: int
    partial: float
    tail_bound: float

    @property
    def lo(self) -> float:
        return self.partial

    @property
    def hi(self) -> float:
        return self.partial + self.tail_bound


# float64 unit roundoff, and a bound on the absolute error one term can pick
# up when its value underflows (see the budget in ``constant_c``)
_U = Fraction(1, 2**53)
_UNDERFLOW = Fraction(1, 2**1067)


def _exact_sum(arrays: Iterable[np.ndarray]) -> float:
    """The correctly rounded sum of all entries (nonnegative and finite) of
    the float64 arrays, bit-identical to ``math.fsum`` in any order, by
    error-free extraction (``ExtractVector`` of Rump, Ogita and Oishi, SIAM
    J. Sci. Comput. 31(1), 2008) over blocks of at most 2^14 entries or one
    array.  A pass over n entries p, max |p| < 2^e, takes sigma = 2^(e + b),
    b = bit_length(2n), so 2n |p| < sigma and p + sigma rounds into [sigma
    / 2, 2 sigma] onto multiples of g = 2^(e + b - 53): q = (p + sigma) -
    sigma is exact (Sterbenz), p rounded to a grid through 0, so p - q is
    exact, |p - q| <= min(|p|, g), and the partial sums of the q are
    multiples of g below 2^(e + b - 1) + n g <= 2^53 g: ``q.sum()`` is exact.
    It goes into a Python int of 2^-1074 units; the next pass takes the
    remainders, which may be negative.  A pass lowers e by 52 - b or more,
    one with sigma <= 2^-1022 leaves none, and entries >= 2^960 (where sigma
    could overflow) are summed apart, scaled by 2^-1000: a part takes at
    most 2 + (e + 1022 + b) / (52 - b) passes (57 for n < 2^15; 2-3 at ratio 2)."""

    def extracted(p, k):  # the sum of p 2^(k - 1074), in units of 2^-1074
        total = 0
        while a := max(p.max(initial=0.0), -p.min(initial=0.0)):
            if a >= 2.0**960:
                big = p >= 2.0**960
                return extracted(p[~big], k) + extracted(p[big] * 2.0**-1000, k + 1000)
            sigma = math.ldexp(1.0, math.frexp(a)[1] + (2 * len(p)).bit_length())
            q = p + sigma
            q -= sigma
            n, d = float(q.sum()).as_integer_ratio()
            total += (n << k) // d
            p = np.subtract(p, q, out=q)  # the remainders, in q's array
        return total

    total, block = 0, []
    for x in chain(arrays, [None]):  # None flushes the last block
        if x is None or sum(map(len, block)) + len(x) > 2**14:
            total += extracted(np.concatenate([np.empty(0), *block]), 1074)
            block = []
        block.append(x)
    return total / (1 << 1074)  # correctly rounded


def _pair_tables(m_max: int) -> tuple[np.ndarray, ...]:
    """Over the pairs 0 <= a <= b <= m_max, ordered by b so that shell M is a
    prefix: s = a^2 + b^2, k0 = s (s^2 - p), k1 = 2 s^2 + p (p = a^2 b^2),
    gcd(a, b), and the orbit sizes 2h of (a, b, M) for b < M and b = M; the
    representatives of ``hilb._orbit_representatives`` have nonzero weight."""
    bb, aa = np.tril_indices(m_max + 1)
    s, p = aa * aa + bb * bb, (aa * bb) ** 2
    w = [(_canonical_orbit_size(aa, bb, m) << 1).astype(np.int8) for m in (m_max + 1, bb)]
    return s, s * (s * s - p), 2 * s * s + p, np.gcd(aa, bb).astype(np.int32), *w


def _shell_weights(tables: tuple[np.ndarray, ...], m: int) -> np.ndarray:
    """The orbit sizes 2h of the pairs of shell m, 0 where gcd(a, b, m) > 1."""
    gab, w_inner, w_edge = tables[3:]
    j, k = m * (m + 1) // 2, (m + 1) * (m + 2) // 2  # pairs with b < m, b <= m
    w = (np.gcd(np.arange(m + 1), m) == 1).view(np.int8).take(gab[:k])  # gcd(a, b) <= m
    w[:j] *= w_inner[:j]
    w[j:] *= w_edge[j:k]
    return w


def _shell_terms(powers: np.ndarray, tables: tuple[np.ndarray, ...], m: int) -> np.ndarray:
    """w * n^expo / covol2_product over shell m, given powers[n - 1] =
    n^expo, with covol2_product = ((2 s + m^2) m^2 + k1) m^2 + k0 <= 20 m^6."""
    s, k0, k1 = tables[:3]
    k, m2 = (m + 1) * (m + 2) // 2, m * m
    terms = powers[m2 - 1 :].take(s[:k])
    terms /= ((s[:k] * 2 + m2) * m2 + k1[:k]) * m2 + k0[:k]
    terms *= _shell_weights(tables, m)
    return terms


def _orbit_sum(expo: float, m_max: int) -> float:
    """The correctly rounded sum (``_exact_sum``) of w * n^expo /
    covol2_product over the orbit representatives of shells 1..m_max: equal
    to ``math.fsum`` of the computed terms, whatever their order.

    n^expo comes from one table over the 3 m_max^2 possible norms,
    powers[n - 1], filled in place (one array) by ``np.float_power``.  Its
    only loops are dd->d, gg->g, DD->D and GG->G, and the float64 loop calls
    C's pow per element, the libm call ``math.pow`` makes for finite
    arguments, so each entry is bit-identical to ``math.pow(n, expo)``.
    ``np.power`` is not used: on a float64 array it may dispatch to a SIMD
    loop (with numpy 2.4 on an AVX-512 CPU, about 6500 of the 120000
    entries at m_max = 200 differ from ``math.pow``), whose error the budget
    in ``constant_c`` does not cover."""
    tables = _pair_tables(m_max)  # first: its temporaries are gone before the powers
    powers = np.arange(1, 3 * m_max * m_max + 1, dtype=np.float64)
    np.float_power(powers, expo, out=powers)
    return _exact_sum(_shell_terms(powers, tables, m) for m in range(1, m_max + 1))


def _to_float(x: Fraction, toward: float) -> float:
    """The float next to x on the side of ``toward`` (-inf or +inf)."""
    f = float(x)  # correctly rounded
    if (Fraction(f) > x) if toward < 0 else (Fraction(f) < x):
        f = math.nextafter(f, toward)
    return f


def constant_c(ratio: float, m_max: int) -> ConstantEstimate:
    """Certified bracket [lo, hi] of the leading constant at ``ratio``.

    The partial sum runs over the shells M = 1..m_max, one term per orbit
    representative weighted by its orbit size (``_pair_tables``), and
    ``lo`` is that sum rounded outward.  ``hi`` adds the tail bound: each
    term is <= 1.5 M^(-3-3r) by the covolume sandwich covol2_product >=
    (2/3) n^3, a shell holds <= 26 M^2 vectors, and comparing with the
    integral gives (13 / r) m_max^(-3r).  The prefactor pi / (3 zeta(3)) is
    enclosed with ``PI_BRACKET`` and ``ZETA3_BRACKET``.

    Rounding budget per term t = w * (n^e / P), u = 2^-53:
      * n < 2^53 converts exactly, and so does P <= 20 M^6 for
        m_max <= 276; above that the conversion costs u;
      * n^e: ``_orbit_sum`` calls C's pow through ``np.float_power``'s
        float64 loop (not ``np.power``, whose SIMD loop is another
        function), and glibc (2.28 and later) and musl document pow below
        0.6 ulp; the budget allows 1 ulp (2u).  If
        1.5 - 1.5 r itself rounds, the exponent error de adds
        exp(|de| ln n) - 1 <= 2 |de| ln(3 m_max^2), which r <= 1e6 keeps
        below 1e-8;
      * the division and the product with w cost u each (w <= 48 is exact);
      * a term that underflows picks up at most 2^-1067 in absolute value;
        there are C(m_max + 3, 3) - 1 < (m_max + 1)^3 entries, and those of
        weight 0 are exact zeros, which carry neither error.
    ``_exact_sum`` adds the terms exactly and rounds once, correctly, so
    the float sum is within u of the sum of the terms.
    The bracket is widened by all of these, in exact rational arithmetic,
    and converted to floats with outward rounding.  It is certified for the
    float value of ``ratio``.  ValueError, before the sum, for a non-integral
    M_max or a tail bound beyond the float range (ratio below 7.2e-308).
    """
    ratio = float(ratio)
    if not 0 < ratio <= 1e6:
        raise ValueError("ratio must lie in (0, 1e6]")
    try:
        m_max = operator.index(m_max)
    except TypeError:
        raise ValueError(f"M_max must be an integer, not {m_max!r}") from None
    if not 1 <= m_max <= 500:
        raise ValueError("M_max out of supported range")
    (pi_lo, pi_hi), (z_lo, z_hi) = PI_BRACKET, ZETA3_BRACKET
    k_lo, k_hi = pi_lo / (3 * z_hi), pi_hi / (3 * z_lo)
    # the 1e-9 covers the float rounding of the tail's factors, 2^-1020 their underflow
    tail = _to_float(k_hi, math.inf) * (13.0 / ratio) * m_max ** (-3.0 * ratio)
    tail = tail * (1.0 + 1e-9) + 2.0**-1020
    # only 13 / ratio overflows; a finite tail is < 0.9 float max, so hi is finite
    if tail == math.inf:
        raise ValueError(f"the tail bound at ratio {ratio!r} exceeds the float range")
    expo = 1.5 - 1.5 * ratio
    total = Fraction(_orbit_sum(expo, m_max))
    # relative budget per term (docstring), and the one rounding of the sum
    de = abs(Fraction(expo) - Fraction(3, 2) * (1 - Fraction(ratio)))
    rel = (1 + 2 * _U) * (1 + _U) ** 2 * (1 + 2 * de * Fraction(math.log(3 * m_max * m_max)))
    if 20 * m_max**6 >= 2**53:
        rel /= 1 - _U
    eps = rel - 1
    terms_abs = (m_max + 1) ** 3 * _UNDERFLOW  # more than the number of entries
    part_lo = (total / (1 + _U) - terms_abs) / (1 + eps)
    part_hi = (total / (1 - _U) + terms_abs) / (1 - eps)
    lo = _to_float(k_lo * part_lo, -math.inf)
    hi = _to_float(k_hi * part_hi + Fraction(tail), math.inf)
    # lo + tail_bound rounds to a float >= hi, since hi is a float
    tail_bound = _to_float(Fraction(hi) - Fraction(lo), math.inf)
    return ConstantEstimate(ratio=ratio, M_max=m_max, partial=lo, tail_bound=tail_bound)


def usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity set where
    the platform has one (so ``taskset -c 1`` gives 1), else
    ``os.cpu_count()``, else 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def parallel_map(
    fn: Callable, calls: Sequence[tuple], threads: int, chunksize: int | None = None
) -> list:
    """[fn(*c) for c in calls], in order; over min(threads, len(calls),
    ``usable_cpus()``) worker processes when that is above 1 (``fn`` and
    the calls must pickle).  The default chunksize gives each worker four
    chunks."""
    workers = min(threads, len(calls), usable_cpus())
    if workers <= 1:
        return [fn(*c) for c in calls]
    if chunksize is None:
        chunksize = -(-len(calls) // (4 * workers))
    with Pool(workers) as pool:
        return pool.starmap(fn, calls, chunksize=chunksize)


def count_Nst(
    s: float | Fraction, t: float | Fraction, bound: float | Fraction, *, threads: int = 1
) -> int:
    """Exact number of points of height at most ``bound``.

    Sums exact per-fiber counts over ``_capped_orbits``, one fiber per orbit
    of the signed coordinate permutations (``_orbit_representatives`` proves
    the count constant on an orbit): the count of the representative
    (a, b, M) is weighted by h, the number of sign-canonical forms in its
    orbit.

    ``threads`` distributes the (form, t_max) calls, one per
    representative; the weighted integers are reduced in the parent in
    representative order, so the result is independent of the thread count.
    """
    capped = list(_capped_orbits(height_query(s, t, bound)))
    counts = parallel_map(fiber_point_count, [(f, t_max) for f, _, t_max in capped], threads)
    return sum(h * c for (_, h, _), c in zip(capped, counts))


def bm_exponents(s: float | Fraction, t: float | Fraction) -> tuple[Fraction, int]:
    """Predicted growth exponents (alpha, beta) = (3/t, 0) for positive s, t."""
    _, t = positive_exponents(s, t)
    return Fraction(3) / t, 0


def convergence_report(
    s: float | Fraction,
    t: float | Fraction,
    b_values: Sequence[float],
    *,
    const_m_max: int = 120,
    threads: int = 1,
) -> dict:
    """Table comparing exact counts against the predicted power law.

    Each row holds (B, N, c_low, c_high, prediction, rel_dev, envelope) with
    prediction = c_mid * B^(3/t), rel_dev = N / prediction - 1 (None when the
    prediction is 0) and envelope = B^(2/t) + B^(3/s) log* B, the shape of the
    error terms.  For s/t <= 1 the report is labeled as an upper bound
    regime.
    """
    sf, tf = positive_exponents(s, t)
    ratio = float(sf / tf)
    regime = "asymptotic" if ratio > 1 else "upper-bound regime"
    est = constant_c(ratio, const_m_max)
    c_mid = 0.5 * (est.lo + est.hi)
    rows = []
    for b in b_values:
        n = count_Nst(sf, tf, b, threads=threads)
        pred = c_mid * float(b) ** (3.0 / float(tf))
        rel_dev = n / pred - 1.0 if pred else None
        envelope = float(b) ** (2.0 / float(tf)) + float(b) ** (3.0 / float(sf)) * max(
            1.0, math.log(max(float(b), 1.0))
        )
        rows.append(
            {
                "B": float(b),
                "N": n,
                "c_low": est.lo,
                "c_high": est.hi,
                "prediction": pred,
                "rel_dev": rel_dev,
                "envelope": envelope,
            }
        )
    return {
        "schema_version": 1,
        "s": float(sf),
        "t": float(tf),
        "regime": regime,
        "const_M_max": const_m_max,
        "rows": rows,
    }


# ---------------------------------------------------------------------------
# anticanonical-height count (Le Rudulier's normalization)
# ---------------------------------------------------------------------------

# The count is taken at the anticanonical scale: a point qualifies when the
# cube of its Le Rudulier height H is at most B.  H^2 is an integer (see
# ``heights.le_height2``), so every bound of the count is one integer,
# X = iroot(floor(B^2), 3), the largest X with X^3 <= B^2.  With n =
# covol2_I1 = a^2 + b^2 + c^2:
#
# * Height test.  H^6 <= B^2 <=> H^6 <= floor(B^2) <=> H^2 <= X.
# * Form cutoff.  H^2 >= n for every point that is not nonreduced, so only
#   forms with n <= X (hence M^2 <= X) can hold a counted point.
# * Region.  covol2_I2 / n lies in [H^2 / 3, 2 H^2], so every counted point
#   has covol2_I2 <= 2 n H^2 <= 2 n X, and ratio^2 = H^6 n^3 / covol2_I2^3
#   >= 1/8 (8 H^6 n^3 >= covol2_I2^3 <=> 2 n H^2 >= covol2_I2), which the
#   scan checks on every counted point.
#   Proof: covol2_I2 = covol2_product * dist^2(q, l V) in the monomial-
#   coefficient norm.  That norm lies between 1 and sqrt(2) times the
#   Frobenius norm of the symmetric matrix, so dist^2 lies between dist_F^2
#   and 2 dist_F^2.  The Frobenius distance is the Frobenius norm of the
#   restriction of q to the plane l^perp (see ``hilb.norm_cutoff``), whose
#   squared eigenvalues sum to dist_F^2.  They are the eigenvalues of
#   G^-1 Qbar (G = Gram(e, f), det G = n), with trace L / n and determinant
#   -D / 4n, so 2 n^2 dist_F^2 = 2 L^2 + n D.  That lies in [H^2, 2 H^2]:
#   for D > 0 because H^2 = L^2 + n D, for D <= 0 because H^2 = L^2 >=
#   n |D|.  With 2 n^3 / 3 <= covol2_product <= n^3 this gives
#   n H^2 / 3 <= covol2_I2 <= 2 n H^2.  Since also 2 L^2 + n D >= n |D|,
#   the same steps give criterion 8's discriminant bound with 3 for 4:
#   |D| n^2 <= 3 covol2_I2.
# * Pair count.  (u v)^3 <= B^2 <=> u v <= X for squared heights u, v.
# The independent split-pair count cross-checks both on the split locus.


def _split_pair_count(norms: Iterable[tuple[int, int]], x: int) -> int:
    """#{unordered pairs of distinct rational plane points with product of
    Euclidean heights cubed <= bound^2}, exactly, given x = iroot(floor(
    bound^2), 3) and the squared heights of the points with norm <= x (the
    primitive sign-canonical triples, which are the forms the region scan
    keeps) as (norm, multiplicity) pairs.  A norm may appear in several
    pairs.

    With c_v the multiplicity of norm v, the count is the sum of C(c_v, 2)
    over v^2 <= x and of c_u c_v over u < v with u v <= x (the notes
    above): one sweep over the sorted norms with prefix sums of the
    multiplicities.

    Informational: the primitive sign-canonical v with |v| <= X number
    kappa X^3 + O(X^2), kappa = 2 pi / (3 zeta(3)) (half the primitive
    vectors of the ball).  Summing kappa (Y / |v|)^3 over those v, with
    density 3 kappa r^2 dr, gives 3 kappa^2 Y^3 log Y ordered pairs with
    |v| |w| <= Y.  At Y = B^(1/3) the unordered pairs number
    (kappa^2 / 2) B log B + O(B), about 1.518 B log B.
    """
    norms = sorted(norms)
    prefix = [0, *accumulate(c for _, c in norms)]  # prefix[k]: multiplicities of norms[:k]
    count = 0
    j = len(norms) - 1
    for i, (v, c) in enumerate(norms):
        while j >= i and v * norms[j][0] > x:
            j -= 1
        if j < i:
            break
        count += c * (c - 1) // 2 + c * (prefix[j + 1] - prefix[i + 1])
    return count


def _le_region_worker(ell: LinearForm, x: int) -> tuple[int, int, Fraction | None]:
    """Scan one fiber of the anticanonical region covol2_I2 <= 2 n x, for
    x = iroot(floor(B^2), 3) (the notes above).

    Returns (split_count, nonsplit_count, min ratio^2 over counted points)
    where ratio = H_Le^3 / H_{0,3}.  Each enumerated coset vector qbar
    costs integer operations only: with n = covol2_I1 and covol2_I2 =
    qbar^T gram_int qbar, a point counts when H_Le^2 <= x.  Its ratio^2 is
    (H_Le^2 n / covol2_I2)^3; the smallest base is kept as an integer pair
    and cubed once, when the fiber is done.  The two proved bounds of the
    notes are checked on every point, raised explicitly so that python -O
    keeps them.

    ``enumerate_form_le`` yields one vector of each pair +-qbar, and the
    scan needs no sign test: primitivity, D, covol2_I2 and H_Le^2 are all
    even in qbar, so each vector stands for the point whose qbar is its
    sign-canonical representative.
    """
    (g00, g01, g02), (_, g11, g12), (_, _, g22) = gram = quotient(ell).gram_int
    e, f = kernel_basis_of(ell)
    ee, ef, ff = dot(e, e), dot(e, f), dot(f, f)
    n = ell.norm2
    n2 = n * n
    n_split = 0
    n_nonsplit = 0
    min_num, min_den = 0, 0  # min ratio = min_num / min_den once min_den > 0
    for qbar in enumerate_form_le(gram, 2 * n * x):
        a, b, c = qbar
        if gcd(a, b, c) != 1:
            continue
        d = b * b - 4 * a * c
        if d == 0:
            continue
        # qbar^T gram_int qbar (``QuotientLattice.covol2_with``), inlined
        # because it runs on every scanned vector
        cv2 = g00 * a * a + g11 * b * b + g22 * c * c + 2 * (g01 * a * b + g02 * a * c + g12 * b * c)
        # criterion 8's discriminant bound (proved in the notes above)
        if abs(d) * n2 > 4 * cv2:
            raise AssertionError(f"disc bound violated at {ell.triple}, {qbar}")
        h2 = le_height2_gram(ee, ef, ff, n, qbar)
        if h2 > x:
            continue
        if is_perfect_square(d):
            n_split += 1
        else:
            n_nonsplit += 1
        r_num = h2 * n
        if cv2 > 2 * r_num:
            raise AssertionError(f"height-comparison theorem violated at {ell.triple}, {qbar}")
        if min_den == 0 or r_num * min_den < min_num * cv2:
            min_num, min_den = r_num, cv2
    return n_split, n_nonsplit, Fraction(min_num, min_den) ** 3 if min_den else None


def le_count_detailed(bound: float | Fraction, *, threads: int = 1) -> dict:
    """Exact anticanonical-height count with diagnostics.

    Counts points that are not nonreduced and satisfy le_height^3 <= B.
    Every stage reads the one integer X = iroot(floor(B^2), 3): a point
    counts when H^2 <= X (the notes above ``_split_pair_count``).  Split
    points are counted twice independently (pair enumeration of primitive
    integer solutions, and the region scan); a mismatch raises
    AssertionError, also under python -O.  The nonsplit side comes from the
    region scan, whose form cutoff n <= X and search region covol2_I2 <=
    2 n X are proved in those notes.

    One fiber is scanned per orbit of the signed coordinate permutations:
    the representatives (a, b, M), 0 <= a <= b <= M, primitive with
    n <= X (``_orbit_representatives``), each weighted by h, the number of
    sign-canonical forms in its orbit.  The scan is constant on an orbit,
    since the orbit keeps primitivity, the class, H, H_{0,3} and the ratio
    H^3 / H_{0,3} (the proof is on ``_orbit_representatives``).  The minimum
    ratio is taken over the representatives.

    The pair count reads the same triples as points: the multiset of their
    norms, norm n with multiplicity the sum of h over the representatives
    of norm n.  So a lost or wrongly weighted representative does not
    cancel out: it changes the region count by h times the split points on
    its line, but the pair count by h times the pairs through its point.
    """
    b = nonnegative_bound(bound)
    x = iroot(floor(b * b), 3)
    calls, weights, norms = [], [], Counter()
    for f, h in _orbit_representatives(x):
        calls.append((f, x))
        weights.append(h)
        norms[f.norm2] += h
    split_pairs = _split_pair_count(norms.items(), x)
    results = parallel_map(_le_region_worker, calls, threads)
    n_split = sum(h * r[0] for h, r in zip(weights, results))
    n_nonsplit = sum(h * r[1] for h, r in zip(weights, results))
    ratios = [r[2] for r in results if r[2] is not None]
    if n_split != split_pairs:
        raise AssertionError(
            f"independent split counts disagree: pairs={split_pairs} region={n_split}"
        )
    return {
        "schema_version": 1,
        "B": float(b),
        "split": n_split,
        "nonsplit": n_nonsplit,
        "total": n_split + n_nonsplit,
        "min_ratio": float(min(ratios)) ** 0.5 if ratios else None,
    }


def le_count(bound: float | Fraction, *, threads: int = 1) -> int:
    """Exact count of non-nonreduced points with le_height^3 at most B."""
    return le_count_detailed(bound, threads=threads)["total"]


def le_rudulier_prediction(bound: float) -> float:
    """Le Rudulier's leading asymptotic 2(24 + pi^2) / (3 zeta(3)^2) * B log B."""
    return 2.0 * (24.0 + PI * PI) / (3.0 * ZETA3 * ZETA3) * bound * math.log(bound)
