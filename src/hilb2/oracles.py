"""Independent brute-force enumerators used to cross-check the exact core.

Every routine here deliberately takes a different path from the library code
it validates: one gcd box count, one row sieve and one exact row walk for
the point listings instead of the library's half-space slices and interval
counts, gcd primitivity instead of Moebius inversion over dilations, direct
Gram determinants instead of the cached quotient form.  numpy works on
integer grids in int64, exactly, after an overflow audit; where the audit
fails, the work runs as pure-Python loops on exact integers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, isqrt, lcm
from typing import Callable, Iterator, Sequence

import numpy as np

from .exactlin import Matrix, det_bareiss, gram_det2, gram_matrix, mat_mul, saturate, transpose
from .hilb import PointValidationError, canonical_forms, canonicalize, monomials
from .lattice import LinearForm, QuotientLattice, quotient, reduce_gram


def product_basis(ell: LinearForm) -> Matrix:
    """The rows X0*l, X1*l, X2*l of the product lattice, in the monomial
    order X0^2, X0X1, X0X2, X1^2, X1X2, X2^2."""
    a, b, c = ell.triple
    return (
        (a, b, c, 0, 0, 0),
        (0, a, 0, b, c, 0),
        (0, 0, a, 0, b, c),
    )


def _adjugate3(m: Sequence[Sequence[int]]) -> list[list[int]]:
    (a, b, c), (d, e, f), (g, h, i) = m
    return [
        [e * i - f * h, c * h - b * i, b * f - c * e],
        [f * g - d * i, a * i - c * g, c * d - a * f],
        [d * h - e * g, b * g - a * h, a * e - b * d],
    ]


def _box_bounds(g: Sequence[Sequence[int]], t: int) -> list[int]:
    """Per-coordinate bounds |x_i| <= sqrt(t * (g^-1)_ii) for x^T g x <= t."""
    det = det_bareiss(g)
    adj = _adjugate3(g)
    return [isqrt((t * adj[i][i]) // det) for i in range(3)]


def _grid_form_values(g: Sequence[Sequence[int]], bounds: list[int]) -> tuple | None:
    """int64 grid of form values over the box, or None if it might overflow."""
    worst = sum(
        abs(g[i][j]) * (bounds[i] + 1) * (bounds[j] + 1) for i in range(3) for j in range(3)
    )
    if worst >= 2**62:
        return None
    axes = [np.arange(-b, b + 1, dtype=np.int64) for b in bounds]
    x0, x1, x2 = np.meshgrid(*axes, indexing="ij")
    vals = (
        g[0][0] * x0 * x0
        + g[1][1] * x1 * x1
        + g[2][2] * x2 * x2
        + 2 * (g[0][1] * x0 * x1 + g[0][2] * x0 * x2 + g[1][2] * x1 * x2)
    )
    return x0, x1, x2, vals


def count_primitive_gram_boxscan(g: Sequence[Sequence[int]], t: int) -> int:
    """#{x != 0 primitive : x^T g x <= t} with gcd primitivity (no Moebius
    inversion over dilations).

    Small well-rounded instances are scanned as a full numpy box with a gcd
    per point; skewed or large instances go to ``count_primitive_rows``.
    """
    if t < 0:
        return 0
    bounds = _box_bounds(g, t)
    vol = (2 * bounds[0] + 1) * (2 * bounds[1] + 1) * (2 * bounds[2] + 1)
    if vol <= 2_000_000:
        grid = _grid_form_values(g, bounds)
        if grid is not None:
            x0, x1, x2, vals = grid
            mask = vals <= t
            mask &= (x0 != 0) | (x1 != 0) | (x2 != 0)
            prim = np.gcd(np.gcd(np.abs(x0), np.abs(x1)), np.abs(x2)) == 1
            return int(np.count_nonzero(mask & prim))
    return count_primitive_rows(g, t)


# int64 headroom required by the vectorized paths (exact below it)
_INT64_SAFE = 2**62


def _checked_reduction(g: Sequence[Sequence[int]]) -> list[list[int]]:
    """Reduced Gram matrix of g, accepted only after an exact check that it is
    u^T g u for a unimodular u."""
    h, u = reduce_gram(g)
    if mat_mul(transpose(u), mat_mul(g, u)) != [list(r) for r in h] or abs(det_bareiss(u)) != 1:
        raise AssertionError("reduce_gram returned an invalid change of basis")
    return [list(r) for r in h]


def prime_exponents(n: int) -> list[tuple[int, int]]:
    """[(p, e)] for the primes p of n > 0 in increasing order, p^e exactly
    dividing n, by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


@lru_cache(maxsize=4096)
def _squarefree_divisors(n: int) -> tuple[tuple[int, int], ...]:
    """(d, mu(d)) for every squarefree divisor d of n > 0."""
    out = [(1, 1)]
    for p, _ in prime_exponents(n):
        out += [(d * p, -mu) for d, mu in out]
    return tuple(out)


def _coprime_in(lo: int, hi: int, g: int) -> int:
    """#{x in [lo, hi] : gcd(x, g) = 1}, by inclusion-exclusion over the primes
    of g; for g = 0 only x = +-1 qualify."""
    if hi < lo:
        return 0
    if g == 0:
        return (lo <= -1 <= hi) + (lo <= 1 <= hi)
    return sum(mu * (hi // d - (lo - 1) // d) for d, mu in _squarefree_divisors(g))


def count_primitive_rows(g: Sequence[Sequence[int]], t: int) -> int:
    """#{x != 0 primitive : x^T g x <= t}, one (x1, x2) row at a time.

    Counts in a reduced basis of g (checked exactly, see _checked_reduction)
    with the shortest basis vector as the innermost coordinate x0.  Since
    gcd(x0, x1, x2) = gcd(x0, gcd(x1, x2)), a row contributes the x0 in its
    exact interval that are coprime to gcd(x1, x2), counted by inclusion-
    exclusion over the primes of that gcd.  Rows are vectorized with numpy
    per x2 slice when an int64 audit allows it, else walked in pure Python.
    """
    if t < 0:
        return 0
    h = _checked_reduction(g)
    bounds = _box_bounds(h, t)
    # the numpy path takes form values at most two steps outside the box
    worst = sum(
        abs(h[i][j]) * (bounds[i] + 2) * (bounds[j] + 2) for i in range(3) for j in range(3)
    )
    slice_rows = _slice_rows_numpy if worst + t < _INT64_SAFE else _slice_rows_python
    return sum(slice_rows(h, t, x2, lo1, hi1) for x2, lo1, hi1 in _row_slices(h, t))


def _row_slices(h: Sequence[Sequence[int]], bound: int) -> Iterator[tuple[int, int, int]]:
    """(x2, lo1, hi1) for every x2 slice holding a row (x1, x2) whose real x0
    line meets the ellipsoid x^T h x <= bound, with its exact x1 interval."""
    a = h[0][0]
    # the row (x1, x2) is nonempty iff min over real x0 of a * (x^T h x) is at
    # most a * bound; that minimum is the binary form p in (x1, x2)
    p11 = a * h[1][1] - h[0][1] ** 2
    p12 = a * h[1][2] - h[0][1] * h[0][2]
    p22 = a * h[2][2] - h[0][2] ** 2
    pdet = p11 * p22 - p12 * p12
    top = p11 * a * bound
    m2 = isqrt(top // pdet)
    for x2 in range(-m2, m2 + 1):
        # (p11 x1 + p12 x2)^2 <= p11 * a * bound - pdet * x2^2
        s = isqrt(top - pdet * x2 * x2)
        lo1 = -((s + p12 * x2) // p11)
        hi1 = (s - p12 * x2) // p11
        if lo1 <= hi1:
            yield x2, lo1, hi1


def _x0_interval(h: Sequence[Sequence[int]], bound: int, x1: int, x2: int) -> tuple[int, int]:
    """Exact interval [lo, hi] of the x0 with x^T h x <= bound (lo > hi if none)."""
    a = h[0][0]
    # a x0^2 + 2 beta x0 + rest <= bound  <=>  (a x0 + beta)^2 <= disc
    beta = h[0][1] * x1 + h[0][2] * x2
    rest = h[1][1] * x1 * x1 + 2 * h[1][2] * x1 * x2 + h[2][2] * x2 * x2
    disc = beta * beta - a * (rest - bound)
    if disc < 0:
        return 1, 0
    s = isqrt(disc)
    return -((s + beta) // a), (s - beta) // a


def _slice_rows_python(h: list[list[int]], bound: int, x2: int, lo1: int, hi1: int) -> int:
    return sum(
        _coprime_in(*_x0_interval(h, bound, x1, x2), gcd(x1, x2)) for x1 in range(lo1, hi1 + 1)
    )


def _halfwidth_estimate(c, rest, a: int):
    """float64 half-width of each row's real x0 interval around its center c."""
    return np.sqrt(np.maximum(c * c - rest / a, 0.0))


def _slice_rows_numpy(h: list[list[int]], bound: int, x2: int, lo1: int, hi1: int) -> int:
    """Vectorized _slice_rows_python.  Each row's x0 interval is estimated in
    float64 around the exact integer minimizer and then corrected by exact
    int64 form values, which the caller's audit keeps below 2^62."""
    a = h[0][0]
    x1 = np.arange(lo1, hi1 + 1, dtype=np.int64)
    beta2 = 2 * (h[0][1] * x1 + h[0][2] * x2)
    rest = h[1][1] * x1 * x1 + 2 * h[1][2] * x1 * x2 + (h[2][2] * x2 * x2 - bound)

    def outside(x):  # x^T h x > bound along each row
        return (a * x + beta2) * x + rest > 0

    m = (a - beta2) // (2 * a)  # nearest integer to the row's real minimizer
    inside = ~outside(m)
    c = -beta2 / (2.0 * a)
    w = _halfwidth_estimate(c, rest, a)
    hi = np.where(inside, np.maximum(np.floor(c + w).astype(np.int64), m), m - 1)
    lo = np.where(inside, np.minimum(np.ceil(c - w).astype(np.int64), m), m)
    for step in (1, -1):
        end = hi if step == 1 else lo
        while True:
            grow = inside & ~outside(end + step)
            if not grow.any():
                break
            end += step * grow
        while True:
            shrink = inside & outside(end)
            if not shrink.any():
                break
            end -= step * shrink
    if x2 == 0:  # gcd(x1, 0) = |x1| varies along the slice
        return sum(
            _coprime_in(l, r, abs(v)) for l, r, v in zip(lo.tolist(), hi.tolist(), x1.tolist())
        )
    # rows with d | x1 are exactly the rows whose gcd(x1, x2) has d as a divisor
    n = 0
    for d, mu in _squarefree_divisors(abs(x2)):
        first = (-lo1) % d
        n += mu * int((hi[first::d] // d - (lo[first::d] - 1) // d).sum())
    return n


def minima_boxscan(q: QuotientLattice, t: int) -> list[tuple[int, tuple[int, int, int]]]:
    """All (form value, x) with 0 < x^T gram_int x <= t, sorted; the form
    values are taken directly from gram_int over the exact row walk."""
    g = q.gram_int
    return sorted(
        (sum(g[i][j] * x[i] * x[j] for i in range(3) for j in range(3)), x)
        for x in _python_candidates(g, t)
        if x != (0, 0, 0)
    )


# ---------------------------------------------------------------------------
# independent point-count oracle (box-scan over coset coordinates, heights by
# direct Gram determinant of the stacked degree-2 basis)
# ---------------------------------------------------------------------------


def _height_test(ell: LinearForm, s: Fraction, t: Fraction, bound: Fraction) -> Callable[[int], bool]:
    """covol2_I2 -> whether the points over ``ell`` with that squared
    covolume have height <= bound: n^(L(s-t)) covol2_I2^(Lt) <= bound^(2L)
    by exact Fraction comparison, L the lcm of the exponent denominators."""
    big_l = lcm(s.denominator, t.denominator)
    b_exp = int(big_l * t)
    rhs = bound ** (2 * big_l)
    base = Fraction(ell.norm2) ** int(big_l * (s - t))

    def height_ok(cv2: int) -> bool:
        return base * Fraction(cv2) ** b_exp <= rhs

    return height_ok


def oracle_fiber_qbars(
    ell: LinearForm, s: Fraction, t: Fraction, bound: Fraction
) -> set[tuple[int, int, int]]:
    """Canonical qbar set of one fiber, by the exact row walk with
    independent heights.

    The walk lists every x with x^T gram_int x up to the largest admissible
    squared covolume; each primitive candidate's squared degree-2 covolume
    is recomputed from scratch as a 4x4 Gram determinant of the stacked
    basis and the height condition is decided by exact Fraction comparison.
    """
    height_ok = _height_test(ell, s, t, bound)
    if not height_ok(1):
        return set()
    quo = quotient(ell)
    # the largest admissible squared covolume lo, by doubling and bisection
    lo, hi = 1, 2
    while height_ok(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if height_ok(mid) else (lo, mid)
    p_rows = list(product_basis(ell))
    found: set[tuple[int, int, int]] = set()
    for x in _python_candidates(quo.gram_int, lo):
        # primitive (x = 0 has gcd 0) and sign-canonical
        if gcd(gcd(x[0], x[1]), x[2]) != 1 or next(v for v in x if v) < 0:
            continue
        cv2 = gram_det2(p_rows + [list(quo.lift(x))])
        if cv2 != quo.covol2_with(x):  # the independent route must agree
            raise AssertionError(f"covol2_I2 routes disagree at {ell.triple}, {x}")
        if height_ok(cv2):
            found.add(x)
    return found


def _python_candidates(g: Sequence[Sequence[int]], t_cap: int) -> list[tuple[int, int, int]]:
    """Every x with x^T g x <= t_cap, 0 included, by an exact row walk in the
    basis of g: x2 slices and x1 intervals from the binary form of the rows,
    then each row's x0 interval, all from integer square roots.  The one
    listing of ellipsoid points behind ``oracle_fiber_qbars`` and
    ``minima_boxscan``."""
    out = []
    for x2, lo1, hi1 in _row_slices(g, t_cap):
        for x1 in range(lo1, hi1 + 1):
            lo, hi = _x0_interval(g, t_cap, x1, x2)
            out.extend((x0, x1, x2) for x0 in range(lo, hi + 1))
    return out


def distance_lemma_reaches(s: Fraction, t: Fraction, bound: Fraction, m: int) -> bool:
    """Whether a point of height <= bound may lie over a form of
    max-coordinate M = m, by the distance lemma that the minima suite checks
    (dist^2 >= 1/(49 M^4), so covol2_I2 >= (2/147) M^2) rather than the
    library's sharper first-minimum bound.  With M^2 <= covol2_I1 <= 3 M^2
    every such point has H^2 >= min(1, 3^(s-t)) * (2/147)^t * M^(2s), which
    grows with M; that bound is compared with bound^2 after raising both
    sides to the power L = lcm of the exponent denominators.
    """
    big_l = lcm(s.denominator, t.denominator)
    k_pow = Fraction(2, 147) ** int(big_l * t) * min(1, Fraction(3) ** int(big_l * (s - t)))
    return k_pow * Fraction(m) ** int(2 * big_l * s) <= bound ** (2 * big_l)


def _distance_lemma_cutoff(s: Fraction, t: Fraction, bound: Fraction) -> int:
    """Coefficient cutoff of the oracle: the largest M it reaches."""
    m = 0
    while distance_lemma_reaches(s, t, bound, m + 1):
        m += 1
    return m


def oracle_count_points(s, t, bound) -> int:
    """Fully independent recount of the bounded-height point set.

    Scans every form up to its own distance-lemma cutoff and applies no
    empty-fiber prune, so it checks the library's cutoff and prune too.
    """
    s, t, bound = Fraction(s), Fraction(t), Fraction(bound)
    if bound < 1:
        return 0
    total = 0
    for ell in canonical_forms(_distance_lemma_cutoff(s, t, bound)):
        total += len(oracle_fiber_qbars(ell, s, t, bound))
    return total


def oracle_fiber_points_monomial_box(
    ell: LinearForm, s: Fraction, t: Fraction, bound: Fraction, coeff_box: int
) -> set[tuple[int, int, int]]:
    """Tiny-B oracle: scan raw quadrics in a monomial coefficient box and
    push them through canonicalization; exercises the coset reduction
    end-to-end.  Only meaningful when the box provably covers the height
    ball (small bounds)."""
    height_ok = _height_test(ell, s, t, bound)
    out = set()
    for coeffs in product(range(-coeff_box, coeff_box + 1), repeat=6):
        try:
            z = canonicalize(ell.triple, coeffs)
        except PointValidationError:
            continue
        if z.ell == ell and height_ok(z.covol2_I2):
            out.add(z.qbar)
    return out


# ---------------------------------------------------------------------------
# ideal lattices by generic saturation (reference for heights.height2_e)
# ---------------------------------------------------------------------------


def poly_mul(p: Sequence[int], dp: int, q: Sequence[int], dq: int) -> tuple[int, ...]:
    """Multiply coefficient vectors over the canonical monomial bases."""
    index = {m: k for k, m in enumerate(monomials(dp + dq))}
    out = [0] * len(index)
    for cp, (i1, j1, k1) in zip(p, monomials(dp), strict=True):
        if cp == 0:
            continue
        for cq, (i2, j2, k2) in zip(q, monomials(dq), strict=True):
            if cq:
                out[index[(i1 + i2, j1 + j2, k1 + k2)]] += cp * cq
    return tuple(out)


def oracle_ideal_basis(ell: Sequence[int], q: Sequence[int], e: int) -> Matrix:
    """HNF basis of the degree-e ideal lattice of the system l = q = 0: the
    saturation of l V_{e-1} + q V_{e-2} in the degree-e forms, by generic
    integer linear algebra.  ``ell`` and ``q`` are raw coefficient vectors
    (three and six), so the system need not be canonical."""
    gens = []
    for f, d in ((ell, 1), (q, 2)):
        n = len(monomials(e - d)) if e >= d else 0
        gens += [poly_mul(f, d, [int(i == k) for i in range(n)], e - d) for k in range(n)]
    return saturate(gens)


# ---------------------------------------------------------------------------
# vectorized exhaustive check of the distance lower bound
# ---------------------------------------------------------------------------


def _distance_audit_bound(m_max: int, box: int) -> int:
    """196 m_max^10 (30 box^2 + 52 (box + 1)^2): a closed-form bound on the
    overflow audit of ``distance_lemma_violations`` over every form with
    max coordinate M <= m_max.

    The audit is m4 det (||x||^2_max + S (box + 1)^2) with m4 = 49 M^4,
    det = covol2_product and S the sum of |A_ij|.  ||x||^2 <= 6 box^2.
    covol2_product is a polynomial in a^2, b^2, c^2 with nonnegative
    coefficients, so det <= covol2_product(M, M, M) = 20 M^6.  A = P^T adj(G)
    P = det Pi for the orthogonal projector Pi onto the rows of P, of rank
    3, so by Cauchy-Schwarz S <= 6 det ||Pi||_F = 6 sqrt(3) det < 10.4 det.
    The product is 49 * 20 / 5 = 196 times the bracket."""
    return 196 * m_max**10 * (30 * box * box + 52 * (box + 1) ** 2)


def distance_lemma_violations(m_max: int, box: int) -> list[tuple]:
    """Exhaustively check dist^2(x, span) >= 1/(49 M^4) and the sharper
    dist^2(x, span) >= 1/(2 n^2), n = a^2 + b^2 + c^2, for all primitive
    forms with max coordinate <= m_max and all x in the integer box.

    Returns the violating (form, x, bound) triples, bound being "49M^4" or
    "2n^2" (empty when both hold).  Vectorized: for each form,
    K (||x||^2 det - x^T A x) >= det is tested over the whole box at once for
    K = 49 M^4 and K = 2 n^2 <= 18 M^4, after an exact overflow audit.
    ValueError, before any form is scanned, when the closed-form bound of
    the audit (``_distance_audit_bound``) reaches 2^62.
    """
    audit_bound = _distance_audit_bound(m_max, box)
    if audit_bound >= 2**62:
        raise ValueError(
            f"m_max and box are too large: the int64 distance check needs integers "
            f"up to about 2^{audit_bound.bit_length()}, 2^62 at most"
        )
    axes = [np.arange(-box, box + 1, dtype=np.int64)] * 6
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)  # (n, 6)
    norm2 = (pts * pts).sum(axis=1)
    bad: list[tuple] = []
    for ell in canonical_forms(m_max):
        p = product_basis(ell)
        g3 = gram_matrix(p)
        det = det_bareiss(g3)
        adj = _adjugate3(g3)
        # A = P^T adj P, symmetric 6x6
        pt = np.array(p, dtype=np.int64)
        a_mat = pt.T @ np.array(adj, dtype=np.int64) @ pt
        m4 = 49 * ell.M**4
        n2 = 2 * ell.norm2**2
        # overflow audit for the int64 expressions below, against the
        # closed-form bound checked above; it covers both bounds because
        # n2 <= 18 M^4 < m4
        worst = int(norm2.max()) * det * m4 + int(np.abs(a_mat).sum()) * (box + 1) ** 2 * m4
        if worst > audit_bound:
            raise AssertionError(f"overflow audit {worst} above its bound {audit_bound} at {ell.triple}")
        quad = np.einsum("ni,ij,nj->n", pts, a_mat, pts)
        dist_scaled = norm2 * det - quad  # det * dist^2, exact integers
        in_span = dist_scaled == 0
        for name, k in (("49M^4", m4), ("2n^2", n2)):
            viol = ~((k * dist_scaled >= det) | in_span)
            for idx in np.nonzero(viol)[0][:20]:
                bad.append((ell.triple, tuple(int(v) for v in pts[idx]), name))
    return bad
