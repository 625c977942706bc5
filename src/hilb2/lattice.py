"""Product and quotient lattices attached to a primitive linear form.

For a primitive integer form l = a*X0 + b*X1 + c*X2 the degree-2 polynomial
lattice Z^6 (monomial order X0^2, X0X1, X0X2, X1^2, X1X2, X2^2) contains the
rank-3 product lattice spanned by X0*l, X1*l, X2*l.  For the reduced basis
(e, f) of the kernel of l (``kernel_basis_of``, in closed form from one
extended gcd), restriction to the kernel plane,
q -> q(S e + T f) = A S^2 + B S T + C T^2, is an integer 3x6 matrix rho
that maps Z^6 onto Z^3 with the product lattice as its kernel, so the
quotient Z^6 / (product lattice) is the lattice of binary quadratic forms on
the kernel, with coset coordinates (A, B, C).  This module computes

  * the exact squared covolume of that product lattice, as a closed-form
    degree-6 polynomial in a, b, c (``verify`` checks it against the Gram
    determinant of the product basis),
  * the rank-3 quotient in those coordinates, with the inner product
    inherited from the orthogonal complement, held exactly as an *integer*
    Gram matrix scaled by the product covolume: the adjugate of rho rho^T
    (proof in ``QuotientLattice``),
  * exact successive minima and witnesses, read off a Gram matrix that is
    checked to be Minkowski-reduced (which in dimension 3 proves them),
  * exact counts and enumeration of the vectors in an ellipsoid, both from
    one walk over the x3 slices of the half-space whose last nonzero
    coordinate is positive (``_half_slices``), row by row with incremental
    differences, except that the count of a diagonal Gram matrix walks only
    the octant x2, x3 >= 0 and weights each row by its sign pattern
    (``_octant_count``), and exact counts of the primitive vectors in an
    ellipsoid from those counts by Moebius inversion, on the reduced Gram
    matrix whose first minimum bounds the sieve.

As the lowest core module it also holds the small exact helpers the core
shares: ``dot``, ``iroot``, ``sign_canonical``, the extended gcd ``_xgcd``
and ``cross``.  All lattice arithmetic is exact; the module holds no float
code.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt
from operator import mul
from typing import Iterator, Sequence

Row = tuple[int, ...]
Matrix = tuple[Row, ...]


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v, strict=True))


def iroot(x: int, k: int) -> int:
    """Largest r >= 0 with r^k <= x, for integers x >= 0 and k >= 1.

    Integer Newton iteration from 2^ceil(bitlen(x)/k), which is above the
    root; the iterates decrease strictly until they reach it.
    """
    if x < 0 or k < 1:
        raise ValueError("iroot needs x >= 0 and k >= 1")
    if x < 2:
        return x
    r = 1 << -(-x.bit_length() // k)
    while True:
        y = ((k - 1) * r + x // r ** (k - 1)) // k
        if y >= r:
            return r
        r = y


def sign_canonical(vec: Sequence[int]) -> tuple[int, ...]:
    """``vec`` or ``-vec``, whichever has its first nonzero entry positive."""
    for v in vec:
        if v:
            return tuple(vec) if v > 0 else tuple(-x for x in vec)
    return tuple(vec)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def cross(v: Sequence[int], w: Sequence[int]) -> tuple[int, int, int]:
    """Cross product v x w of two integer triples."""
    return (
        v[1] * w[2] - v[2] * w[1],
        v[2] * w[0] - v[0] * w[2],
        v[0] * w[1] - v[1] * w[0],
    )


@dataclass(frozen=True)
class LinearForm:
    """Primitive, sign-canonical integer linear form a*X0 + b*X1 + c*X2."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        a, b, c = self.a, self.b, self.c
        if not (a or b or c):
            raise ValueError("zero form")
        if gcd(a, b, c) != 1:
            raise ValueError("form must be primitive")
        if a < 0 or not a and (b < 0 or not b and c < 0):
            raise ValueError("form must be sign-canonical (first nonzero coordinate positive)")

    @classmethod
    def from_raw(cls, a: int, b: int, c: int) -> "LinearForm":
        """Divide out the content and fix the sign of an arbitrary nonzero triple."""
        if (a, b, c) == (0, 0, 0):
            raise ValueError("zero form")
        g = gcd(gcd(a, b), c)
        return cls(*sign_canonical((a // g, b // g, c // g)))

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    @property
    def M(self) -> int:
        return max(abs(self.a), abs(self.b), abs(self.c))

    @property
    def norm2(self) -> int:
        """Squared covolume of the rank-1 lattice spanned by the form."""
        return self.a * self.a + self.b * self.b + self.c * self.c


@dataclass(frozen=True)
class SuccessiveMinima:
    lam1_sq: Fraction
    lam2_sq: Fraction
    lam3_sq: Fraction
    witnesses: tuple[Row, Row, Row]


def product_covol2_formula(a: int, b: int, c: int) -> int:
    """Closed-form squared covolume of span{X0*l, X1*l, X2*l}:
    s (s^2 - p) + c^2 (2 s^2 + p) + 2 c^4 s + c^6 with s = a^2 + b^2 and
    p = a^2 b^2.  Also takes int64 arrays, which do not overflow for
    coordinates up to 500 in absolute value (the value is <= 20 M^6)."""
    s, p, c2 = a * a + b * b, (a * b) ** 2, c * c
    return s * (s * s - p) + c2 * (2 * s * s + p + c2 * (2 * s + c2))


def _det3(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a 3x3 integer matrix, expanded along the first row."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def eval_quadratic(coeffs: Sequence[int], v: Sequence[int]) -> int:
    """Evaluate a quadric (six canonical coefficients) at an integer triple."""
    x, y, z = v
    c0, c1, c2, c3, c4, c5 = coeffs
    return c0 * x * x + c1 * x * y + c2 * x * z + c3 * y * y + c4 * y * z + c5 * z * z


def _sym_product(u: Sequence[int], v: Sequence[int]) -> Row:
    """Canonical coefficients of the quadric (u.X)(v.X)."""
    return (
        u[0] * v[0],
        u[0] * v[1] + u[1] * v[0],
        u[0] * v[2] + u[2] * v[0],
        u[1] * v[1],
        u[1] * v[2] + u[2] * v[1],
        u[2] * v[2],
    )


def _lift_basis(ell: LinearForm) -> Matrix:
    """Monomial coefficients of Y1^2, Y1*Y2 and Y2^2, where (l, Y1, Y2) are
    the coordinates dual to a basis (w, e, f) of Z^3 with (e, f) =
    ``kernel_basis_of(ell)``."""
    a, b, c = ell.triple
    e, f = kernel_basis_of(ell)
    g, x, y = _xgcd(a, b)
    _, s, t = _xgcd(g, c)
    w = (s * x, s * y, t)  # l(w) = 1, so det(w, e, f) = w . (e x f) = 1
    # the dual basis of (w, e, f) is (l, f x w, w x e)
    u, v = cross(f, w), cross(w, e)
    return (_sym_product(u, u), _sym_product(u, v), _sym_product(v, v))


def restriction_map(ell: LinearForm) -> Matrix:
    """The 3x6 integer matrix rho of q -> (q(e), q(e+f) - q(e) - q(f), q(f)),
    the coefficients of q(S e + T f) for (e, f) = ``kernel_basis_of(ell)``:
    the six monomials at e, their polarisation at (e, f), and at f."""
    (e0, e1, e2), (f0, f1, f2) = kernel_basis_of(ell)
    return (
        (e0 * e0, e0 * e1, e0 * e2, e1 * e1, e1 * e2, e2 * e2),
        (2 * e0 * f0, e0 * f1 + e1 * f0, e0 * f2 + e2 * f0, 2 * e1 * f1, e1 * f2 + e2 * f1, 2 * e2 * f2),
        (f0 * f0, f0 * f1, f0 * f2, f1 * f1, f1 * f2, f2 * f2),
    )


@dataclass(frozen=True)
class QuotientLattice:
    """Z^6 / (degree-1 multiples of the form), with its projected inner product.

    Coset coordinates are binary quadratic forms on the kernel basis
    (e, f) = ``kernel_basis_of(source)``: (A, B, C) is the class of
    A*Y1^2 + B*Y1*Y2 + C*Y2^2 (see ``_lift_basis``), and the coset of a
    quadric q has coordinates rho q, with rho = ``restriction_map(source)``.
    ``gram_int`` is covol2_product times the projected Gram matrix, which
    is adj(rho rho^T), an exact positive definite integer matrix: the
    squared covolume of the rank-4 lattice generated by the product lattice
    P and a coset vector u is exactly u^T gram_int u.  The quotient is held
    only in these integers; its squared covolume is 1 / covol2_product.

    Proof of the adjugate form.  rho maps Z^6 onto Z^3, since it sends the
    lift basis to the unit vectors, so its kernel has rank 3 and contains P
    (multiples of l vanish on the plane l = 0).  So L = Z^6 meet ker(rho) is
    a saturated lattice containing P with the same span, and rho identifies
    Z^6 / L with Z^3.  The orthogonal projection of x onto the row space of
    rho, the orthogonal complement of P, is rho^T (rho rho^T)^-1 rho x, so
    the coset with coordinates y has squared norm y^T (rho rho^T)^-1 y and
    the projected lattice has squared covolume 1 / det(rho rho^T).  Since L
    is saturated in the unimodular Z^6, that is also 1 / covol2(L), so
    det(rho rho^T) = covol2(L) = covol2(P) / [L : P]^2.  Every build checks
    det(rho rho^T) = covol2_product exactly, which proves L = P; then
    covol2_product * (rho rho^T)^-1 = adj(rho rho^T), and covol2(P + Z x) =
    covol2(P) times the squared norm of the projection of x.
    """

    source: LinearForm
    gram_int: Matrix
    covol2_product: int

    @cached_property
    def lift_basis(self) -> Matrix:
        """Canonical lifts of the three coset basis vectors, built on first
        use only: most quotients are never lifted."""
        return _lift_basis(self.source)

    def coset_coords(self, vec6: Sequence[int]) -> tuple[int, int, int]:
        """Coordinates (q(e), q(e+f) - q(e) - q(f), q(f)) of the coset of the
        quadric q = ``vec6``: the coefficients of q(S e + T f)."""
        r0, r1, r2 = restriction_map(self.source)
        return (sum(map(mul, r0, vec6)), sum(map(mul, r1, vec6)), sum(map(mul, r2, vec6)))

    def lift(self, coords: Sequence[int]) -> Row:
        """Canonical monomial-coordinate lift of a coset vector."""
        u1, u2, u3 = coords
        w1, w2, w3 = self.lift_basis
        return tuple(u1 * x + u2 * y + u3 * z for x, y, z in zip(w1, w2, w3))

    def covol2_with(self, coords: Sequence[int]) -> int:
        """Squared covolume of product lattice + Z*coset; equals x^T gram_int x."""
        (g00, g01, g02), (_, g11, g12), (_, _, g22) = self.gram_int
        x0, x1, x2 = coords
        return g00 * x0 * x0 + g11 * x1 * x1 + g22 * x2 * x2 + 2 * (g01 * x0 * x1 + g02 * x0 * x2 + g12 * x1 * x2)


@lru_cache(maxsize=128)
def _quotient_cached(ell: LinearForm) -> QuotientLattice:
    covol2p = product_covol2_formula(ell.a, ell.b, ell.c)
    # rho rho^T from the moments of (e, f): with E_i = e_i^2, F_i = f_i^2 and
    # P_i = e_i f_i, the rows of rho pair the monomials of e, their
    # polarisation at (e, f) and the monomials of f, e.g. sum over i <= j of
    # E_i E_j = (sum E_i^2 + ee^2) / 2
    (e0, e1, e2), (f0, f1, f2) = kernel_basis_of(ell)
    E0, E1, E2, F0, F1, F2 = e0 * e0, e1 * e1, e2 * e2, f0 * f0, f1 * f1, f2 * f2
    P0, P1, P2 = e0 * f0, e1 * f1, e2 * f2
    ee, ff, ef = E0 + E1 + E2, F0 + F1 + F2, P0 + P1 + P2
    pp = P0 * P0 + P1 * P1 + P2 * P2
    m00 = (E0 * E0 + E1 * E1 + E2 * E2 + ee * ee) // 2
    m22 = (F0 * F0 + F1 * F1 + F2 * F2 + ff * ff) // 2
    m02 = (pp + ef * ef) // 2
    m01 = E0 * P0 + E1 * P1 + E2 * P2 + ee * ef
    m12 = F0 * P0 + F1 * P1 + F2 * P2 + ff * ef
    m11 = 2 * pp + ee * ff + ef * ef
    # adj(rho rho^T), symmetric
    j00, j11, j22 = m11 * m22 - m12 * m12, m00 * m22 - m02 * m02, m00 * m11 - m01 * m01
    j01, j02, j12 = m02 * m12 - m01 * m22, m01 * m12 - m02 * m11, m01 * m02 - m00 * m12
    # the saturation step of the proof in QuotientLattice; raised explicitly
    # so that python -O keeps it
    if m00 * j00 + m01 * j01 + m02 * j02 != covol2p:
        raise AssertionError(f"restriction map of {ell} does not have the product covolume")
    gram_int = ((j00, j01, j02), (j01, j11, j12), (j02, j12, j22))
    return QuotientLattice(source=ell, gram_int=gram_int, covol2_product=covol2p)


def quotient(ell: LinearForm) -> QuotientLattice:
    """The quotient lattice of ``ell``, which was validated when it was made.

    Built by ``_quotient_cached``, a module-level LRU keyed by the form and
    bounded at 128 entries, so memory does not grow with the number of
    forms a run visits.  Reuse was measured by replaying each run's keys:
    ``count_Nst(2, 1, 300)`` and ``le_count_detailed(1000)`` build every
    quotient once, and ``enumerate_points(2, 1, 12)`` with four heights per
    point finds 10165 of its 10171 hits on the form asked for just before.
    Of the ``verify`` suites only ``oracle-count`` reuses a quotient further
    back (202 hits at 128 entries, 4257 at 4096, of 40999 calls)."""
    return _quotient_cached(ell)


# ---------------------------------------------------------------------------
# exact counting and enumeration for positive definite integer ternary forms
# ---------------------------------------------------------------------------


def _nearest_div(p: int, q: int) -> int:
    """Nearest integer to p/q for q > 0 (ties toward +infinity)."""
    return (2 * p + q) // (2 * q)


def reduce_gram(g: Matrix) -> tuple[Matrix, Matrix]:
    """Greedy reduction of a symmetric PD integer 3x3 Gram matrix.

    Returns (g_reduced, u) with g_reduced = u^T g u, u unimodular (its
    columns are the new basis), diagonal nondecreasing.  Each pass sorts the
    diagonal, size-reduces b1 by b0, b2 by b0 and b2 by b1 when that
    shortens them, and replaces b2 by the shortest strictly shorter
    b2 + e0 b0 + e1 b1, (e0, e1) in {-1, 0, 1}^2, the first in lexicographic
    order on ties.

    Stopping rule: a pass starts only if Minkowski's conditions for ternary
    forms fail, so the last pass of the greedy loop, the one that changes
    nothing, never runs.  The conditions are that the diagonal is sorted,
    2|g_ij| <= g_ii for i < j, and d >= 0 for the four (e0, e1) = (+-1, +-1),
    where d = g(b2 + e0 b0 + e1 b1) - g22; ``_minkowski_reduced`` checks the
    same conditions exactly.  A Gram that meets them is a fixed point of the
    pass: no swap, since the diagonal is sorted; no size step, since
    2|g_ij| <= g_ii leaves k in {0, 1} with k = 1 only at 2 g_ij = g_ii,
    where the step would not shorten; no greedy step, since the four
    conditions and 2|g_ij| <= g_ii give d >= 0 for all eight (e0, e1).
    Conversely a pass that changes nothing shows that they hold.  So the
    loop stops on the same (g_reduced, u) as one that runs passes until a
    pass changes nothing.  ``successive_minima`` and ``min_form_value`` rely
    on the conditions.  The entries are held in local integers; the tests
    keep the loop over lists as the reference, with the same
    (g_reduced, u).
    """
    (g00, g01, g02), (_, g11, g12), (_, _, g22) = g
    u00, u01, u02, u10, u11, u12, u20, u21, u22 = 1, 0, 0, 0, 1, 0, 0, 0, 1
    for _ in range(10_000):
        # Minkowski's conditions: the pass below would change nothing
        if (
            g00 <= g11 <= g22
            and -g00 <= 2 * g01 <= g00
            and -g00 <= 2 * g02 <= g00
            and -g11 <= 2 * g12 <= g11
            and 2 * abs(g02 + g12) <= g00 + g11 + 2 * g01
            and 2 * abs(g02 - g12) <= g00 + g11 - 2 * g01
        ):
            break
        if g00 > g11:
            g00, g11, g02, g12 = g11, g00, g12, g02
            u00, u01, u10, u11, u20, u21 = u01, u00, u11, u10, u21, u20
        if g11 > g22:
            g11, g22, g01, g02 = g22, g11, g02, g01
            u01, u02, u11, u12, u21, u22 = u02, u01, u12, u11, u22, u21
        if g00 > g11:
            g00, g11, g02, g12 = g11, g00, g12, g02
            u00, u01, u10, u11, u20, u21 = u01, u00, u11, u10, u21, u20
        # pairwise size reduction: b_j <- b_j - k b_i, k the nearest integer
        # to g_ij / g_ii (ties toward +infinity)
        k = (2 * g01 + g00) // (2 * g00)
        if k and k * (k * g00 - 2 * g01) < 0:
            g11 += k * (k * g00 - 2 * g01)
            g01 -= k * g00
            g12 -= k * g02
            u01, u11, u21 = u01 - k * u00, u11 - k * u10, u21 - k * u20
        k = (2 * g02 + g00) // (2 * g00)
        if k and k * (k * g00 - 2 * g02) < 0:
            g22 += k * (k * g00 - 2 * g02)
            g02 -= k * g00
            g12 -= k * g01
            u02, u12, u22 = u02 - k * u00, u12 - k * u10, u22 - k * u20
        k = (2 * g12 + g11) // (2 * g11)
        if k and k * (k * g11 - 2 * g12) < 0:
            g22 += k * (k * g11 - 2 * g12)
            g12 -= k * g11
            g02 -= k * g01
            u02, u12, u22 = u02 - k * u01, u12 - k * u11, u22 - k * u21
        # greedy 3-dimensional step: d is the change of g22 for (e0, e1),
        # taken in lexicographic order with strict comparisons, so a tie
        # keeps the first
        hp, lp = g00 + g11 + 2 * g01, g02 + g12
        hm, lm = g00 + g11 - 2 * g01, g02 - g12
        d, e0, e1 = hp - 2 * lp, -1, -1
        if g00 - 2 * g02 < d:
            d, e0, e1 = g00 - 2 * g02, -1, 0
        if hm - 2 * lm < d:
            d, e0, e1 = hm - 2 * lm, -1, 1
        if g11 - 2 * g12 < d:
            d, e0, e1 = g11 - 2 * g12, 0, -1
        if g11 + 2 * g12 < d:
            d, e0, e1 = g11 + 2 * g12, 0, 1
        if hm + 2 * lm < d:
            d, e0, e1 = hm + 2 * lm, 1, -1
        if g00 + 2 * g02 < d:
            d, e0, e1 = g00 + 2 * g02, 1, 0
        if hp + 2 * lp < d:
            d, e0, e1 = hp + 2 * lp, 1, 1
        if d < 0:
            g22 += d
            g02, g12 = g02 + e0 * g00 + e1 * g01, g12 + e0 * g01 + e1 * g11
            u02 += e0 * u00 + e1 * u01
            u12 += e0 * u10 + e1 * u11
            u22 += e0 * u20 + e1 * u21
    else:  # pragma: no cover - reduction always terminates quickly
        raise AssertionError("gram reduction failed to terminate")
    g_red = ((g00, g01, g02), (g01, g11, g12), (g02, g12, g22))
    return g_red, ((u00, u01, u02), (u10, u11, u12), (u20, u21, u22))


def _half_slices(g: Sequence[Sequence[int]], t: int) -> Iterator[tuple[int, int, int, int, int, int]]:
    """The x3 slices of {x : x^T g x <= t}, for t >= 0, in the half-space of
    vectors whose last nonzero coordinate is positive, as
    (x3, lo2, hi2, beta, d, dd).

    The slice holds the rows x2 = lo2, ..., hi2; the row (x2, x3) holds the
    x1 with lo1 <= x1 <= hi1, lo1 = -((beta + isqrt(d)) // a) and
    hi1 = (isqrt(d) - beta) // a, where a = g00 and, with
    a2 = g00 g11 - g01^2, b2 = g00 g12 - g01 g02, c2 = g00 g22 - g02^2,

        beta(x2) = g01 x2 + g02 x3,
        d(x2)    = a t - a (g11 x2^2 + 2 g12 x2 x3 + g22 x3^2) + beta^2
                 = a t - c2 x3^2 - a2 x2^2 - 2 b2 x2 x3,

    the isqrt argument of the row (a * x^T g x = (a x1 + beta)^2 - d + a t).
    The slice gives beta and d at its first row x2 = lo2, and dd =
    d(lo2 + 1) - d(lo2).  From row to row

        beta(x2 + 1) - beta(x2) = g01,
        d(x2 + 1) - d(x2)       = -a2 (2 x2 + 1) - 2 b2 x3,
        and that difference steps by -2 a2,

    so a caller walks a slice with three additions per row.  Rows may be
    empty (hi1 = lo1 - 1).

    The walk takes x3 >= 0, x2 >= 0 on the slice x3 = 0, and the caller
    takes x1 >= 1 on the row x2 = x3 = 0, so it meets one vector of each +-x
    pair and never 0.  No isqrt argument is negative: a2 d(x2) =
    D2 - (a2 x2 + b2 x3)^2 with D2 = a2 a t - x3^2 a det(g), since
    a2 c2 - b2^2 = a det(g).  The x3 range is x3^2 det(g) <= t a2, so
    D2 >= 0, and the x2 range is |a2 x2 + b2 x3| <= isqrt(D2), so d >= 0
    on every row walked.
    """
    (a, g01, g02), (_, g11, g12), (_, _, g22) = g
    a2 = a * g11 - g01 * g01
    b2 = a * g12 - g01 * g02
    c2 = a * g22 - g02 * g02
    detg = _det3(g)
    at = a * t
    adet = a * detg
    # x3^2 * det(g) <= t * det(top-left 2x2 block)
    for x3 in range(isqrt((t * a2) // detg) + 1):
        s2 = isqrt(a2 * at - x3 * x3 * adet)
        bb = b2 * x3
        lo2 = -((bb + s2) // a2) if x3 else 0
        d = at - c2 * x3 * x3 - (a2 * lo2 + 2 * bb) * lo2
        yield x3, lo2, (s2 - bb) // a2, g01 * lo2 + g02 * x3, d, -a2 * (2 * lo2 + 1) - 2 * bb


def count_form_le(g: Sequence[Sequence[int]], t: int) -> int:
    """#{x in Z^3 : x^T g x <= t}, including x = 0, by exact interval
    counting over rows.

    A diagonal g (g01 = g02 = g12 = 0) is counted by octants
    (``_octant_count``).  Any other g is counted over the rows of
    ``_half_slices``: 0, and each +-x pair twice.  Each slice is summed in
    one loop with one isqrt per row.  The loop counts the origin row
    x2 = x3 = 0 in full, x1 in [-k, k] with k = isqrt(a t) // a, where the
    half-space holds only x1 in [1, k]; the return value takes the k + 1
    extra vectors out once."""
    if t < 0:
        return 0
    (a, g01, g02), (_, g11, g12), (_, _, g22) = g
    if not (g01 or g02 or g12):
        return _octant_count(a, g11, g22, t)
    step2 = 2 * (a * g11 - g01 * g01)
    total = 0
    for _, lo2, hi2, beta, d, dd in _half_slices(g, t):
        total += hi2 - lo2 + 1
        for _ in range(lo2, hi2 + 1):
            s1 = isqrt(d)
            total += (s1 - beta) // a + (s1 + beta) // a
            beta += g01
            d += dd
            dd -= step2
    return 2 * (total - isqrt(a * t) // a) - 1


def _octant_count(a: int, b: int, c: int, t: int) -> int:
    """#{x in Z^3 : a x1^2 + b x2^2 + c x3^2 <= t} for a, b, c > 0 and
    t >= 0: the sum over x3, x2 >= 0 of the row 2 isqrt(r // a) + 1, r =
    t - b x2^2 - c x3^2, weighted by 2^(nonzero coordinates among x2, x3).

    Along a slice r steps by -b (2 x2 + 1), and from slice to slice its
    first value r3 = t - c x3^2 steps by -c (2 x3 + 1).  A slice holds its
    row x2 = 0, 2 isqrt(r3 // a) + 1 vectors, and n = isqrt(r3 // b) rows
    x2 >= 1, which count twice: 2 (2 s + n) vectors, s the sum of their
    isqrt(r // a).  The slices x3 >= 1 count twice as well."""
    total = 0
    r3, dr3, weight = t, c, 1
    step = 2 * b
    while r3 >= 0:
        s = 0
        r, dr = r3 - b, 3 * b
        while r >= 0:
            s += isqrt(r // a)
            r -= dr
            dr += step
        total += weight * (2 * isqrt(r3 // a) + 1 + 2 * (2 * s + isqrt(r3 // b)))
        r3 -= dr3
        dr3 += 2 * c
        weight = 2
    return total


def count_primitive_form(g: Sequence[Sequence[int]], t: int) -> int:
    """#{x != 0 primitive : x^T g x <= t}, by Moebius inversion over the
    dilations d: the sum of mu(d) * #{x != 0 : x^T g x <= t // d^2}.

    Counts do not depend on the basis, so g is replaced by its checked
    Minkowski reduction (``_minkowski_reduced``, shared with
    ``min_form_value``), on which the interval counter walks the fewest
    rows.  Its first diagonal entry is lambda_1^2 (see
    ``successive_minima``), so no nonzero vector is left past
    d = isqrt(t // lambda_1^2) and the sieve stops there exactly.
    """
    if t < 0:
        return 0
    gred = _minkowski_reduced(tuple(map(tuple, g)))[0]
    d_max = isqrt(t // gred[0][0])
    mu = _moebius_upto(d_max)
    return sum(
        mu[d] * (count_form_le(gred, t // (d * d)) - 1) for d in range(1, d_max + 1) if mu[d]
    )


def _moebius_upto(n: int) -> list[int]:
    mu = [0] * (n + 1)
    if n >= 1:
        mu[1] = 1
    primes: list[int] = []
    is_comp = [False] * (n + 1)
    for i in range(2, n + 1):
        if not is_comp[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            if i * p > n:
                break
            is_comp[i * p] = True
            if i % p == 0:
                mu[i * p] = 0
                break
            mu[i * p] = -mu[i]
    return mu


def enumerate_form_le(g: Sequence[Sequence[int]], t: int) -> Iterator[Row]:
    """Yield one vector of each pair +-x of nonzero x in Z^3 with
    x^T g x <= t: the one whose last nonzero coordinate is positive, in
    ascending (x3, x2, x1) order (the rows of ``_half_slices``, walked with
    the same differences as ``count_form_le``).  ``hilb.fiber_points`` walks
    the Gram with its coordinates reversed for the sign-canonical order."""
    if t < 0:
        return
    (a, g01, _), (_, g11, _), _ = g
    step2 = 2 * (a * g11 - g01 * g01)
    for x3, lo2, hi2, beta, d, dd in _half_slices(g, t):
        for x2 in range(lo2, hi2 + 1):
            s1 = isqrt(d)
            for x1 in range(-((beta + s1) // a) if x2 or x3 else 1, (s1 - beta) // a + 1):
                yield (x1, x2, x3)
            beta += g01
            d += dd
            dd -= step2


# ---------------------------------------------------------------------------
# successive minima read off a Minkowski-reduced basis
# ---------------------------------------------------------------------------


def _assert_minkowski_reduced(g: Sequence[Sequence[int]]) -> None:
    """Raise AssertionError unless the symmetric integer Gram matrix g is
    Minkowski-reduced: 0 < a <= b <= c, 2|h| <= a, 2|k| <= a, 2|m| <= b, and
    g(e1*b1 + e2*b2 + b3) >= c, i.e. a + b + 2(e1 k + e2 m + e1 e2 h) >= 0,
    for e1, e2 = +-1 (a, b, c the diagonal; h, k, m the entries 01, 02, 12).

    Raised explicitly, not by ``assert``, so that ``python -O`` keeps it.
    """
    (a, h, k), (h1, b, m), (k1, m1, c) = g
    if not (
        h1 == h
        and k1 == k
        and m1 == m
        and 0 < a <= b <= c
        and 2 * abs(h) <= a
        and 2 * abs(k) <= a
        and 2 * abs(m) <= b
        and a + b + 2 * (k + m + h) >= 0
        and a + b + 2 * (k - m - h) >= 0
        and a + b + 2 * (m - k - h) >= 0
        and a + b + 2 * (h - k - m) >= 0
    ):
        raise AssertionError(f"Gram matrix is not Minkowski-reduced: {g}")


@lru_cache(maxsize=16)
def _minkowski_reduced(g: Matrix) -> tuple[Matrix, Matrix]:
    """``reduce_gram(g)``, checked to be Minkowski-reduced; cached so that
    ``successive_minima`` and ``min_form_value`` on one Gram reduce it once."""
    gred, u = reduce_gram(g)
    _assert_minkowski_reduced(gred)
    return gred, u


def successive_minima(q: QuotientLattice) -> SuccessiveMinima:
    """Exact successive minima of the quotient lattice with witness cosets.

    ``reduce_gram`` returns g_red = u^T gram_int u with u unimodular, and
    g_red is checked to be Minkowski-reduced (``_assert_minkowski_reduced``).
    In dimension at most 4 a Minkowski-reduced basis attains the successive
    minima (van der Waerden, "Die Reduktionstheorie der positiven
    quadratischen Formen", Acta Math. 96, 1956; Nguyen and Stehle,
    "Low-dimensional lattice basis reduction revisited", ACM Trans.
    Algorithms 5(4), 2009), and for ternary forms Minkowski's conditions
    are the ones with coefficients in {0, +-1} that the check tests
    (Minkowski 1905).  So lambda_i^2 * covol2_product is the i-th diagonal
    entry of g_red, and the i-th column of u is a witness.  The counting
    certificate of these values runs in ``verify`` (suite ``minkowski``).
    """
    gred, u = _minkowski_reduced(q.gram_int)
    d = q.covol2_product
    return SuccessiveMinima(
        lam1_sq=Fraction(gred[0][0], d),
        lam2_sq=Fraction(gred[1][1], d),
        lam3_sq=Fraction(gred[2][2], d),
        witnesses=tuple(zip(*u)),  # type: ignore[arg-type]
    )


def min_form_value(q: QuotientLattice) -> int:
    """Minimal nonzero value of gram_int, i.e. lambda_1^2 * covol2_product:
    the first diagonal entry of the Minkowski-reduced Gram matrix (see
    ``successive_minima``)."""
    return _minkowski_reduced(q.gram_int)[0][0][0]


# ---------------------------------------------------------------------------
# the kernel basis
# ---------------------------------------------------------------------------


@lru_cache(maxsize=128)
def _kernel_basis_cached(a: int, b: int, c: int) -> tuple[Row, Row]:
    g, x, y = _xgcd(b, c)
    if g == 0:  # the form X0
        return (0, 1, 0), (0, 0, 1)
    # the kernel vectors with v0 = 0 are the multiples of f, and
    # (g, -a x, -a y) has the least positive v0 (a is prime to g); both
    # steps below keep e x f = (a, b, c)
    f0, f1, f2 = 0, c // g, -b // g
    e1, e2 = -a * x, -a * y
    # the HNF basis: reduce e at f's pivot p into [0, |p|)
    p, ep = (f1, e1) if f1 else (f2, e2)
    k = (ep - ep % abs(p)) // p
    e0, e1, e2 = g, e1 - k * f1, e2 - k * f2
    ee = e0 * e0 + e1 * e1 + e2 * e2
    ff = f1 * f1 + f2 * f2
    # Lagrange reduction; ties keep the HNF order
    while True:
        if ff > ee:
            e0, e1, e2, f0, f1, f2 = -f0, -f1, -f2, e0, e1, e2
            ee, ff = ff, ee
        ef = e0 * f0 + e1 * f1 + e2 * f2
        if 2 * abs(ef) <= ff:
            return (e0, e1, e2), (f0, f1, f2)
        k = _nearest_div(ef, ff)
        e0, e1, e2 = e0 - k * f0, e1 - k * f1, e2 - k * f2
        ee += k * (k * ff - 2 * ef)


def kernel_basis_of(ell: LinearForm) -> tuple[Row, Row]:
    """Reduced oriented basis (e, f) of the integer kernel of the form.

    e x f = (a, b, c) and 2|e.f| <= f.f <= e.e: the Lagrange reduction of
    the HNF basis of the kernel, built in closed form from one extended gcd
    of (b, c).  Coset coordinates in ``quotient(ell)`` and the restricted
    binary form of a point are taken in this basis.

    Cached in a 128-entry LRU keyed by (a, b, c): a basis is asked for again
    right after it is built (by ``quotient`` and the fiber prune), which
    gives every hit of ``count_Nst(2, 1, 300)`` (232) and
    ``le_count_detailed(1000)`` (102).
    """
    return _kernel_basis_cached(*ell.triple)

