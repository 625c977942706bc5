"""Canonical point model and exact bounded-height enumeration.

An integral point is a pair of primitive lattices: a rank-1 lattice spanned by
a primitive linear form, and a rank-4 lattice of quadrics containing all
degree-1 multiples of that form.  A point is stored canonically as the
sign-normalized form together with the coset coordinates ``qbar`` of its
quadric in the quotient lattice, so two defining systems give equal HilbPoint
values exactly when they cut out the same pair of lattices.  ``qbar`` is the
restriction of the quadric to the reduced kernel basis of the form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import permutations, product
from math import ceil, comb, gcd, isqrt, lcm, log10, pi
from typing import Iterator, Sequence

from .lattice import (
    LinearForm,
    count_primitive_form,
    enumerate_form_le,
    eval_quadratic,  # re-exported: part of the point API
    iroot,
    kernel_basis_of,
    min_form_value,
    product_covol2_formula,
    quotient,
    sign_canonical,
)


class PointValidationError(ValueError):
    """Input does not define an integral point."""


class QInSpanError(PointValidationError):
    """The quadric lies in the span of the degree-1 multiples of the form."""


class NonPrimitiveIdealError(PointValidationError):
    """The degree-2 lattice is not primitive (e.g. the X0, 2*X1^2 obstruction)."""


@lru_cache(maxsize=8)
def monomials(d: int) -> tuple[tuple[int, int, int], ...]:
    """Degree-d monomial exponents in descending lexicographic order."""
    out = []
    for i in range(d, -1, -1):
        for j in range(d - i, -1, -1):
            out.append((i, j, d - i - j))
    return tuple(out)


@dataclass(frozen=True)
class HilbPoint:
    """Canonical representative of an integral point: its two fields define it.

    ``qbar`` holds the coset coordinates of the quadric in ``quotient(ell)``:
    the coefficients (A, B, C) of its restriction A*S^2 + B*S*T + C*T^2 to
    the kernel basis (e, f) = ``kernel_basis_of(ell)``.  It is primitive and
    sign-canonical.  Equality and hash are over (ell, qbar) only.
    """

    ell: LinearForm
    qbar: tuple[int, int, int]

    def __post_init__(self) -> None:
        if self.qbar == (0, 0, 0):
            raise QInSpanError("q in span")
        if gcd(gcd(self.qbar[0], self.qbar[1]), self.qbar[2]) != 1:
            raise NonPrimitiveIdealError("non-primitive Lambda_2")
        if self.qbar != sign_canonical(self.qbar):
            raise ValueError("qbar must be sign-canonical")

    @property
    def covol2_I1(self) -> int:
        return self.ell.norm2

    @cached_property
    def covol2_I2(self) -> int:
        """Exact squared covolume of the degree-2 ideal lattice, derived once."""
        return quotient(self.ell).covol2_with(self.qbar)

    def q_lift(self) -> tuple[int, ...]:
        """Canonical monomial-coordinate lift of the quadric."""
        return quotient(self.ell).lift(self.qbar)


def canonicalize(ell_raw: Sequence[int], q: Sequence[int]) -> HilbPoint:
    """Build the canonical point from a raw linear form and quadric.

    The form is divided by its content and sign-normalized; the quadric is
    reduced modulo the degree-1 multiples of the form to coset coordinates.
    ``HilbPoint`` raises QInSpanError if the quadric is a multiple of the
    form, and NonPrimitiveIdealError when the resulting degree-2 lattice is
    not primitive (the mod-p obstruction).
    """
    if len(ell_raw) != 3 or len(q) != 6:
        raise PointValidationError("expected a linear triple and six quadric coefficients")
    ell = LinearForm.from_raw(*ell_raw)
    return HilbPoint(ell, sign_canonical(quotient(ell).coset_coords(q)))


# ---------------------------------------------------------------------------
# bounded-height enumeration
# ---------------------------------------------------------------------------


def _finite_fraction(name: str, x: float | Fraction) -> Fraction:
    try:
        return Fraction(x)
    except (OverflowError, ValueError):  # +-inf, NaN
        raise ValueError(f"{name} must be a finite number, got {x!r}") from None


def positive_exponents(s: float | Fraction, t: float | Fraction) -> tuple[Fraction, Fraction]:
    """(s, t) as Fractions; ValueError unless both are finite and positive,
    since the point count is infinite otherwise."""
    s, t = _finite_fraction("s", s), _finite_fraction("t", t)
    if s <= 0 or t <= 0:
        raise ValueError("s and t must be positive")
    return s, t


def nonnegative_bound(bound: float | Fraction) -> Fraction:
    """The height bound as a Fraction; ValueError if it is negative or not
    finite.  Every entry point that takes B checks it here."""
    b = _finite_fraction("B", bound)
    if b < 0:
        raise ValueError("B must be nonnegative")
    return b


# ``height_query`` refuses a query whose exact comparisons would need
# integers of more than this many bits.  Every integer B that the orbit walk
# admits at (s, t) = (2, 1) needs fewer than 100.
_MAX_EXACT_BITS = 1 << 14


def height_query(
    s: float | Fraction, t: float | Fraction, bound: float | Fraction
) -> tuple[int, int, int, int]:
    """(s, t, B) cleared of denominators once, as integers (a, b, num, den):
    a = L (s - t) and b = L t for L the lcm of the denominators of s and t,
    num / den = B^(2L) in lowest terms.  A point has height <= B exactly
    when covol2_I1^a * covol2_I2^b * den <= num, so every comparison below
    the query is in integers.  (s, t, B) are checked by
    ``positive_exponents`` and ``nonnegative_bound``, the one check of every
    entry point that takes all three.  ValueError, before any power is
    taken, when the comparisons would need more than ``_MAX_EXACT_BITS`` bits.

    Estimate, with beta the bits of B's numerator and denominator.
    ``norm_cutoff`` roots (3/2)^b B^(2L), of fewer than L (2t + 2 beta)
    bits, and the forms below it have n < 2^(2 + (2t + 2 beta) / s);
    ``max_covol2_I2`` multiplies B^(2L) by n^|a|.  Both stay below
    L (2t + 2 beta + |s - t| (2 + (2t + 2 beta) / s)) bits.
    """
    s, t = positive_exponents(s, t)
    bound = nonnegative_bound(bound)
    beta = max(bound.numerator.bit_length(), bound.denominator.bit_length())
    per_l = 2 * t + 2 * beta + abs(s - t) * (2 + (2 * t + 2 * beta) / s)
    big_l = lcm(s.denominator, t.denominator)
    bits = ceil(big_l * per_l)
    if bits > _MAX_EXACT_BITS:
        raise ValueError(
            f"the exact height comparison needs integers of about "
            f"10^{log10(bits):.1f} bits, more than {_MAX_EXACT_BITS}"
        )
    two_l = 2 * big_l
    return int(big_l * (s - t)), int(big_l * t), bound.numerator**two_l, bound.denominator**two_l


def max_covol2_I2(cv1_sq: int, query: tuple[int, int, int, int]) -> int:
    """Largest integer k with cv1_sq^a * k^b * den <= num, the height bound
    on the fiber of a form with covol2_I1 = cv1_sq (``height_query``)."""
    a, b, num, den = query
    if a >= 0:
        return iroot(num // (den * cv1_sq**a), b)
    return iroot(num * cv1_sq**-a // den, b)


def norm_cutoff(query: tuple[int, int, int, int]) -> int:
    """Rigorous cutoff on the norm n of a form, the sum of its squared
    coordinates: past it every point has height > bound.  For the query
    (a, b, num, den) of ``height_query`` it is the largest n with
    n^(a + b) <= floor(3^b num / (2^b den)), one integer root, as a + b = sL
    and num / den = bound^(2L).

    Lemma: every quadric q outside the span l*V of the degree-1 multiples of
    the form has dist^2(q, l*V) >= 1/(2n) when disc(qbar) != 0 and
    dist^2(q, l*V) >= 1/n^2 when disc(qbar) = 0; in particular 2 n^2 *
    min_form_value(quotient(l)) >= covol2_product.  Proof:

    * the monomial-coefficient norm of q is at least the Frobenius norm of
      its symmetric matrix Q, so a Frobenius distance bound suffices;
    * under the Frobenius product the complement of l*V is {Q : Q l = 0},
      so the distance is the Frobenius norm of q restricted to the plane
      l^perp: X = K^-T Qbar K^-1 for the kernel basis K = [e f], where Qbar
      is the symmetric matrix of qbar and the Gram matrix G = K^T K of
      (e, f) has det G = |e x f|^2 = n;
    * if disc(qbar) != 0: ||X||_F^2 >= 2 |det X| = |disc| / (2n) >= 1/(2n);
    * if disc(qbar) = 0: qbar = k (u S + v T)^2 with integers k, u, v, and
      ||X||_F^2 = k^2 (w^T adj(G) w / n)^2 >= 1/n^2 for w = (u, v), since
      adj(G) is a positive definite integer matrix.

    With covol2_I2 = covol2_product dist^2 and covol2_product >= (2/3) n^3
    (sum a^6 + 3 a^2 b^2 c^2 >= 0), the cases give covol2_I2 >= n^2 / 3 >=
    2n / 3 (n >= 2; at n = 1 the integer covol2_I2 is >= 1) and covol2_I2 >=
    2n / 3.  So H^2 = n^(s-t) covol2_I2^t >= (2/3)^t n^s, and a point of
    height <= bound has the integer n^(sL) <= (3/2)^(tL) bound^(2L).
    """
    a, b, num, den = query
    return iroot(3**b * num // (2**b * den), a + b)


# The exact counts and the point listing refuse a walk over more than this
# many triples 0 <= a <= b <= M <= m_max, C(m_max + 3, 3) of them: it would
# take hours of fiber work.  count_Nst(2, 1, 400) walks 928 of its 2300.
_MAX_REPRESENTATIVES = 10**6
# The listing also refuses more points than this, by a lower bound and then
# by their exact count: at (s, t) = (2, 1) the bound refuses B >= 409, and
# the exact count admits B = 55 (987757 points), not B = 56.
_MAX_POINTS = 10**6
# The count and the listing refuse a fiber's ellipsoid walk over more rows
# than this, by the estimate of ``_capped_orbits``; at count_Nst(2, 1,
# 26454) the largest, that of the (0, 0, 1) fiber, is about 3.9 * 10^8.
_MAX_FIBER_ROWS = 10**9


def _check_orbit_walk(n_max: int) -> None:
    """ValueError when ``_orbit_representatives(n_max)`` would walk more than
    ``_MAX_REPRESENTATIVES`` triples, C(isqrt(n_max) + 3, 3): the whole cube,
    not the forms the norm bound keeps.  Each walk checks it once, first."""
    estimate = comb(isqrt(n_max) + 3, 3)
    if estimate > _MAX_REPRESENTATIVES:
        raise ValueError(
            f"B is too large: about 10^{log10(estimate):.1f} orbit representatives "
            f"to walk, more than {_MAX_REPRESENTATIVES}"
        )


def _orbit_representatives(n_max: int) -> Iterator[tuple[LinearForm, int]]:
    """Yield (LinearForm(a, b, M), h) for the primitive (a, b, M), 0 <= a <=
    b <= M, with a^2 + b^2 + M^2 <= n_max, in shell order and lexicographic
    in (b, a).  The shells run to m_max = isqrt(n_max), since M^2 <= n.

    ``_capped_orbits`` passes ``norm_cutoff`` and ``le_count_detailed`` X =
    iroot(floor(B^2), 3), as H^2 >= n on every point it counts; each checks
    the walk first (``_check_orbit_walk``) and reads the stream once.

    The one walk of ``count_Nst``, ``le_count_detailed`` and
    ``enumerate_points``: each orbit of the 48 signed coordinate
    permutations holds one (a, b, M), and h of its (1, 3 or 6 distinct
    permutations) * 2^(nonzero coordinates) elements are sign-canonical
    (``_orbit_forms``).  Every fiber quantity they read is constant on an
    orbit.  A signed permutation sigma of X0, X1, X2 is an orthogonal map
    of Z^3, so q -> q o sigma maps the points over l bijectively to those
    over l o sigma, keeping n = a^2 + b^2 + c^2 and primitivity.  It
    permutes the monomials up to sign, an isometry of Z^6 with the
    monomial-coefficient inner product, so it keeps covol2_I1, covol2_I2
    and every height built from them.  It carries the kernel lattice of l
    isometrically onto that of l o sigma and keeps the restricted binary
    form; L (the apolar pairing with the kernel Gram form) and D do not
    change under a unimodular change of kernel basis, so neither do the Le
    Rudulier height H^2 = L^2 + n D (or L^2) and the
    split/nonsplit/nonreduced class.
    """
    for m in range(1, isqrt(n_max) + 1):
        for b in range(m + 1):
            gbm = gcd(b, m)
            for a in range(b + 1):
                if a * a + b * b + m * m > n_max:
                    break
                if gcd(a, gbm) == 1:
                    yield LinearForm(a, b, m), _canonical_orbit_size(a, b, m)


def _capped_orbits(query: tuple[int, int, int, int]) -> Iterator[tuple[LinearForm, int, int]]:
    """The one walk of ``count_Nst`` and ``enumerate_points``, as lazy as the
    orbit walk: (form, h, t_max = ``max_covol2_I2``) below ``norm_cutoff``,
    as a point of height <= B has (2/3)^t n^s <= H^2 <= B^2, and nothing
    when B < 1 (num < den).  ValueError, before any representative, when
    the walk is too long (``_check_orbit_walk``), then when a fiber's
    ellipsoid walk would visit more than ``_MAX_FIBER_ROWS`` rows.

    The rows (x1, x2) of x^T gram_int x <= t_max along the first minimum m0
    fill an ellipse of area pi t_max sqrt(m0) / cp (det gram_int = cp^2, cp
    = covol2_product); the count walks a quarter of them or more, and m0 >=
    cp / (2 r^2) for r = E + |G| (``fiber_point_count``).  The estimate pi
    t_max / (4 sqrt(2) r sqrt(cp)) is largest at (0, 0, 1), r = cp = 1 and
    t_max = t1 = max_covol2_I2(1, query), as t_max <= r sqrt(cp) t1: one
    check, 9 t1^2 > 32 ``_MAX_FIBER_ROWS``^2 (9 < pi^2), covers every fiber.
    Proof, with B >= 1 and T = (num / den)^(1/b) < t1 + 1 <= 2 t1.  For s
    >= t (a >= 0), k^b den <= n^a k^b den <= num gives t_max <= t1.  For s
    < t, t_max <= T n^(-a/b) < 2 t1 n (-a < b); n = E F - G^2 <= E^2 (F <=
    E, Lagrange-reduced) gives r >= sqrt(n), and cp >= (2/3) n^3
    (``norm_cutoff``), so r sqrt(cp) >= sqrt(2/3) n^2 >= 2n for n >= 3; at
    n = 2, (0, 1, 1) has r sqrt(cp) = 2 sqrt(6) > 4; at n = 1, t_max = t1.
    """
    if query[2] < query[3]:
        return
    n_max = norm_cutoff(query)
    _check_orbit_walk(n_max)
    t1 = max_covol2_I2(1, query)
    if 9 * t1 * t1 > 32 * _MAX_FIBER_ROWS**2:
        rows = log10(pi / 32**0.5) + log10(t1)
        raise ValueError(f"B is too large: about 10^{rows:.1f} ellipsoid rows to walk in the fiber "
                         f"over (0, 0, 1), more than {_MAX_FIBER_ROWS}")
    for rep, h in _orbit_representatives(n_max):
        yield rep, h, max_covol2_I2(rep.norm2, query)


def _canonical_orbit_size(a: int, b: int, m: int) -> int:
    """The number h of sign-canonical forms in the orbit of (a, b, m), 0 <= a
    <= b <= m, m > 0 (``_orbit_representatives``); also elementwise on int64
    arrays, as ``asymptotics._pair_tables`` reads it for b < m and b = m."""
    return (6 >> ((a == b) * 1 + (b == m))) << ((a > 0) * 1 + (b > 0))


def _orbit_forms(rep: LinearForm) -> set[LinearForm]:
    """The sign-canonical forms in the orbit of ``rep`` under the signed
    coordinate permutations.  Negating all three coordinates keeps the
    sign-canonical form, so the first coordinate keeps its sign."""
    return {
        LinearForm(*sign_canonical((x, sy * y, sz * z)))
        for x, y, z in permutations(rep.triple)
        for sy, sz in product((1, -1), repeat=2)
    }


def canonical_forms(m_max: int) -> list[LinearForm]:
    """All primitive sign-canonical forms with max |coordinate| <= m_max, in
    lexicographic order of (a, b, c): the full walk, kept as the reference
    for the orbit walk of ``_orbit_representatives``.  The library paths do
    not call it."""
    out = []
    rng = range(-m_max, m_max + 1)
    for a in range(0, m_max + 1):
        bs = rng if a > 0 else range(0, m_max + 1)
        for b in bs:
            if a == 0 and b == 0:
                if m_max >= 1:
                    out.append(LinearForm(0, 0, 1))
                continue
            for c in rng:
                if gcd(gcd(a, b), c) == 1:
                    out.append(LinearForm(a, b, c))
    return out


def fiber_points(ell: LinearForm, t_max: int) -> Iterator[HilbPoint]:
    """The points over ``ell`` with covol2_I2 <= t_max, qbar-lexicographic,
    with no prune, as they are walked: ``enumerate_form_le`` on the quotient
    Gram reversed, g'[i][j] = g[2 - i][2 - j], yields y in ascending (y3, y2,
    y1) order with its last nonzero entry positive, so qbar = (y3, y2, y1)."""
    g = quotient(ell).gram_int
    for y1, y2, y3 in enumerate_form_le([row[::-1] for row in g[::-1]], t_max):
        if gcd(gcd(y1, y2), y3) == 1:
            yield HilbPoint(ell, (y3, y2, y1))


def fiber_point_count(ell: LinearForm, t_max: int) -> int:
    """Exact |fiber_points(ell, t_max)| without materializing the points.

    Prune.  With (e, f) = ``kernel_basis_of(ell)``, E = e.e and G = e.f,
    every quadric q outside l*V has covol2_I2 >= covol2_product /
    (2 (E + |G|)^2), so the fiber is empty when 2 (E + |G|)^2 t_max <
    covol2_product.  Proof: the monomial-coefficient norm of q is at least
    the Frobenius norm of its symmetric matrix, whose distance to l*V is
    the Frobenius norm of q restricted to the plane l^perp (see
    ``norm_cutoff``): dist_F^2 = tr((G^-1 Qbar)^2) for the Gram matrix G of
    (e, f) and the symmetric matrix Qbar of qbar.  That is the squared
    Frobenius norm of G^-1/2 Qbar G^-1/2, so dist_F^2 >= ||Qbar||_F^2 /
    lambda_max(G)^2, and ||Qbar||_F^2 = A^2 + C^2 + B^2 / 2 >= 1/2 for
    qbar != 0.  By Gershgorin lambda_max(G) <= E + |G|, since E >= f.f.
    For the Lagrange-reduced basis E + |G| <= n = a^2 + b^2 + c^2 (n = E F
    - G^2 with F = f.f, 2|G| <= F <= E), so the prune fires wherever the
    n^2 bound of ``norm_cutoff`` would.

    The prune is decided in closed form, before the quotient is built; the
    same bound on the first minimum, 2 (E + |G|)^2 * min_form_value >=
    covol2_product, is checked on every fiber that is built, raised
    explicitly so that python -O keeps it.
    """
    (e0, e1, e2), (f0, f1, f2) = kernel_basis_of(ell)
    r = e0 * e0 + e1 * e1 + e2 * e2 + abs(e0 * f0 + e1 * f1 + e2 * f2)  # E + |G|
    if 2 * r * r * t_max < product_covol2_formula(*ell.triple):
        return 0
    quo = quotient(ell)
    m0 = min_form_value(quo)
    if 2 * r * r * m0 < quo.covol2_product:
        raise AssertionError(f"first-minimum bound violated at {ell.triple}")
    if t_max < m0:
        return 0
    n = count_primitive_form(quo.gram_int, t_max)
    if n % 2:
        raise AssertionError(f"odd primitive count {n} at {ell.triple}")
    return n // 2


def enumerate_points(
    s: float | Fraction,
    t: float | Fraction,
    bound: float | Fraction,
) -> Iterator[HilbPoint]:
    """Yield every point of height at most ``bound`` exactly once.

    Order is deterministic: forms lexicographic, then qbar lexicographic.
    Heights use the non-strict convention (<= bound) with exact comparisons;
    (s, t, B) must pass ``height_query``.  ValueError, before the first
    point, when ``_capped_orbits`` refuses the walk or the listing would
    hold more than ``_MAX_POINTS`` points.

    The points are first bounded below on the first representative (0, 0,
    1), before its fiber, most of the count, is counted and before the walk
    goes past it.  Its quotient Gram is I and its orbit holds 3 forms.  With
    k = isqrt((t_max - 1) // 2), so 2 k^2 + 1 <= t_max, the fiber holds
    every (x1, x2, 1) with |x1|, |x2| <= k, each primitive and no two +-
    each other: at least 3 (2k + 1)^2 points.

    One fiber is counted per orbit (``_capped_orbits``); t_max and the count
    are constant on the orbit, and the count is 0 exactly when
    ``fiber_point_count`` finds the fiber empty (a vector attaining the first
    minimum is primitive, so it is a point).  Each fiber is walked in the
    order it is listed (``fiber_points``), its points counted as they are
    yielded and checked against its orbit's count when it ends, raised
    explicitly so that python -O keeps it.
    """
    fibers = []
    total = 0
    for rep, h, t_max in _capped_orbits(height_query(s, t, bound)):
        if rep.norm2 == 1:
            low = h * (2 * isqrt((t_max - 1) // 2) + 1) ** 2
            if low > _MAX_POINTS:
                raise ValueError(f"B is too large: at least {low} points to list, more than {_MAX_POINTS}")
        count = fiber_point_count(rep, t_max)
        if count:
            total += h * count
            fibers.extend((ell, t_max, count) for ell in _orbit_forms(rep))
    if total > _MAX_POINTS:
        raise ValueError(f"B is too large: {total} points to list, more than {_MAX_POINTS}")
    for ell, t_max, count in sorted(fibers, key=lambda f: f[0].triple):
        listed = 0
        for z in fiber_points(ell, t_max):
            listed += 1
            yield z
        if listed != count:
            raise AssertionError(f"{listed} points listed at {ell.triple}, {count} counted")
