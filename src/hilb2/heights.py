"""Heights, restriction to the spanned line, and discriminants.

Restricting a point's quadric to the projective line cut out by its linear
form produces a primitive integer binary quadratic form, which is the point's
``qbar`` read in the reduced kernel basis of the form; its discriminant is
the discriminant of the point's coordinate ring.  The Le Rudulier height is
exact at the squared level through one closed form in qbar and the Gram
matrix of the kernel basis, and the ideal lattice of every degree has a
closed-form covolume.  The class-wise solutions, the two other discriminant
routes (split GCD of the cross product, nonsplit parameter formula) and the
ideal norms are the independent references in ``verify``; of them only the
nonsplit parameters ``nonsplit_params`` are defined here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, isqrt
from typing import Sequence

from .hilb import HilbPoint, monomials
from .lattice import _xgcd, dot, eval_quadratic, kernel_basis_of


class InternalCheckError(AssertionError):
    """An exact identity that must hold for valid points failed."""


@dataclass(frozen=True)
class BinaryQuadraticForm:
    """Primitive integer binary form A*S^2 + B*S*T + C*T^2."""

    A: int
    B: int
    C: int

    @property
    def disc(self) -> int:
        return self.B * self.B - 4 * self.A * self.C

    @property
    def coeffs(self) -> tuple[int, int, int]:
        return (self.A, self.B, self.C)


class PointClass(enum.Enum):
    NONREDUCED = "nonreduced"
    SPLIT = "split"
    NONSPLIT = "nonsplit"


@dataclass(frozen=True)
class NonsplitParams:
    """Data of a canonical quadratic-ring solution v = (g + alpha*sqrt(D)) e + beta*sqrt(D) f.

    e is the primitive direction of the rational part, f completes it to a
    basis of the kernel of the linear form, and D is the point's discriminant.
    """

    g: int
    alpha: int
    beta: int
    disc: int
    e: tuple[int, int, int]
    f: tuple[int, int, int]

    @property
    def rational_part(self) -> tuple[int, int, int]:
        return tuple(self.g * x for x in self.e)  # type: ignore[return-value]

    @property
    def irrational_part(self) -> tuple[int, int, int]:
        return tuple(self.alpha * x + self.beta * y for x, y in zip(self.e, self.f))  # type: ignore[return-value]


@lru_cache(maxsize=128)
def restrict_to_line(z: HilbPoint) -> BinaryQuadraticForm:
    """Restriction q(S e + T f) of the point's quadric to the line cut out by
    its form, for the kernel basis (e, f) = ``kernel_basis_of(z.ell)``.

    The coset coordinates ``z.qbar`` are exactly these coefficients, so the
    form is read off without evaluating anything; it is primitive and
    sign-normalized (leading nonzero coefficient positive) because qbar is.
    No library path calls it: they read ``z.qbar`` directly.  It stays, in
    a 128-entry LRU, only because the benchmark's layer tracer still reads
    its ``cache_info`` (ROADMAP item 14 deletes it); the bound keeps a
    caller that lists many points from holding one form per point.
    """
    return BinaryQuadraticForm(*z.qbar)


def discriminant(z: HilbPoint) -> int:
    """B^2 - 4AC of the restricted form qbar = (A, B, C)."""
    a, b, c = z.qbar
    return b * b - 4 * a * c


def is_perfect_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def classify(z: HilbPoint) -> PointClass:
    d = discriminant(z)
    if d == 0:
        return PointClass.NONREDUCED
    if is_perfect_square(d):
        return PointClass.SPLIT
    return PointClass.NONSPLIT


def nonsplit_params(z: HilbPoint) -> NonsplitParams:
    """Canonical (g, alpha, beta) decomposition of a quadratic-ring solution.

    Starting from the root (-B + sqrt(D) : 2A) of the restricted form, the
    solution vector splits into a rational part g*e (g its content) and an
    irrational part alpha*e + beta*f; f is the deterministic completion of e
    to a kernel basis with beta normalized positive.  The defining identities
    are asserted exactly before returning.
    """
    d = discriminant(z)
    if is_perfect_square(d):
        raise ValueError("point is not nonsplit")
    a, b, _ = z.qbar
    if a == 0:  # a vanishing leading coefficient forces a rational root
        raise InternalCheckError(f"nonsplit point with leading coefficient 0: {z.qbar}")
    e0, f0 = kernel_basis_of(z.ell)
    # rational part has kernel coordinates (-B, 2A), irrational part (1, 0)
    x, y = -b, 2 * a
    g = gcd(x, y)  # positive
    xh, yh = x // g, y // g
    e = tuple(xh * p + yh * q for p, q in zip(e0, f0))
    _, p, q = _xgcd(xh, yh)
    u, w = -q, p  # det [[xh, u], [yh, w]] = xh*w - yh*u = 1
    alpha, beta = w, -yh
    if beta < 0:
        u, w = -u, -w
        beta = -beta
    f = tuple(u * p0 + w * q0 for p0, q0 in zip(e0, f0))
    params = NonsplitParams(g=g, alpha=alpha, beta=beta, disc=d, e=e, f=f)  # type: ignore[arg-type]
    # exact reconstruction identities
    if params.rational_part != tuple(-b * p + 2 * a * q for p, q in zip(e0, f0)):
        raise InternalCheckError("rational part mismatch")
    if params.irrational_part != e0:
        raise InternalCheckError("irrational part mismatch")
    qv = z.q_lift()
    r, s2 = params.rational_part, params.irrational_part
    polar = eval_quadratic(qv, tuple(p + q for p, q in zip(r, s2))) - eval_quadratic(qv, r) - eval_quadratic(qv, s2)
    if eval_quadratic(qv, r) + d * eval_quadratic(qv, s2) != 0 or polar != 0:
        raise InternalCheckError("solution does not annihilate the quadric")
    return params


# ---------------------------------------------------------------------------
# heights
# ---------------------------------------------------------------------------


def _annihilators(qbar: Sequence[int], e: int) -> tuple[list[int], list[int]]:
    """Two independent integer solutions c of A c_j + B c_{j+1} + C c_{j+2} = 0
    (j = 0..e-2), for qbar = (A, B, C); see ``height2_e``."""
    a, b, c = qbar
    if a == c == 0:
        return [1] + [0] * e, [0] * e + [1]
    mirror = c == 0
    if mirror:
        a, c = c, a
    sols = []
    for u in ([1, 0], [0, 1]):
        while len(u) <= e:
            u.append(-b * u[-1] - a * c * u[-2])
        sol = [u[j] * c ** (e - j) for j in range(e + 1)]
        sols.append(sol[::-1] if mirror else sol)
    return sols[0], sols[1]


def _binary_product(u: Sequence[int], v: Sequence[int]) -> list[int]:
    """Product of two binary forms, coefficients indexed by the power of T."""
    out = [0] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            out[i + j] += x * y
    return out


def height2_e(z: HilbPoint, e: int) -> int:
    """Exact squared covolume of the degree-e ideal lattice I(e), e >= 1.

    I(e) is the saturation of l V_{e-1} + q V_{e-2} in V_e, the integer
    forms of degree e in their monomial coefficients (standard inner
    product).  With c1, c2 from ``_annihilators``, phi_j = c_j o rho and g
    the gcd of the 2x2 minors of (c1; c2):

        covol^2(I(e)) = det Gram(phi1, phi2) / g^2.

    Proof.  Let (k1, k2) = ``kernel_basis_of(l)`` and l(w) = 1; (w, k1, k2)
    is a basis of Z^3, so X = x w + S k1 + T k2 is an automorphism of V_e,
    and the restriction rho(F) = F(S k1 + T k2) maps V_e onto W_e, the
    integer binary forms of degree e (coordinate j: the coefficient of
    S^(e-j) T^j).  rho(q) = qbar = (A, B, C), and rho has kernel l V_{e-1}.

    * Over Q, F is in l V_{e-1} + q V_{e-2} iff rho(F) = qbar h for some h
      (lift h to H; then rho(F - q H) = 0).  qbar W_{e-2} is saturated in
      W_e by Gauss's lemma, since qbar is primitive, so
      I(e) = rho^-1(qbar W_{e-2}).
    * c annihilates qbar W_{e-2} iff A c_j + B c_{j+1} + C c_{j+2} = 0 for
      j = 0..e-2.  The products qbar S^(e-2-j) T^j are independent, so the
      solutions have rank (e + 1) - (e - 1) = 2, and the saturated lattice
      qbar W_{e-2} of rank e - 1 is the common kernel of any two
      independent solutions.  Hence I(e) = {F : phi1(F) = phi2(F) = 0}.
    * So I(e) is the orthogonal lattice of P = span(phi1, phi2) in V_e, and
      sat(P) is the orthogonal lattice of I(e).  A primitive lattice and
      its orthogonal lattice have the same covolume (W. M. Schmidt, "On
      heights of algebraic subspaces and diophantine approximations", Ann.
      of Math. 85, 1967), so covol^2(I(e)) = det Gram(phi1, phi2) /
      [sat(P) : P]^2.  rho has an integer right inverse, so rho^T is
      injective with saturated image and [sat(P) : P] = g.

    Solutions: for C != 0, run u_{j+2} = -B u_{j+1} - A C u_j from
    (u_0, u_1) = (1, 0) and (0, 1), and set c_j = u_j C^(e-j); then
    A c_j + B c_{j+1} + C c_{j+2} = C^(e-j-1) (A C u_j + B u_{j+1} + u_{j+2})
    = 0, and c_0, c_1 show the two are independent.  For C = 0 != A the same
    runs on (C, B, A) with the coordinates reversed.  For qbar = S T the
    conditions say c_1 = ... = c_{e-1} = 0, so c = (1, 0, ..., 0) and
    (0, ..., 0, 1).
    """
    if e < 1:
        raise ValueError("degree must be >= 1")
    c1, c2 = _annihilators(z.qbar, e)
    # powers[v][k]: the coefficients of (k1[v] S + k2[v] T)^k
    powers = []
    for p, q in zip(*kernel_basis_of(z.ell)):
        row = [[1]]
        for _ in range(e):
            row.append(_binary_product(row[-1], (p, q)))
        powers.append(row)
    phi1, phi2 = [], []
    for i, j, k in monomials(e):
        rho = _binary_product(_binary_product(powers[0][i], powers[1][j]), powers[2][k])
        phi1.append(dot(c1, rho))
        phi2.append(dot(c2, rho))
    g = 0
    for i, j in combinations(range(e + 1), 2):
        g = gcd(g, c1[i] * c2[j] - c1[j] * c2[i])
    det = dot(phi1, phi1) * dot(phi2, phi2) - dot(phi1, phi2) ** 2
    if det % (g * g):
        raise AssertionError(f"det {det} is not divisible by g^2 = {g * g}")
    return det // (g * g)


def height_e(z: HilbPoint, e: int) -> float:
    return height2_e(z, e) ** 0.5


def height2_st(z: HilbPoint, s: int | Fraction, t: int | Fraction) -> Fraction:
    """Exact squared height for integer exponents (s - t and t integral)."""
    s, t = Fraction(s), Fraction(t)
    if (s - t).denominator != 1 or t.denominator != 1:
        raise ValueError("exact squared height needs integer exponents")
    return Fraction(z.covol2_I1) ** int(s - t) * Fraction(z.covol2_I2) ** int(t)


def height_st(z: HilbPoint, s: float | Fraction, t: float | Fraction) -> float:
    """Height covol(I1)^(s-t) * covol(I2)^t for arbitrary real exponents."""
    return z.covol2_I1 ** ((s - t) / 2.0) * z.covol2_I2 ** (t / 2.0)


def le_height2(z: HilbPoint) -> int:
    """Exact square of the Le Rudulier height, an integer, in closed form.

    The height is |v|^2 |w|^2 for the two primitive integer solutions v, w of
    a split point, |v|^4 for the one solution of a nonreduced point, and, for
    a point defined over K = Q(sqrt(D)), |u|^2 |u'|^2 / N(I)^2: u is a
    solution with coordinates in K, u' its conjugate, I the ideal its
    coordinates generate in the maximal order, and |.| the Euclidean norm at
    each real place or the Hermitian norm |u|_h^2 = |u'|_h^2 at the complex
    place.  (``verify`` composes it that way, class by class, as the
    independent reference.)  With (e, f) = ``kernel_basis_of(ell)``, Gram
    entries ee, ef, ff, qbar = (A, B, C), D = B^2 - 4AC, n = a^2 + b^2 + c^2
    and L = A ff - B ef + C ee:

        H_Le^2 = L^2 + n D  if D > 0,  and  L^2  if D <= 0.

    Proof.  Let g(S, T) = |S e + T f|^2 = ee S^2 + 2 ef S T + ff T^2, the
    Gram form; disc g = -4 det Gram(e, f) = -4 |e x f|^2 = -4n.  The
    classical identity 4 Res(f1, f2) = (2 A1 C2 + 2 A2 C1 - B1 B2)^2 -
    disc f1 disc f2 gives Res(qbar, g) = L^2 + n D, and L is the apolar
    pairing of qbar with g.  If k qbar = (y1 S - x1 T)(y2 S - x2 T), then
    k^2 Res(qbar, g) = g(x1, y1) g(x2, y2) = (u1 . u1)(u2 . u2) for the
    points u_i = x_i e + y_i f of the subscheme.

    * D a square (D = 0 included): by Gauss's lemma qbar = +-(y1 S - x1 T)
      (y2 S - x2 T) with primitive integer factors.  The u_i are primitive
      because (e, f) is a basis of a saturated lattice, so H_Le^2 =
      |u1|^2 |u2|^2 = Res(qbar, g) = L^2 + n D.
    * D not a square (so A != 0): x1 = -B + sqrt(D), y1 = 2A and the
      conjugates give k = 4A.  (e, f) extends to a basis of Z^3, so the
      coordinates of u1 generate I = (x1, y1).  Content ideals multiply in
      the maximal order (Gauss's lemma) and qbar is primitive, so
      I I' = (4A) and N(I)^2 = 16 A^2.
      - D > 0: H_Le^2 = |u1|^2 |u2|^2 / 16 A^2 = Res(qbar, g).
      - D < 0: write u1 = r + sqrt(D) s with r = -B e + 2A f, s = e.  By
        Lagrange's identity |u1|_h^4 = |u1 . u1|^2 + 4|D| |r x s|^2, and
        |u1 . u1|^2 = (u1 . u1)(u2 . u2) = 16 A^2 Res, |r x s|^2 = 4 A^2 n.
        So H_Le^2 = Res + n |D| = L^2.

    Corollaries used by the anticanonical count: Res >= 0 for D < 0 (it is
    |u1 . u1|^2 / 16 A^2), so L^2 >= n |D| there, and H_Le^2 >= n |D| >= n
    for every point that is not nonreduced.
    """
    e, f = kernel_basis_of(z.ell)
    return le_height2_gram(dot(e, e), dot(e, f), dot(f, f), z.ell.norm2, z.qbar)


def le_height2_gram(ee: int, ef: int, ff: int, n: int, qbar: Sequence[int]) -> int:
    """The closed form of ``le_height2`` on integers: H_Le^2 = L^2 + n D if
    D > 0 and L^2 otherwise, with L = A ff - B ef + C ee and D = B^2 - 4AC
    for qbar = (A, B, C), the Gram entries ee, ef, ff of the kernel basis
    and n = covol2_I1.  The anticanonical count calls it once per scanned
    vector with the Gram entries of its fiber."""
    a, b, c = qbar
    el = a * ff - b * ef + c * ee
    d = b * b - 4 * a * c
    return el * el + n * d if d > 0 else el * el


def le_height(z: HilbPoint) -> float:
    return float(le_height2(z)) ** 0.5
