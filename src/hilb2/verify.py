"""Named verification suites.

Each suite revalidates one block of the library's mathematical claims against
independent computations and returns a deterministic report dict:
{"suite", "params", "checks": [{"name", "passed", "detail"}], "passed"}.
Suites are pure given their parameters (seeded randomness only), so reruns
and different thread counts produce byte-identical reports.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, inf, isqrt, log, log10
from typing import Sequence

from .asymptotics import count_Nst, parallel_map
from .constants import PI, PI_BRACKET, ZETA3
from .exactlin import det_bareiss, gram_det2, smith_minor_gcd
from .heights import (
    InternalCheckError,
    NonsplitParams,
    PointClass,
    classify,
    discriminant,
    is_perfect_square,
    le_height2,
    nonsplit_params,
)
from .hilb import HilbPoint, canonical_forms, canonicalize, enumerate_points
from .lattice import (
    LinearForm,
    _moebius_upto,
    count_form_le,
    count_primitive_form,
    cross,
    iroot,
    kernel_basis_of,
    product_covol2_formula,
    quotient,
    sign_canonical,
    successive_minima,
)
from .oracles import (
    count_primitive_gram_boxscan,
    distance_lemma_reaches,
    distance_lemma_violations,
    oracle_count_points,
    prime_exponents,
    product_basis,
)


def _check(checks: list, name: str, passed: bool, detail: str = "") -> None:
    checks.append({"name": name, "passed": bool(passed), "detail": detail})


def _at_least_one(**sizes: int) -> None:
    """ValueError for a size parameter below 1: the suite would check
    nothing and still report a pass."""
    for name, value in sizes.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def _nonempty(total: int, height_bound: float) -> None:
    """ValueError when a point sample is empty, for the same reason."""
    if total == 0:
        raise ValueError(f"no points of height at most {height_bound} to check")


# ``check_form_walk`` refuses a walk over more than this many sign-canonical
# forms, about (2 m_max + 1)^3 / 2 of them: ``canonical_forms`` builds them
# all (about 120 bytes each) before the first one is checked.  The largest
# m_max it admits is 62.
_MAX_FORMS = 10**6


def check_form_walk(m_max: int, name: str) -> None:
    """ValueError, naming the size parameter ``name``, when
    ``canonical_forms(m_max)`` would hold more than ``_MAX_FORMS`` forms."""
    estimate = (2 * m_max + 1) ** 3 // 2
    if estimate > _MAX_FORMS:
        raise ValueError(
            f"{name} is too large: about 10^{log10(estimate):.1f} forms to walk, "
            f"more than {_MAX_FORMS}"
        )


# ``suite_minima`` refuses a box of more than this many points, (2 box + 1)^6;
# the oracle holds several int64 arrays of that length.  box = 4 is the
# largest admitted (531441 points), the spec box 3 has 117649.
_MAX_GRID = 10**6

# ``suite_gon``'s volume-matched radius factors k and the bound on the
# envelope constant its counts require; ``suite_oracle_count``'s (s, t).
_GON_KS = (5, 10, 20)
_GON_C_BOUND = 50.0
_ORACLE_ST_PAIRS = ((2, 1), (3, 1), (3, 2))


def suite_sl_formula(m_max: int = 30, threads: int = 1) -> dict:
    """Covolume polynomial vs Gram determinant, plus the sandwich bounds."""
    _at_least_one(m_max=m_max)
    check_form_walk(m_max, "m_max")
    forms = canonical_forms(m_max)
    bad = parallel_map(_sl_worker, [(f,) for f in forms], threads, chunksize=2048)
    failures = [b for b in bad if b is not None]
    checks: list = []
    _check(checks, "polynomial-equals-gram-det", not failures, f"{len(forms)} forms, {len(failures)} failures")
    return _report("sl-formula", {"m_max": m_max}, checks)


def _sl_worker(ell: LinearForm):
    cv = gram_det2(product_basis(ell))
    if cv != product_covol2_formula(*ell.triple):
        return (ell.triple, "formula")
    r2 = ell.norm2
    if not (2 * r2**3 <= 3 * cv and cv <= r2**3):
        return (ell.triple, "sandwich")
    return None


def _count_nonzero_lt(g: Sequence[Sequence[int]], t: int) -> int:
    """#{x != 0 : x^T g x < t}."""
    return count_form_le(g, t - 1) - 1 if t > 0 else 0


def _polar(g: Sequence[Sequence[int]], x: Sequence[int], y: Sequence[int]) -> int:
    return sum(g[i][j] * x[i] * y[j] for i in range(3) for j in range(3))


# the 93313 forms of ``suite_minkowski`` at m_max 30 have 8077 distinct
# quotient Grams, and the certificate runs once for each
@lru_cache(maxsize=1 << 14)
def _certify_minima(g: tuple, vals: tuple[int, ...], wits: tuple) -> bool:
    """Exact counting certificate that ``vals`` are the successive minima of
    the PD integer Gram matrix g, attained by the independent ``wits``: no
    nonzero vector lies below the first value, only multiples of the first
    witness below the second, and only vectors of the lattice spanned by the
    first two witnesses below the third.  The tuples key the cache."""
    l1, l2, l3 = vals
    w1, w2, _ = wits
    if [_polar(g, w, w) for w in wits] != [l1, l2, l3] or det_bareiss(wits) == 0:
        return False
    if _count_nonzero_lt(g, l1) != 0:
        return False
    # the line of w1 and the plane of (w1, w2) are counted on their Grams
    # padded to rank 3 by diagonal entries at the bound: a nonzero padded
    # coordinate already reaches it, so only their own vectors are counted
    if _count_nonzero_lt(g, l2) != _count_nonzero_lt(((l1, 0, 0), (0, l2, 0), (0, 0, l2)), l2):
        return False
    p = _polar(g, w1, w2)
    return _count_nonzero_lt(g, l3) == _count_nonzero_lt(((l1, p, 0), (p, l2, 0), (0, 0, l3)), l3)


def _mink_worker(ell: LinearForm) -> list[str]:
    """Exact minima checks for one form; returns the tags of failed checks.
    Every bound is read on the integers g_i = lambda_i^2 covol2_product,
    cross-multiplied; minima off that scale fail the certificate and bounds."""
    q = quotient(ell)
    sm = successive_minima(q)
    cp = q.covol2_product
    scaled = [divmod(lam.numerator * cp, lam.denominator) for lam in (sm.lam1_sq, sm.lam2_sq, sm.lam3_sq)]
    if any(r for _, r in scaled):
        return ["minima-count-certificate", "minima-not-integral"]
    g1, g2, g3 = g = tuple(v for v, _ in scaled)
    fails = []
    if not _certify_minima(q.gram_int, g, sm.witnesses):
        fails.append("minima-count-certificate")
    if g3 > cp:
        fails.append("lam3")
    if g1 * 49 * ell.M**4 < cp:
        fails.append("lam1")
    if 2 * ell.norm2**2 * g1 < cp:
        fails.append("lam1-n2")
    prod, cp2 = g1 * g2 * g3, cp * cp
    pi_lo, pi_hi = PI_BRACKET
    # squared Minkowski, (16/9) covol2 <= prod * (16 pi^2/9) <= 64 covol2, times cp^3
    if cp2 * pi_lo.denominator**2 > prod * pi_lo.numerator**2:
        fails.append("minkowski-lower")
    if prod * pi_hi.numerator**2 > 36 * cp2 * pi_hi.denominator**2:
        fails.append("minkowski-upper")
    return fails


def suite_minkowski(m_max: int = 30, threads: int = 1) -> dict:
    """Successive-minima bounds and Minkowski's second theorem, exhaustively,
    plus the first-minimum bound 2 n^2 lambda_1^2 >= 1 (n = a^2 + b^2 + c^2)
    behind the count's cutoff and empty-fiber prune, and an exact counting
    certificate of the minima read off the reduced Gram matrix."""
    _at_least_one(m_max=m_max)
    check_form_walk(m_max, "m_max")
    forms = canonical_forms(m_max)
    results = parallel_map(_mink_worker, [(f,) for f in forms], threads, chunksize=512)
    own_checks = {"lam1-n2", "minima-count-certificate"}
    failures = [tags for tags in results if set(tags) - own_checks]
    n2_failures = [tags for tags in results if "lam1-n2" in tags]
    cert_failures = [tags for tags in results if "minima-count-certificate" in tags]
    checks: list = []
    _check(checks, "minima-bounds-and-minkowski", not failures, f"{len(forms)} forms, {len(failures)} failures")
    _check(checks, "first-minimum-lower-bound", not n2_failures, f"2 n^2 lam1^2 >= 1 on {len(forms)} forms, {len(n2_failures)} failures")
    _check(checks, "minima-count-certificate", not cert_failures, f"exact counts on {len(forms)} forms, {len(cert_failures)} failures")
    best_fail = []
    for m in range(2, m_max + 1):
        sm = successive_minima(quotient(LinearForm(m, m - 1, 0)))
        if sm.lam1_sq > Fraction(1, (m * m - m) ** 2):
            best_fail.append(m)
    _check(checks, "first-minimum-sharpness", not best_fail, f"forms (M, M-1, 0), M=2..{m_max}")
    return _report("minkowski", {"m_max": m_max}, checks)


def suite_minima(m_max: int = 4, box: int = 3) -> dict:
    """Exhaustive distance lower bounds outside the span: dist^2 >= 1/(49 M^4)
    and the first-minimum bound dist^2 >= 1/(2 n^2), n = a^2 + b^2 + c^2."""
    _at_least_one(m_max=m_max, box=box)
    check_form_walk(m_max, "m_max")
    grid = (2 * box + 1) ** 6
    if grid > _MAX_GRID:
        raise ValueError(f"box is too large: {grid} points, more than {_MAX_GRID}")
    bad = distance_lemma_violations(m_max, box)
    bad_m4 = [v for v in bad if v[2] == "49M^4"]
    bad_n2 = [v for v in bad if v[2] == "2n^2"]
    checks: list = []
    _check(checks, "distance-lower-bound", not bad_m4, f"box |x_i|<={box}, forms M<={m_max}, violations={len(bad_m4)}")
    _check(checks, "distance-lower-bound-2n2", not bad_n2, f"box |x_i|<={box}, forms M<={m_max}, violations={len(bad_n2)}")
    return _report("minima", {"m_max": m_max, "box": box}, checks)


def _form_pool(m: int) -> int:
    """len(canonical_forms(m)) by Moebius inversion over the content d:
    the sum of mu(d) ((2 floor(m/d) + 1)^3 - 1) / 2."""
    mu = _moebius_upto(m)
    return sum(mu[d] * ((2 * (m // d) + 1) ** 3 - 1) // 2 for d in range(1, m + 1))


def _gon_sample(seed: int, n: int, m_max: int) -> list[LinearForm]:
    """Deterministic seeded sample of n distinct primitive forms with max
    coordinate at most m_max, stratified so roughly one draw in seven is
    small (the small stratum is where the literal radii are computationally
    reachable).  Raises ValueError for n < 1, and when a draw needs a new
    form from a stratum that has none left, instead of redrawing forever.

    The pool of a stratum is counted only where that can happen: for
    cap >= 1 the (1, b, c) with |b|, |c| <= cap are (2 cap + 1)^2 distinct
    primitive sign-canonical forms, so when that is at least n no draw runs
    out, and the pool is taken as unbounded.  At cap = 0 it is empty."""
    if n < 1:
        raise ValueError("n_lattices must be at least 1")
    rng = random.Random(seed)
    small = min(4, m_max)
    pool = {
        cap: _form_pool(cap) if cap == 0 or (2 * cap + 1) ** 2 < n else inf
        for cap in (small, m_max)
    }
    drawn = dict.fromkeys(pool, 0)  # the forms drawn with max <= cap, per cap
    seen: set[tuple[int, int, int]] = set()
    out = []
    while len(out) < n:
        cap = small if len(out) % 7 == 3 else m_max
        if drawn[cap] == pool[cap]:
            raise ValueError(f"gon sample: draw {len(out) + 1} needs a new form with "
                             f"max |coordinate| <= {cap}, and only {pool[cap]} exist")
        t = tuple(rng.randint(-cap, cap) for _ in range(3))
        if t == (0, 0, 0) or gcd(gcd(t[0], t[1]), t[2]) != 1:
            continue
        ell = LinearForm.from_raw(*t)
        if ell.triple in seen:
            continue
        seen.add(ell.triple)
        out.append(ell)
        for c in drawn:
            drawn[c] += ell.M <= c
    return out


def _gon_worker(ell: LinearForm, literal_cap: float) -> list[dict]:
    """One lattice of the geometry-of-numbers suite: dual-enumerator counts at
    volume-matched radii (and at literal radii whose main term is at most
    literal_cap) plus the envelope constant each radius requires."""
    q = quotient(ell)
    cv2p = q.covol2_product
    sm = successive_minima(q)
    l1, l2, l3 = (float(x) ** 0.5 for x in (sm.lam1_sq, sm.lam2_sq, sm.lam3_sq))
    covol = cv2p ** -0.5
    rows = []
    for k in _GON_KS:
        # volume-matched radius R = k * covol^(1/3): strict cutoff
        # x gram x < R^2  <=>  (x gram_int x)^3 < k^6 covol2p^2
        radii = [("scaled", k * cv2p ** (-1.0 / 6.0), iroot(k**6 * cv2p * cv2p - 1, 3))]
        if _gon_main_term(float(k), covol) <= literal_cap:
            # strict: x gram_int x <= R^2 covol2p - 1
            radii.append(("literal", float(k), k * k * cv2p - 1))
        for kind, r, t in radii:
            n = count_primitive_form(q.gram_int, t)
            main = _gon_main_term(r, covol)
            logstar = max(1.0, log(r / l1)) if r > 0 else 1.0
            allow = (l2 * l3 * r * logstar + l3 * r * r) / covol
            rows.append({
                "kind": kind,
                "k": k,
                "R": r,
                "count": n,
                "count_boxscan": count_primitive_gram_boxscan(q.gram_int, t),
                "main_term": main,
                "c_required": abs(n - main) / allow if allow > 0 else float("inf"),
            })
    return rows


def _gon_main_term(r: float, covol: float) -> float:
    """Main term (4 pi / 3 zeta(3)) R^3 / covol of the primitive count."""
    return 4.0 * PI / (3.0 * ZETA3) * r**3 / covol


def suite_gon(
    seed: int = 0,
    n_lattices: int = 100,
    m_max: int = 50,
    literal_cap: float = 2e6,
    threads: int = 1,
) -> dict:
    """Primitive-vector counting law on a seeded sample of quotient lattices.

    Runs two independent exact enumerators (Moebius interval counting vs the
    gcd oracle: a box scan, or row-wise sieving for large balls) at
    volume-matched radii on every lattice, plus the literal radii wherever the
    predicted main term stays under ``literal_cap`` points, and requires a
    single global envelope constant at most ``_GON_C_BOUND``.  ``literal_cap`` only
    bounds run time: the default keeps the literal radii to the small
    stratum of the sample (a few seconds), ``float("inf")`` runs all of them
    (minutes on 2 CPUs).  The report carries ``c_required_max`` and
    ``n_literal``, the number of literal-radius counts made.
    """
    sample = _gon_sample(seed, n_lattices, m_max)
    calls = [(ell, float(literal_cap)) for ell in sample]
    results = parallel_map(_gon_worker, calls, threads, chunksize=4)
    rows = [r for res in results for r in res]
    mismatches = [r for r in rows if r["count"] != r["count_boxscan"]]
    c_max = max(r["c_required"] for r in rows)
    n_literal = sum(1 for r in rows if r["kind"] == "literal")
    checks: list = []
    _check(checks, "dual-enumerator-agreement", not mismatches, f"{len(rows)} counts, {len(mismatches)} mismatches")
    _check(checks, "envelope-constant", c_max <= _GON_C_BOUND, f"C_required={c_max:.3f} <= {_GON_C_BOUND}")
    _check(checks, "literal-radii-coverage", n_literal > 0, f"{n_literal} literal-radius counts under cap")
    rep = _report(
        "gon",
        {"seed": seed, "n_lattices": n_lattices, "m_max": m_max, "ks": list(_GON_KS)},
        checks,
    )
    rep["c_required_max"] = c_max
    rep["n_literal"] = n_literal
    return rep


@dataclass(frozen=True)
class SplitSolutions:
    """Independent primitive integer solutions of the defining system."""

    v: tuple[int, int, int]
    w: tuple[int, int, int]


def _root_directions(qbar: Sequence[int], d: int) -> list[tuple[int, int]]:
    """Primitive integer (S, T) root directions of a split form qbar of
    discriminant d, in canonical order (the +sqrt root first; for A = 0 the
    T = 0 root first)."""
    a, b, c = qbar
    k = isqrt(d)
    if not (d > 0 and k * k == d):
        raise InternalCheckError(f"{d} is not a positive square")
    if a == 0:
        roots = [(1, 0), (-c, b)]
    else:
        roots = [(-b + k, 2 * a), (-b - k, 2 * a)]
    out = []
    for s, t in roots:
        g = gcd(s, t)
        s, t = s // g, t // g
        if t < 0 or (t == 0 and s < 0):
            s, t = -s, -t
        out.append((s, t))
    return out


def split_solutions(z: HilbPoint) -> SplitSolutions:
    """Factor the restricted form and map the two root directions back to
    primitive integer solution vectors."""
    d = discriminant(z)
    if not (d > 0 and is_perfect_square(d)):
        raise ValueError("point is not split")
    e, f = kernel_basis_of(z.ell)
    vecs = []
    for s, t in _root_directions(z.qbar, d):
        vec = tuple(s * x + t * y for x, y in zip(e, f))
        if gcd(gcd(vec[0], vec[1]), vec[2]) != 1:
            raise InternalCheckError(f"split solution {vec} is not primitive")
        vecs.append(sign_canonical(vec))
    v, w = vecs
    return SplitSolutions(v=v, w=w)  # type: ignore[arg-type]


def disc_split_gcd(sol: SplitSolutions) -> int:
    """Discriminant from the squared GCD of the cross product of the solutions."""
    cx = cross(sol.v, sol.w)
    g = gcd(gcd(cx[0], cx[1]), cx[2])
    return g * g


def nonreduced_solution(z: HilbPoint) -> tuple[int, int, int]:
    """The unique primitive integer solution of a nonreduced point's system."""
    if discriminant(z) != 0:
        raise ValueError("point is not nonreduced")
    a, b, c = z.qbar
    # sign-normalized primitive form with zero discriminant is (u S + w T)^2
    if a != 0:
        u = isqrt(a)
        w = b // (2 * u)
    else:
        u = 0
        w = isqrt(c)
    if (u * u, 2 * u * w, w * w) != (a, b, c) or gcd(u, w) != 1:
        raise InternalCheckError(f"{z.qbar} is not the square of a primitive linear form")
    e, f = kernel_basis_of(z.ell)
    vec = tuple(w * x - u * y for x, y in zip(e, f))
    return sign_canonical(vec)  # type: ignore[return-value]


def disc_nonsplit(p: NonsplitParams) -> int:
    """Discriminant from the nonsplit parameter formula."""
    d = p.disc
    g2 = gcd(gcd(p.beta**2 * d, 2 * p.alpha * p.beta * d), p.g**2 - p.alpha**2 * d)
    if g2 == 0:
        raise InternalCheckError("degenerate nonsplit parameters")
    num = 4 * p.beta**2 * p.g**2 * d
    if num % (g2 * g2):
        raise InternalCheckError("nonsplit discriminant is not an integer")
    return num // (g2 * g2)


def ideal_norm(p: NonsplitParams) -> int:
    """Index of the solution ideal inside Z[sqrt(D)], via Smith minors.

    Computed from the 2x4 column matrix of the two generators and their
    sqrt(D)-multiples over the basis {1, sqrt(D)}, and asserted equal to the
    closed-form GCD.
    """
    d = p.disc
    cols = [
        [p.g, p.alpha * d, 0, p.beta * d],
        [p.alpha, p.g, p.beta, 0],
    ]
    n = smith_minor_gcd(cols, 2)
    closed = abs(gcd(gcd(p.beta**2 * d, p.alpha * p.beta * d), gcd(p.g**2 - p.alpha**2 * d, p.beta * p.g)))
    if n != closed:
        raise InternalCheckError(f"Smith-minor ideal norm {n} != closed form {closed}")
    return n


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = m^2 * d0 with d0 squarefree (carrying the sign); returns (d0, m)."""
    if n == 0:
        raise ValueError("zero has no squarefree part")
    d0, m = (1 if n > 0 else -1), 1
    for p, e in prime_exponents(abs(n)):
        m *= p ** (e // 2)
        if e % 2:
            d0 *= p
    return d0, m


def _maximal_order_norm(disc: int, r: Sequence[int], s: Sequence[int]) -> int:
    """Norm of the ideal generated by the coordinates of r + sqrt(disc)*s in
    the maximal order of Q(sqrt(disc)), via Smith minors over the basis
    {1, omega}."""
    d0, m = squarefree_decompose(disc)
    gens = []  # each generator x + y omega and its sqrt(d0)-multiple, as (x, y)
    for rj, sj in zip(r, s, strict=True):
        if d0 % 4 == 1:
            # omega = (1 + sqrt(d0))/2, sqrt(d0) = 2*omega - 1
            x, y = rj - sj * m, 2 * sj * m
            gens += [(x, y), (y * (d0 - 1) // 4, x + y)]
        else:
            x, y = rj, sj * m
            gens += [(x, y), (y * d0, x)]
    return smith_minor_gcd(list(zip(*gens)), 2)


def _le_height2_classwise(z: HilbPoint) -> Fraction:
    """Le Rudulier height squared from the solutions, class by class: the
    independent reference for the closed form ``heights.le_height2``.

    Nonreduced: ||v||^4 for the unique primitive solution.  Split:
    ||v||^2 ||w||^2.  Nonsplit: the product of the squared norms of the two
    embeddings of the quadratic solution divided by the squared ideal norm in
    the maximal order.
    """
    cls = classify(z)
    if cls is PointClass.NONREDUCED:
        n = sum(x * x for x in nonreduced_solution(z))
        return Fraction(n * n)
    if cls is PointClass.SPLIT:
        sol = split_solutions(z)
        nv = sum(x * x for x in sol.v)
        nw = sum(x * x for x in sol.w)
        return Fraction(nv * nw)
    p = nonsplit_params(z)
    d = p.disc
    r, s = p.rational_part, p.irrational_part
    nr = sum(x * x for x in r)
    ns = sum(x * x for x in s)
    rs = sum(x * y for x, y in zip(r, s))
    if d > 0:
        prod = (nr + d * ns) ** 2 - 4 * d * rs * rs
    else:
        prod = (nr - d * ns) ** 2
    norm = _maximal_order_norm(d, r, s)
    return Fraction(prod, norm * norm)


def suite_disc_agreement(height_bound: float = 15.0) -> dict:
    """Three discriminant routes agree exactly on every enumerated point, and
    so do the closed-form and the class-wise Le Rudulier heights."""
    n = {"nonreduced": 0, "split": 0, "nonsplit": 0}
    bad_mod = 0
    bad_split = 0
    bad_nonsplit = 0
    bad_le = 0
    total = 0
    for z in enumerate_points(2, 1, Fraction(height_bound)):
        total += 1
        d = discriminant(z)
        if d % 4 not in (0, 1):
            bad_mod += 1
        cls = classify(z)
        n[cls.value] += 1
        if cls is PointClass.SPLIT:
            if disc_split_gcd(split_solutions(z)) != d:
                bad_split += 1
        elif cls is PointClass.NONSPLIT:
            p = nonsplit_params(z)
            if disc_nonsplit(p) != d:
                bad_nonsplit += 1
            ideal_norm(p)  # asserts Smith-minor norm == closed form
        if le_height2(z) != _le_height2_classwise(z):
            bad_le += 1
    _nonempty(total, height_bound)
    checks: list = []
    _check(checks, "congruence-mod-4", bad_mod == 0, f"{total} points")
    _check(checks, "split-gcd-formula", bad_split == 0, f"{n['split']} split points")
    _check(checks, "nonsplit-parameter-formula", bad_nonsplit == 0, f"{n['nonsplit']} nonsplit points")
    _check(checks, "le-height-closed-form", bad_le == 0, f"{total} points, {bad_le} mismatches")
    if height_bound >= 15:  # the full-scale run must cover a large sample
        _check(checks, "sample-size", total >= 10_000, f"{total} points at height bound {height_bound}")
    rep = _report("disc-agreement", {"height_bound": height_bound, "s": 2, "t": 1}, checks)
    rep["class_counts"] = n
    return rep


def za_point(a: int):
    """The pencil member a*(X0 - 3 X2) - (X1 - 2 X2), (X0 - 3 X2)^2."""
    ell = (a, -1, 2 - 3 * a)
    q = (1, 0, -6, 0, 0, 9)
    return canonicalize(ell, q)


def suite_za_family(a_max: int = 20) -> dict:
    """Exact identities along the worked pencil of nonreduced points."""
    _at_least_one(a_max=a_max)
    bad_cv1 = []
    bad_cv2 = []
    bad_le = []
    bad_ratio = []
    for a in range(1, a_max + 1):
        z = za_point(a)
        if z.covol2_I1 != 10 * a * a - 12 * a + 5:
            bad_cv1.append(a)
        if z.covol2_I2 != 2526 * a * a - 3204 * a + 1266:
            bad_cv2.append(a)
        if le_height2(z) != 196:
            bad_le.append(a)
        # (H_Le^3 / H_{0,3})^2 = 196^3 cv1^3 / cv2^3 must lie in [0.68^2, 1]
        r_sq = Fraction(196**3 * z.covol2_I1**3, z.covol2_I2**3)
        if not (Fraction(4624, 10000) <= r_sq <= 1):
            bad_ratio.append(a)
    checks: list = []
    _check(checks, "degree1-covolume-polynomial", not bad_cv1, f"a=1..{a_max}")
    _check(checks, "degree2-covolume-polynomial", not bad_cv2, f"a=1..{a_max}")
    _check(checks, "constant-le-height-14", not bad_le, f"a=1..{a_max}")
    _check(checks, "anticanonical-comparison-window", not bad_ratio, "ratio in [0.68, 1]")
    return _report("za-family", {"a_max": a_max}, checks)


def suite_oracle_count(
    b_values: tuple = (1, 2, 5, 10, 20, 30),
    threads: int = 1,
) -> dict:
    """Exact equality of the fiber-sum count and the independent box-scan
    oracle.  The oracle walks ``canonical_forms`` to the largest M that
    ``distance_lemma_reaches``; ``check_form_walk`` admits M <= 62, so one
    comparison at 63 refuses an oversized query before the first count."""
    for s, t in _ORACLE_ST_PAIRS:
        for b in b_values:
            if b >= 1 and distance_lemma_reaches(Fraction(s), Fraction(t), Fraction(b), 63):
                raise ValueError(f"b_values is too large: the oracle walk at (s, t, B) = "
                                 f"({s}, {t}, {b}) passes m_max 62, more than {_MAX_FORMS} forms")
    checks: list = []
    rows = []
    for s, t in _ORACLE_ST_PAIRS:
        for b in b_values:
            n = count_Nst(s, t, b, threads=threads)
            rows.append({"s": s, "t": t, "B": str(b), "N": n, "oracle": oracle_count_points(s, t, b)})
    ok = all(r["N"] == r["oracle"] for r in rows)
    _check(checks, "oracle-equality", ok, f"{len(rows)} queries")
    rep = _report(
        "oracle-count",
        {"st_pairs": list(map(list, _ORACLE_ST_PAIRS)), "B": [str(b) for b in b_values]},
        checks,
    )
    rep["rows"] = rows
    return rep


def disc_ratio(z: HilbPoint) -> Fraction:
    """|Disc| * covol^4(I1) / covol^2(I2), the exact discriminant-to-height ratio."""
    d = abs(discriminant(z))
    return Fraction(d * z.covol2_I1**2, z.covol2_I2)


def suite_disc_bound(height_bound: float = 15.0, k_max: int = 30) -> dict:
    """Discriminant-to-height ratio bounded by 4; exact family values 4k^2/(k^4+1)."""
    _at_least_one(k_max=k_max)
    worst = Fraction(0)
    bad = 0
    total = 0
    for z in enumerate_points(2, 1, Fraction(height_bound)):
        total += 1
        r = disc_ratio(z)
        if r > worst:
            worst = r
        if r > 4:
            bad += 1
    _nonempty(total, height_bound)
    fam_bad = []
    for k in range(1, k_max + 1):
        z = canonicalize((0, 0, 1), (1, 0, 0, -k * k, 0, 0))
        if disc_ratio(z) != Fraction(4 * k * k, k**4 + 1):
            fam_bad.append(k)
    checks: list = []
    _check(checks, "ratio-bounded-by-4", bad == 0, f"{total} points, max ratio {float(worst):.6f}")
    _check(checks, "square-family-exact-values", not fam_bad, f"k=1..{k_max}")
    rep = _report("disc-bound", {"height_bound": height_bound, "k_max": k_max}, checks)
    rep["max_ratio"] = [worst.numerator, worst.denominator]
    return rep


def _report(suite: str, params: dict, checks: list) -> dict:
    return {
        "schema_version": 1,
        "suite": suite,
        "params": params,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


_SUITES = {
    "sl-formula": suite_sl_formula,
    "minkowski": suite_minkowski,
    "minima": suite_minima,
    "gon": suite_gon,
    "disc-agreement": suite_disc_agreement,
    "za-family": suite_za_family,
    "oracle-count": suite_oracle_count,
    "disc-bound": suite_disc_bound,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int = 0, threads: int = 1, **overrides) -> dict:
    """Run a named suite at its spec-scale defaults, which its signature
    states.  ``seed``, ``threads`` and each override reach the suite only
    where its signature takes them; the others are ignored."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite: {name}")
    suite = _SUITES[name]
    params = inspect.signature(suite).parameters
    kwargs = {k: v for k, v in {"seed": seed, "threads": threads, **overrides}.items() if k in params}
    return suite(**kwargs)
