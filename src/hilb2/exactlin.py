"""Exact integer linear algebra primitives.

Everything in this module is exact: matrices are plain tuples/lists of Python
ints (arbitrary precision), determinants are computed fraction-free (Bareiss),
and lattice operations (Hermite normal form, diagonalization with tracked
unimodular transforms, saturation, kernels, basis completion) never touch
floating point.

Matrices are row-major sequences of equal-length integer rows.  A lattice is
always the row span of such a matrix.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from typing import Iterable, Sequence

Row = tuple[int, ...]
Matrix = tuple[Row, ...]


class RankDeficientError(ValueError):
    """Rows were linearly dependent where independence is required."""


class NotFiniteIndexError(ValueError):
    """Column span does not have full rank, so no finite index exists."""


def as_matrix(rows: Iterable[Sequence[int]]) -> Matrix:
    mat = tuple(tuple(int(x) for x in row) for row in rows)
    if mat and any(len(r) != len(mat[0]) for r in mat):
        raise ValueError("ragged matrix")
    return mat


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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


def mat_vec(mat: Sequence[Sequence[int]], v: Sequence[int]) -> list[int]:
    return [dot(row, v) for row in mat]


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    bt = list(zip(*b))
    return [[dot(row, col) for col in bt] for row in a]


def transpose(mat: Sequence[Sequence[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*mat)]


def gram_matrix(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Matrix of pairwise inner products under the standard inner product."""
    return [[dot(u, v) for v in rows] for u in rows]


def det_bareiss(mat: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    a = [list(map(int, row)) for row in mat]
    n = len(a)
    if n == 0:
        return 1
    if any(len(row) != n for row in a):
        raise ValueError("matrix not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def gram_det2(rows: Sequence[Sequence[int]]) -> int:
    """Squared covolume of the lattice spanned by ``rows``.

    Returns det(G) for G the Gram matrix of the rows; this is a positive
    integer for independent integer rows.  Raises RankDeficientError when the
    rows are dependent.
    """
    if not rows:
        raise ValueError("empty basis")
    d = det_bareiss(gram_matrix(rows))
    if d == 0:
        raise RankDeficientError("rank deficient")
    assert d > 0
    return d


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


def hnf(rows: Iterable[Sequence[int]]) -> Matrix:
    """Canonical row Hermite normal form basis of the row span.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot), zero rows are dropped, and rows are ordered by pivot column.
    """
    work = [list(map(int, r)) for r in rows]
    if not work:
        return ()
    ncols = len(work[0])
    pivot_row = 0
    for col in range(ncols):
        # gather a pivot at (pivot_row, col) via extended-gcd row ops
        idx = None
        for i in range(pivot_row, len(work)):
            if work[i][col] != 0:
                idx = i
                break
        if idx is None:
            continue
        work[pivot_row], work[idx] = work[idx], work[pivot_row]
        for i in range(pivot_row + 1, len(work)):
            if work[i][col] == 0:
                continue
            a, b = work[pivot_row][col], work[i][col]
            g, x, y = _xgcd(a, b)
            u, v = a // g, b // g
            r_p, r_i = work[pivot_row], work[i]
            new_p = [x * p + y * q for p, q in zip(r_p, r_i)]
            new_i = [-v * p + u * q for p, q in zip(r_p, r_i)]
            work[pivot_row], work[i] = new_p, new_i
        if work[pivot_row][col] < 0:
            work[pivot_row] = [-x for x in work[pivot_row]]
        p = work[pivot_row][col]
        for i in range(pivot_row):
            q = work[i][col] // p
            if q:
                work[i] = [x - q * y for x, y in zip(work[i], work[pivot_row])]
        pivot_row += 1
        if pivot_row == len(work):
            break
    return as_matrix(row for row in work[:pivot_row])


def diagonalize(mat: Iterable[Sequence[int]]) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns (diag, V, W) where for some unimodular U the matrix U*M*V is
    diagonal with the given (possibly shorter than n) diagonal, V is the
    accumulated column transform and W = V^-1.  The diagonal entries are
    nonnegative.  Divisibility ordering of the diagonal is *not* enforced;
    rank, saturation, kernels and primitivity checks do not need it.
    """
    a = [list(map(int, row)) for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    v = identity(n)
    w = identity(n)

    def col_swap(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        w[i], w[j] = w[j], w[i]

    def col_addmul(dst: int, src: int, k: int) -> None:
        # c_dst <- c_dst + k * c_src ; W: row_src <- row_src - k * row_dst
        for row in a:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]
        w[src] = [x - k * y for x, y in zip(w[src], w[dst])]

    def col_negate(i: int) -> None:
        for row in a:
            row[i] = -row[i]
        for row in v:
            row[i] = -row[i]
        w[i] = [-x for x in w[i]]

    t = 0
    while t < m and t < n:
        # pick the nonzero entry of minimal |value| in the working submatrix
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
        if bj != t:
            col_swap(t, bj)
        while True:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t] != 0:
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    if q:
                        col_addmul(j, t, -q)
                    if a[t][j] != 0:
                        dirty = True
            if not dirty:
                break
            # a smaller remainder exists somewhere in row/column t; re-pivot
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    x = a[i][j]
                    if x != 0 and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            bi, bj = best
            if bi != t:
                a[t], a[bi] = a[bi], a[t]
            if bj != t:
                col_swap(t, bj)
        if a[t][t] < 0:
            col_negate(t)
        t += 1
    diag = [a[i][i] for i in range(t)]
    return diag, v, w


def rank(mat: Iterable[Sequence[int]]) -> int:
    diag, _, _ = diagonalize(mat)
    return sum(1 for d in diag if d != 0)


def saturate(generators: Iterable[Sequence[int]]) -> Matrix:
    """HNF basis of the saturation of the row span of ``generators``.

    The saturation is {v in Z^n : k*v in span for some nonzero integer k};
    it contains the input lattice with finite index and is primitive in Z^n.
    """
    gens = as_matrix(generators)
    if not gens or all(all(x == 0 for x in row) for row in gens):
        raise ValueError("zero matrix has no saturation")
    diag, _, w = diagonalize(gens)
    r = sum(1 for d in diag if d != 0)
    return hnf(w[:r])


def kernel(mat: Iterable[Sequence[int]]) -> Matrix:
    """HNF basis of the integer right kernel {x in Z^n : M x = 0}."""
    m = as_matrix(mat)
    if not m:
        raise ValueError("empty matrix")
    n = len(m[0])
    diag, v, _ = diagonalize(m)
    r = sum(1 for d in diag if d != 0)
    cols = [[v[i][j] for i in range(n)] for j in range(r, n)]
    return hnf(cols)


def complement_basis(rows: Iterable[Sequence[int]]) -> Matrix:
    """Complete a primitive row lattice to a basis of the ambient Z^n.

    Returns k = n - rank rows whose cosets form a basis of Z^n / span(rows).
    Each returned row is reduced modulo the HNF of the input lattice, making
    the output canonical for a fixed diagonalization strategy.  Requires the
    input lattice to be primitive (all invariant factors 1).  The quotient
    lattices of ``lattice`` are completed in closed form; this generic
    completion is the reference the tests check them against.
    """
    mat = as_matrix(rows)
    diag, _, w = diagonalize(mat)
    r = sum(1 for d in diag if d != 0)
    if any(abs(d) != 1 for d in diag[:r]):
        raise ValueError("lattice is not primitive; no unimodular complement")
    n = len(mat[0])
    h = hnf(mat)
    pivots = []
    for row in h:
        col = next(j for j, x in enumerate(row) if x != 0)
        pivots.append((col, row))
    comp = []
    for lift in w[r:n]:
        vec = list(lift)
        for col, hrow in pivots:
            q = vec[col] // hrow[col]
            if q:
                vec = [x - q * y for x, y in zip(vec, hrow)]
        comp.append(tuple(vec))
    return tuple(comp)


def smith_minor_gcd(mat: Iterable[Sequence[int]], n: int) -> int:
    """gcd of all n-by-n minors of the matrix.

    For a matrix with n rows whose columns span a finite-index subgroup of
    Z^n, this equals that index.  Raises NotFiniteIndexError when the rank is
    below n (all minors vanish).
    """
    m = as_matrix(mat)
    if n <= 0:
        raise ValueError("minor size must be positive")
    if len(m) < n:
        raise NotFiniteIndexError("not finite index")
    ncols = len(m[0]) if m else 0
    g = 0
    for rows_idx in combinations(range(len(m)), n):
        for cols_idx in combinations(range(ncols), n):
            sub = [[m[i][j] for j in cols_idx] for i in rows_idx]
            g = gcd(g, det_bareiss(sub))
            if g == 1:
                return 1
    if g == 0:
        raise NotFiniteIndexError("not finite index")
    return g


def cross(v: Sequence[int], w: Sequence[int]) -> tuple[int, int, int]:
    """Cross product v x w of two integer triples."""
    return (
        v[1] * w[2] - v[2] * w[1],
        v[2] * w[0] - v[0] * w[2],
        v[0] * w[1] - v[1] * w[0],
    )


def kernel_basis(a: int, b: int, c: int) -> tuple[Row, Row]:
    """Basis (e, f) of the rank-2 lattice {v in Z^3 : a v0 + b v1 + c v2 = 0}.

    (a, b, c) must be primitive.  The output is the HNF basis of the kernel,
    orientation-fixed so that the cross product e x f equals +(a, b, c)
    exactly (possible because the form is primitive).  In closed form: with
    g = gcd(b, c) and (b/g) x + (c/g) y = 1, the kernel vectors with v0 = 0
    are the multiples of (0, c/g, -b/g), and (g, -a x, -a y) has the least
    positive v0 (a is prime to g).
    """
    if gcd(gcd(a, b), c) != 1:
        raise ValueError("form must be primitive")
    g, x, y = _xgcd(b, c)
    if g == 0:  # the form is +-X0
        e, f = (0, 1, 0), (0, 0, 1)
    else:
        f = sign_canonical((0, c // g, -b // g))
        e = (g, -a * x, -a * y)
        pivot = 1 if f[1] else 2
        k = e[pivot] // f[pivot]
        e = tuple(p - k * q for p, q in zip(e, f))
    if cross(e, f) == (a, b, c):
        return e, f
    assert cross(e, f) == (-a, -b, -c)
    return e, tuple(-t for t in f)
