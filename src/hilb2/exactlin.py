"""Generic exact integer linear algebra: the reference routines.

The program paths build every lattice they use in closed form (the kernel
basis, quotient and product lattices of ``lattice``, the ideal lattices of
``heights``), and no core module imports this one.  Its generic routines are
the independent references that ``oracles``, ``verify`` and the tests check
those closed forms against.

Everything here is exact: matrices are plain tuples/lists of Python ints
(arbitrary precision), determinants are computed fraction-free (Bareiss),
and no routine touches floating point.  One routine eliminates: the row
Hermite normal form ``hnf``.  Kernels, saturation and basis completion are
read off the HNF of an augmented matrix [M^T | I].

Matrices are row-major sequences of equal-length integer rows.  A lattice is
always the row span of such a matrix.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from typing import Iterable, Sequence

from .lattice import Matrix, dot


class RankDeficientError(ValueError):
    """Rows were linearly dependent where independence is required."""


class NotFiniteIndexError(ValueError):
    """Column span does not have full rank, so no finite index exists."""


def as_matrix(rows: Iterable[Sequence[int]]) -> Matrix:
    mat = tuple(tuple(int(x) for x in row) for row in rows)
    if mat and any(len(r) != len(mat[0]) for r in mat):
        raise ValueError("ragged matrix")
    return mat


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
    if d < 0:
        raise AssertionError(f"negative Gram determinant {d}")
    return d


def hnf(rows: Iterable[Sequence[int]]) -> Matrix:
    """Canonical row Hermite normal form basis of the row span.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot), zero rows are dropped, and rows are ordered by pivot column.
    Each column is cleared below its pivot by Euclid's algorithm across the
    rows: the row with the least nonzero entry becomes the pivot and the
    others are reduced modulo it, until it is the only nonzero one.  Taking
    the least entry keeps the entries of large augmented matrices small
    (``saturate`` on degree-5 ideal lattices), where pairwise extended-gcd
    steps let them grow without bound.
    """
    work = [list(map(int, r)) for r in rows]
    if not work:
        return ()
    p = 0
    for col in range(len(work[0])):
        while True:
            rest = [i for i in range(p, len(work)) if work[i][col]]
            if not rest:
                break
            best = min(rest, key=lambda i: abs(work[i][col]))
            work[p], work[best] = work[best], work[p]
            if len(rest) == 1:
                break
            piv = work[p]
            for i in range(p + 1, len(work)):
                q = work[i][col] // piv[col]
                if q:
                    work[i] = [x - q * y for x, y in zip(work[i], piv)]
        if not rest:
            continue
        if work[p][col] < 0:
            work[p] = [-x for x in work[p]]
        piv = work[p]
        for i in range(p):
            q = work[i][col] // piv[col]
            if q:
                work[i] = [x - q * y for x, y in zip(work[i], piv)]
        p += 1
        if p == len(work):
            break
    return as_matrix(work[:p])


def _augment(mat: Matrix) -> list[list[int]]:
    """Rows of [M^T | I]: row i is column i of M followed by the i-th unit
    vector, so the right block of any row combination records it."""
    n = len(mat[0])
    return [[*col, *(int(i == j) for j in range(n))] for i, col in enumerate(zip(*mat))]


def kernel(mat: Iterable[Sequence[int]]) -> Matrix:
    """HNF basis of the integer right kernel {x in Z^n : M x = 0}.

    The row span of [M^T | I] is {(x^T M^T, x^T) : x in Z^n}.  Its HNF rows
    with a vanishing M^T part span the elements with that part zero, so
    their right blocks are a basis of the kernel, and already in HNF.
    """
    m = as_matrix(mat)
    if not m:
        raise ValueError("empty matrix")
    k = len(m)
    return tuple(row[k:] for row in hnf(_augment(m)) if not any(row[:k]))


def saturate(generators: Iterable[Sequence[int]]) -> Matrix:
    """HNF basis of the saturation of the row span of ``generators``.

    The saturation is {v in Z^n : k*v in span for some nonzero integer k};
    it contains the input lattice with finite index and is primitive in Z^n.
    It is the kernel of the kernel: the integer vectors orthogonal to every
    x with M x = 0.  A full-column-rank input saturates to Z^n.
    """
    gens = as_matrix(generators)
    if not gens or all(all(x == 0 for x in row) for row in gens):
        raise ValueError("zero matrix has no saturation")
    ker = kernel(gens)
    if not ker:
        n = len(gens[0])
        return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return kernel(ker)


def complement_basis(rows: Iterable[Sequence[int]]) -> Matrix:
    """Complete a primitive row lattice to a basis of the ambient Z^n.

    Returns n - r rows (r independent input rows) whose cosets form a basis
    of Z^n / span(rows), each reduced modulo the HNF of the input lattice.
    The HNF of [L^T | I] is [U L^T | U] with U unimodular; its top r x r
    block is I exactly when the r rows are independent and primitive (their
    columns then span Z^r), and raises ValueError otherwise.  Then
    L U^T = [I | 0], so L is the first r rows of (U^-1)^T, and the others
    complete it; (U^-1)^T is the right block of the HNF of [U^T | I].  The
    quotient lattices of ``lattice`` are completed in closed form; this
    generic completion is the reference the tests check them against.
    """
    mat = as_matrix(rows)
    r, n = len(mat), len(mat[0])
    h = hnf(_augment(mat))
    if [row[:r] for row in h[:r]] != [tuple(int(i == j) for j in range(r)) for i in range(r)]:
        raise ValueError("lattice is not primitive; no unimodular complement")
    u = tuple(row[r:] for row in h)
    inv_t = hnf(_augment(u))
    pivots = [(next(j for j, x in enumerate(row) if x), row) for row in hnf(mat)]
    comp = []
    for lift in inv_t[r:]:
        vec = list(lift[n:])
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
