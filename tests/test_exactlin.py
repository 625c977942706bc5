import random
from itertools import product
from math import gcd

import pytest

from hilb2.exactlin import (
    NotFiniteIndexError,
    RankDeficientError,
    complement_basis,
    det_bareiss,
    gram_det2,
    hnf,
    kernel,
    mat_mul,
    saturate,
    smith_minor_gcd,
)
from hilb2.lattice import LinearForm, cross, dot, iroot, kernel_basis_of, sign_canonical
from hilb2.oracles import product_basis


def test_gram_det2_orthonormal_rows():
    assert gram_det2([(1, 0, 0), (0, 1, 0)]) == 1


def test_gram_det2_single_vector():
    assert gram_det2([(3, 4)]) == 25


def test_gram_det2_product_basis_111():
    # cross-check of the degree-6 covolume polynomial at (1,1,1)
    assert gram_det2(product_basis(LinearForm(1, 1, 1))) == 20


def test_gram_det2_rank_deficient():
    with pytest.raises(RankDeficientError):
        gram_det2([(1, 2), (2, 4)])


def _random_unimodular(rng, n):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(12):
        i, j = rng.sample(range(n), 2)
        k = rng.randint(-3, 3)
        for c in range(n):
            m[i][c] += k * m[j][c]
    return m


def test_gram_det2_unimodular_invariance(rng):
    rows = [(2, -1, 3, 0), (0, 5, 1, 1), (1, 1, 1, 7)]
    base = gram_det2(rows)
    for _ in range(25):
        u = _random_unimodular(rng, 3)
        assert gram_det2(mat_mul(u, rows)) == base


def test_saturate_gcd_scaling():
    assert saturate([(2, 0)]) == ((1, 0),)


def test_saturate_already_saturated():
    assert saturate([(1, 0, 0), (0, 1, 0)]) == ((1, 0, 0), (0, 1, 0))


def test_saturate_zero_matrix():
    with pytest.raises(ValueError):
        saturate([(0, 0, 0)])


def test_saturate_idempotent_and_contains_input(rng):
    for _ in range(40):
        rows = [tuple(rng.randint(-5, 5) for _ in range(4)) for _ in range(2)]
        if all(all(x == 0 for x in r) for r in rows):
            continue
        sat = saturate(rows)
        assert saturate(sat) == sat
        # input lattice is contained in the saturation
        nonzero = [r for r in rows if any(r)]
        assert hnf(list(sat) + nonzero) == sat


def test_saturate_full_column_rank_is_the_identity():
    assert saturate([(2, 1, 0), (0, 3, 1), (1, 1, 5)]) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert saturate([(4, 6), (6, 4), (0, 2)]) == ((1, 0), (0, 1))


def test_complement_basis_completes_to_a_unimodular_basis(rng):
    for _ in range(30):
        rows = [tuple(rng.randint(-5, 5) for _ in range(4)) for _ in range(2)]
        if any(not any(r) for r in rows):
            continue
        sat = saturate(rows)
        comp = complement_basis(sat)
        assert len(sat) + len(comp) == 4
        assert abs(det_bareiss(list(sat) + list(comp))) == 1


def test_complement_basis_rejects_a_non_primitive_lattice():
    with pytest.raises(ValueError, match="not primitive"):
        complement_basis([(2, 0, 0)])
    with pytest.raises(ValueError, match="not primitive"):
        complement_basis([(1, 1, 0), (1, -1, 0)])


def test_kernel_rank_and_membership(rng):
    for _ in range(30):
        m = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(2)]
        ker = kernel(m)
        for x in ker:
            assert all(sum(r[i] * x[i] for i in range(5)) == 0 for r in m)
        # the kernel is saturated, and has rank 5 - rank(m)
        if ker:
            assert saturate(ker) == ker
        assert len(ker) == 5 - len(saturate(m))


# ``lattice.kernel_basis_of`` builds the reduced kernel basis of a linear
# form in closed form; the generic HNF kernel here is its reference.


def _reference_kernel_basis(a, b, c):
    """HNF basis of the generic kernel, oriented so that e x f = (a, b, c),
    then Lagrange-reduced: e -= k f, swaps (e, f) <- (-f, e), ties kept."""
    e, f = hnf(kernel([(a, b, c)]))
    if cross(e, f) != (a, b, c):
        f = tuple(-x for x in f)
    while True:
        if dot(f, f) > dot(e, e):
            e, f = tuple(-x for x in f), e
        ef, ff = dot(e, f), dot(f, f)
        if 2 * abs(ef) <= ff:
            return e, f
        k = (2 * ef + ff) // (2 * ff)
        e = tuple(x - k * y for x, y in zip(e, f))


def test_kernel_basis_axis():
    assert kernel_basis_of(LinearForm(0, 0, 1)) == ((1, 0, 0), (0, 1, 0))
    assert kernel_basis_of(LinearForm(1, 0, 0)) == ((0, 1, 0), (0, 0, 1))


@pytest.mark.parametrize("triple", [(1, 1, 1), (2, 1, 0), (3, -5, 7), (0, 2, 9)])
def test_kernel_basis_properties(triple):
    e, f = kernel_basis_of(LinearForm(*triple))
    assert dot(triple, e) == dot(triple, f) == 0
    # an index-1 (saturated) kernel basis of a primitive form has
    # e x f = +-form; the orientation is fixed to +form
    assert cross(e, f) == triple
    assert 2 * abs(dot(e, f)) <= dot(f, f) <= dot(e, e)


def test_kernel_basis_is_the_generic_hnf_kernel():
    # every sign-canonical primitive form with |coordinates| <= 12, and
    # seeded random ones with coordinates up to 10^6
    r = range(-12, 13)
    forms = [t for t in product(r, r, r) if any(t) and sign_canonical(t) == t and gcd(*t) == 1]
    rng = random.Random(4)
    while len(forms) < 8500:
        t = sign_canonical([rng.randint(-10**6, 10**6) for _ in range(3)])
        if gcd(*t) == 1:
            forms.append(t)
    for t in forms:
        assert kernel_basis_of(LinearForm(*t)) == _reference_kernel_basis(*t), t


def test_kernel_basis_requires_primitive():
    # the closed form relies on gcd(a, b, c) = 1, which LinearForm enforces
    with pytest.raises(ValueError):
        kernel_basis_of(LinearForm(2, 4, 6))


def test_smith_minor_gcd_identity():
    assert smith_minor_gcd([(1, 0), (0, 1)], 2) == 1


def test_smith_minor_gcd_diagonal():
    assert smith_minor_gcd([(2, 0), (0, 2)], 2) == 4


def test_smith_minor_gcd_quadratic_ring_ideal():
    # ideal (2, sqrt(8)) in Z[sqrt(8)] on the basis {1, sqrt(8)}:
    # columns 2, 2*sqrt8 -> (2,0),(0,2); sqrt8 -> (0,1); sqrt8*sqrt8=8 -> (8,0)
    cols = [[2, 0, 0, 8], [0, 2, 1, 0]]
    assert smith_minor_gcd(cols, 2) == 2


def test_smith_minor_gcd_not_finite_index():
    with pytest.raises(NotFiniteIndexError):
        smith_minor_gcd([(1, 2), (2, 4)], 2)
    with pytest.raises(NotFiniteIndexError):
        smith_minor_gcd([(1, 0)], 2)


def test_smith_minor_gcd_matches_quotient_order(rng):
    # index of the column span in Z^2 equals |det| for square matrices
    for _ in range(30):
        m = [[rng.randint(-6, 6) for _ in range(2)] for _ in range(2)]
        d = det_bareiss(m)
        if d == 0:
            continue
        assert smith_minor_gcd(m, 2) == abs(d)


def test_hnf_canonical_form():
    h = hnf([(2, 4, 4), (-6, 6, 12), (10, -4, -16)])
    for i, row in enumerate(h):
        p = next(j for j, x in enumerate(row) if x)
        assert row[p] > 0
        for k in range(i):
            assert 0 <= h[k][p] < row[p]



def test_iroot_brackets_the_real_root():
    rng = random.Random(7)
    for k in range(1, 8):
        xs = list(range(0, 300)) + [rng.randrange(10**rng.randint(1, 60)) for _ in range(300)]
        for x in xs:
            r = iroot(x, k)
            assert r**k <= x < (r + 1) ** k, (x, k)
    for k in (2, 3, 6):
        for r in (10**20, 2**70 + 1):
            assert iroot(r**k, k) == r and iroot(r**k - 1, k) == r - 1
    with pytest.raises(ValueError):
        iroot(-1, 3)
    with pytest.raises(ValueError):
        iroot(5, 0)
