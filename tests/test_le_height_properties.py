"""Property tests on large random points: the closed-form Le Rudulier height
against the class-wise reference, the two bounds the anticanonical count
rests on (its form cutoff and its search region), and the agreement of the
class-wise discriminant routes of ``verify`` with the direct discriminant."""

from math import gcd, isqrt

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hilb2.heights import PointClass, classify, discriminant, le_height2, le_height2_gram, nonsplit_params
from hilb2.hilb import HilbPoint
from hilb2.lattice import LinearForm, dot, eval_quadratic, kernel_basis_of, sign_canonical
from hilb2.verify import (
    _le_height2_classwise,
    disc_nonsplit,
    disc_split_gcd,
    ideal_norm,
    nonreduced_solution,
    split_solutions,
)

PROPERTY_SETTINGS = settings(
    max_examples=300,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)


def _primitive(t):
    return gcd(gcd(t[0], t[1]), t[2]) == 1


_ell = st.tuples(*[st.integers(-3000, 3000)] * 3).filter(_primitive)
_random_qbar = st.tuples(*[st.integers(-5000, 5000)] * 3)
# products (y1 S - x1 T)(y2 S - x2 T) reach the split and nonreduced classes,
# which uniform coefficients almost never hit; |coefficients| <= 5000
_root = st.tuples(st.integers(-50, 50), st.integers(-50, 50))
_product_qbar = st.tuples(_root, _root).map(
    lambda r: (r[0][1] * r[1][1], -(r[0][0] * r[1][1] + r[1][0] * r[0][1]), r[0][0] * r[1][0])
)
_qbar = st.one_of(_random_qbar, _product_qbar).filter(_primitive)
# each branch of the closed form drawn on purpose: A = 0, C = 0, D = 0 (a
# square (y S - x T)^2), D < 0 (b^2 <= m^2 < 4ac for m = isqrt(4ac - 1)) and
# D a nonzero square
_coef = st.integers(-5000, 5000)
_branch_qbar = st.one_of(
    st.tuples(st.just(0), _coef, _coef),
    st.tuples(_coef, _coef, st.just(0)),
    _root.map(lambda r: (r[1] * r[1], -2 * r[0] * r[1], r[0] * r[0])),
    st.tuples(st.integers(1, 5000), st.integers(0, 10**6), st.integers(1, 5000)).map(
        lambda t: (t[0], t[1] % (2 * isqrt(4 * t[0] * t[2] - 1) + 1) - isqrt(4 * t[0] * t[2] - 1), t[2])
    ),
    _product_qbar,
).filter(_primitive)


def _point(ell_raw, qbar_raw):
    ell = LinearForm.from_raw(*ell_raw)
    qbar = sign_canonical(qbar_raw)
    return HilbPoint(ell, qbar)


@PROPERTY_SETTINGS
@given(_ell, st.one_of(_qbar, _branch_qbar))
@example((1, 2, 3), (0, 1, 5))  # A = 0
@example((3, -1, 4), (2, 7, 0))  # C = 0
@example((2, 5, -7), (4, -12, 9))  # D = 0
@example((1, 1, 1), (3, 1, 5))  # D < 0
@example((5, 0, 2), (1, -5, 6))  # D = 1
def test_closed_form_equals_classwise_reference(ell_raw, qbar_raw):
    # the integer form the anticanonical scan calls, le_height2, and the
    # class-wise composition of verify
    z = _point(ell_raw, qbar_raw)
    e, f = kernel_basis_of(z.ell)
    h2 = le_height2_gram(dot(e, e), dot(e, f), dot(f, f), z.ell.norm2, z.qbar)
    assert h2 == le_height2(z) == _le_height2_classwise(z)


@PROPERTY_SETTINGS
@given(_ell, _qbar)
def test_height_lower_bound_and_covolume_sandwich(ell_raw, qbar_raw):
    z = _point(ell_raw, qbar_raw)
    h2 = le_height2(z)
    n = z.covol2_I1
    if discriminant(z) != 0:
        assert h2 >= n
    assert n * h2 <= 3 * z.covol2_I2
    assert z.covol2_I2 <= 2 * n * h2


@PROPERTY_SETTINGS
@given(_ell, st.one_of(_qbar, _branch_qbar))
@example((2, 5, -7), (4, -12, 9))  # nonreduced
@example((5, 0, 2), (1, -5, 6))  # split, D = 1
@example((3, -1, 4), (2, 7, 0))  # split, C = 0
@example((1, 1, 1), (3, 1, 5))  # nonsplit, D < 0
@example((1, 2, 3), (1, 0, -2))  # nonsplit, D > 0
def test_discriminant_routes_agree(ell_raw, qbar_raw):
    z = _point(ell_raw, qbar_raw)
    d = discriminant(z)
    cls = classify(z)
    if cls is PointClass.SPLIT:
        assert disc_split_gcd(split_solutions(z)) == d
    elif cls is PointClass.NONSPLIT:
        p = nonsplit_params(z)
        assert disc_nonsplit(p) == d == p.disc
        ideal_norm(p)  # raises unless its Smith-minor index equals the closed form
    else:
        v = nonreduced_solution(z)
        assert dot(z.ell.triple, v) == 0 and eval_quadratic(z.q_lift(), v) == 0
