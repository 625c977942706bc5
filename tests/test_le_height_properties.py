"""Property tests of the closed-form Le Rudulier height on large random points:
agreement with the class-wise reference, and the two bounds the anticanonical
count rests on (its form cutoff and its search region)."""

from math import gcd, isqrt

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hilb2.exactlin import dot, sign_canonical
from hilb2.heights import discriminant, le_height2, le_height2_gram
from hilb2.hilb import HilbPoint
from hilb2.lattice import LinearForm, kernel_basis_of, quotient
from hilb2.verify import _le_height2_classwise

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
    return HilbPoint(ell=ell, qbar=qbar, covol2_I2=quotient(ell).covol2_with(qbar))


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
