"""Property tests of the closed-form Le Rudulier height on large random points:
agreement with the class-wise reference, and the two bounds the anticanonical
count rests on (its form cutoff and its search region)."""

from math import gcd

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hilb2.exactlin import sign_canonical
from hilb2.heights import discriminant, le_height2
from hilb2.hilb import HilbPoint
from hilb2.lattice import LinearForm, quotient
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


def _point(ell_raw, qbar_raw):
    ell = LinearForm.from_raw(*ell_raw)
    qbar = sign_canonical(qbar_raw)
    return HilbPoint(ell=ell, qbar=qbar, covol2_I2=quotient(ell).covol2_with(qbar))


@PROPERTY_SETTINGS
@given(_ell, _qbar)
def test_closed_form_equals_classwise_reference(ell_raw, qbar_raw):
    z = _point(ell_raw, qbar_raw)
    assert le_height2(z) == _le_height2_classwise(z)


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
