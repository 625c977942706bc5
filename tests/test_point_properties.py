"""Property tests of the point model: a point depends only on the lattices its
defining system cuts out, so canonicalization and the degree-3 embedding
height are invariant under rescaling the linear form and under adding
multiples of the form to the quadric."""

from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from hilb2.exactlin import gram_det2
from hilb2.heights import height2_e
from hilb2.hilb import HilbPoint, canonicalize
from hilb2.lattice import LinearForm, sign_canonical
from hilb2.oracles import oracle_ideal_basis, poly_mul

PROPERTY_SETTINGS = settings(max_examples=300, derandomize=True, database=None, deadline=None)


def _primitive(t):
    return gcd(gcd(t[0], t[1]), t[2]) == 1


_ell = st.tuples(*[st.integers(-30, 30)] * 3).filter(_primitive)
_qbar = st.tuples(*[st.integers(-30, 30)] * 3).filter(_primitive)
_scale = st.integers(-6, 6).filter(bool)
_linear = st.tuples(*[st.integers(-20, 20)] * 3)


@PROPERTY_SETTINGS
@given(_ell, _qbar, _scale, _linear)
def test_canonicalize_and_height_invariant_under_the_defining_system(ell_raw, qbar_raw, k, m):
    ell = LinearForm.from_raw(*ell_raw)
    qbar = sign_canonical(qbar_raw)
    z = HilbPoint(ell, qbar)
    q = z.q_lift()
    assert canonicalize(ell_raw, q) == z
    # scale or negate the form, and add (form) * (linear form) to the quadric
    ell_moved = tuple(k * x for x in ell_raw)
    q_moved = tuple(x + y for x, y in zip(q, poly_mul(ell_raw, 1, m, 1)))
    assert canonicalize(ell_moved, q_moved) == z
    assert height2_e(z, 3) == gram_det2(oracle_ideal_basis(ell_moved, q_moved, 3))
