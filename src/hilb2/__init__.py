"""Exact toolkit for integral points of the Hilbert scheme of two points in
the plane: lattice-point counting under the two-parameter height family,
discriminants of the associated quadratic rings, and the leading constant of
the counting function, all validated against brute-force oracles."""

from .asymptotics import (
    ConstantEstimate,
    bm_exponents,
    constant_c,
    convergence_report,
    count_Nst,
    le_count,
    le_count_detailed,
)
from .exactlin import NotFiniteIndexError, RankDeficientError
from .heights import (
    PointClass,
    classify,
    discriminant,
    height2_e,
    height2_st,
    height_e,
    height_st,
    le_height,
    le_height2,
)
from .hilb import (
    HilbPoint,
    NonPrimitiveIdealError,
    PointValidationError,
    QInSpanError,
    canonicalize,
    enumerate_points,
)
from .lattice import (
    LinearForm,
    QuotientLattice,
    SuccessiveMinima,
    product_covol2_formula,
    quotient,
    successive_minima,
)

__version__ = "0.1.0"
