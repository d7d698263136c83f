"""From ur-spinors to space-time structure.

The chain implemented here: points of U(2) carry a quaternion chart of
S^3 and define spinor dyads; Pauli bilinears of a dyad give a null tetrad
whose bilinear combinations reproduce the Minkowski metric; real
combinations give a vierbein whose dreibein realizes the SU(2) -> SO(3)
double cover; promoting the bispinor components to bosonic modes gives
the operator-valued tetrad on a truncated Fock space; and the curvature
radius of the S^3 cosmos grows linearly with the epoch.
"""

from .spinor import (
    EPSILON,
    Dyad,
    GroupElement,
    NonUnitError,
    QuaternionPoint,
    Spinor,
    VarianceMismatchError,
    contract,
    dyad_from_element,
    from_quaternion,
    lower_index,
    raise_index,
    random_group_element,
    random_s3_point,
    to_quaternion,
)
from .tetrad import (
    ETA,
    NULL_FRAME_METRIC,
    SIGMA,
    DyadInvalidError,
    NullTetrad,
    RealTetrad,
    SingularFrameMetricError,
    minkowski_inner,
    null_tetrad,
    pauli_bilinear,
    real_tetrad,
    real_tetrad_polynomials,
    reconstruct_metric,
    reconstruct_metric_general,
    tangent_frame_at,
)
from .fock import (
    TETRAD_BILINEARS,
    TETRAD_COEFFICIENTS,
    BadModeError,
    BilinearOperator,
    BispinorAmplitudes,
    CutoffTooLargeError,
    DimensionMismatchError,
    FockSpace,
    OperatorTetrad,
    SparseOperator,
    TruncationTooLossyError,
    coherent_bilinear_value,
    coherent_state,
    expectation,
    operator_tetrad,
    tetrad_component,
    tetrad_expectations,
)
from .cosmos import (
    UR_COUNT_REFERENCE,
    ExpansionModel,
    NegativeEpochError,
    radius_at,
    ur_count_reference,
)
from .verify import run_verification

__version__ = "0.1.0"
