"""From ur-spinors to space-time structure.

The chain implemented here: points of U(2) carry a quaternion chart of
S^3 and define spinor dyads; Pauli bilinears of a dyad give a null tetrad
whose bilinear combinations reproduce the Minkowski metric; real
combinations give a vierbein whose dreibein realizes the SU(2) -> SO(3)
double cover; promoting the bispinor components to bosonic modes gives
the operator-valued tetrad on a truncated Fock space; and the curvature
radius of the S^3 cosmos grows linearly with the epoch.

The names below resolve on first use (PEP 562): `import urtetrad` loads no
submodule and no numpy, and `urtetrad.FockSpace` first imports the fock
module and what it needs.
"""

import importlib

# module -> the names the package exports from it
_EXPORTS = {
    "spinor": (
        "EPSILON", "Dyad", "GroupElement", "NonUnitError", "QuaternionPoint", "Spinor",
        "VarianceMismatchError", "contract", "dyad_from_element", "from_quaternion",
        "lower_index", "raise_index", "random_group_element", "random_s3_point",
        "to_quaternion",
    ),
    "tetrad": (
        "ETA", "NULL_FRAME_METRIC", "SIGMA", "DyadInvalidError", "NullTetrad", "RealTetrad",
        "SingularFrameMetricError", "minkowski_inner", "null_tetrad", "pauli_bilinear",
        "real_tetrad", "real_tetrad_polynomials", "reconstruct_metric",
        "reconstruct_metric_general", "tangent_frame_at",
    ),
    "fock": (
        "TETRAD_BILINEARS", "TETRAD_COEFFICIENTS", "BadModeError", "BilinearOperator",
        "BispinorAmplitudes", "CutoffTooLargeError", "DimensionMismatchError", "FockSpace",
        "OperatorTetrad", "SparseOperator", "TruncationTooLossyError", "coherent_state",
        "expectation", "operator_tetrad", "tetrad_component", "tetrad_expectations",
    ),
    "cosmos": ("UR_COUNT_REFERENCE", "ExpansionModel", "NegativeEpochError", "radius_at"),
    "verify": ("run_verification",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    # a submodule such as cli is not in the table, so `from urtetrad import
    # cli` falls through to the import system and loads that module only
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
