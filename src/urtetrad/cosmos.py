"""Minimal cosmological bookkeeping: the linear expansion law for the
curvature radius of the closed S^3 spatial model, and the reference count
of ur-alternatives."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "UR_COUNT_REFERENCE",
    "NegativeEpochError",
    "ExpansionModel",
    "radius_at",
]

# reference number of urs at the present epoch, about 1e120; a quoted
# estimate, not a derived quantity.  Under open finitism the number of urs
# at any epoch is finite and grows with cosmic time; no derivation of it is
# attempted.
UR_COUNT_REFERENCE = 1e120


class NegativeEpochError(ValueError):
    """Cosmic epoch must be nonnegative."""


@dataclass(frozen=True)
class ExpansionModel:
    """Linear expansion of the curvature radius: R(T) = r0 + c * T.

    r0 is the radius at epoch zero; c is the limiting velocity.  Units are
    the caller's business, only the ratio structure is fixed here.
    """

    r0: float
    c: float

    def __post_init__(self):
        if not (math.isfinite(self.r0) and self.r0 >= 0.0):
            raise ValueError(f"initial radius must be finite and nonnegative, got {self.r0!r}")
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise ValueError(f"limiting velocity must be finite and positive, got {self.c!r}")


def radius_at(model: ExpansionModel, epoch: float) -> float:
    """Curvature radius at the given epoch, strictly increasing in it; ValueError if it overflows."""
    if not math.isfinite(epoch):
        raise ValueError(f"epoch must be finite, got {epoch!r}")
    if epoch < 0.0:
        raise NegativeEpochError(f"epoch must be nonnegative, got {epoch!r}")
    radius = model.r0 + model.c * epoch
    if not math.isfinite(radius):
        raise ValueError(f"radius at epoch {epoch!r} overflows to {radius!r}")
    return radius
