"""U(2) group elements, the quaternion chart of S^3, and ur-spinor dyads.

A group element is the unitary matrix ((a, b), (-b*, a*)) times a phase
e^(i*phi), with |a|^2 + |b|^2 = 1.  Writing a = w + i*z and b = y + i*x
identifies the phase-free part with a point (w, x, y, z) of the unit
3-sphere.  The two matrix columns are the ur-spinors u = (a, -b*) and
v = (b, a*); contracted through the antisymmetric spinor metric they form
a dyad: u_A u^A = v_A v^A = 0 and v_A u^A = -u_A v^A = 1.

Tolerance policy: both constructors pass the chart coordinates (w, x, y, z)
through one gate that admits w^2 + x^2 + y^2 + z^2 within 1e-9 of 1 and snaps
the point onto the sphere unless it is within 1e-13.  A point the gate returns
passes it again untouched, so chart round trips are bit-exact.  Algebraic
identities downstream are checked at 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ADMISSION_TOL",
    "EPSILON",
    "UPPER",
    "LOWER",
    "NonUnitError",
    "VarianceMismatchError",
    "GroupElement",
    "QuaternionPoint",
    "Spinor",
    "Dyad",
    "to_quaternion",
    "from_quaternion",
    "dyad_from_element",
    "lower_index",
    "raise_index",
    "contract",
    "random_s3_point",
    "random_group_element",
]

ADMISSION_TOL = 1e-9
# a point this near the sphere is stored untouched, so re-admission is a no-op
_RENORM_SKIP = 1e-13
_TWO_PI = 2.0 * math.pi

UPPER = "upper"
LOWER = "lower"

# spinor metric, the same array for both index positions
EPSILON = np.array([[0.0, 1.0], [-1.0, 0.0]])
EPSILON.setflags(write=False)


class NonUnitError(ValueError):
    """Input does not lie on the unit sphere within the admission tolerance."""


class VarianceMismatchError(ValueError):
    """Index operation applied to a spinor of the wrong variance."""


def _on_sphere(label: str, w: float, x: float, y: float, z: float) -> tuple:
    """(w, x, y, z) snapped onto the unit sphere; NonUnitError, naming the norm
    by label, unless w^2 + x^2 + y^2 + z^2 is within ADMISSION_TOL of 1."""
    norm = w * w + x * x + y * y + z * z
    # an overflow sums to inf; written so that a NaN norm fails the gate too
    if not abs(norm - 1.0) <= ADMISSION_TOL:
        raise NonUnitError(f"{label} = {norm!r} is not 1 within {ADMISSION_TOL}")
    if abs(norm - 1.0) <= _RENORM_SKIP:
        return w, x, y, z
    s = math.sqrt(norm)
    return w / s, x / s, y / s, z / s


def _wrap_phase(phi: float) -> float:
    phi = math.fmod(phi, _TWO_PI) + 0.0  # + 0.0 turns -0.0 into 0.0
    if phi < 0.0:
        phi += _TWO_PI
    if phi >= _TWO_PI:  # fmod rounding can land exactly on 2*pi
        phi = 0.0
    return phi


@dataclass(frozen=True)
class GroupElement:
    """A point of U(2): complex pair (a, b) with |a|^2 + |b|^2 = 1, plus a phase.

    Raises NonUnitError when (a, b) is farther than 1e-9 from the unit
    sphere or not finite; nearer input is snapped by the chart gate.
    The phase must be finite and is wrapped to [0, 2*pi).
    """

    a: complex
    b: complex
    phi: float = 0.0

    def __post_init__(self):
        a = complex(self.a)
        b = complex(self.b)
        phi = float(self.phi)
        if not math.isfinite(phi):
            raise ValueError(f"phase phi = {phi!r} is not finite")
        w, x, y, z = _on_sphere("|a|^2 + |b|^2", a.real, b.imag, b.real, a.imag)
        object.__setattr__(self, "a", complex(w, z))
        object.__setattr__(self, "b", complex(y, x))
        object.__setattr__(self, "phi", _wrap_phase(phi))

    def su2_matrix(self) -> np.ndarray:
        """The 2x2 unitary ((a, b), (-b*, a*)) without the phase factor."""
        return np.array([[self.a, self.b], [-self.b.conjugate(), self.a.conjugate()]])

    def matrix(self) -> np.ndarray:
        """The full U(2) matrix including the phase factor."""
        return self.su2_matrix() * np.exp(1j * self.phi)


@dataclass(frozen=True)
class QuaternionPoint:
    """A point (w, x, y, z) of the unit 3-sphere.

    Admitted and snapped by the same gate as GroupElement.
    """

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        comps = _on_sphere("w^2 + x^2 + y^2 + z^2", float(self.w), float(self.x), float(self.y), float(self.z))
        for name, val in zip(("w", "x", "y", "z"), comps):
            object.__setattr__(self, name, val)

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.as_array(), dtype=dtype)

    def __neg__(self) -> "QuaternionPoint":
        return QuaternionPoint(-self.w, -self.x, -self.y, -self.z)


def to_quaternion(g: GroupElement) -> QuaternionPoint:
    """Chart a group element onto S^3 via a = w + i*z, b = y + i*x.

    The phase is discarded; the chart covers the SU(2) part only.
    """
    return QuaternionPoint(g.a.real, g.b.imag, g.b.real, g.a.imag)


def from_quaternion(q: QuaternionPoint, phi: float = 0.0) -> GroupElement:
    """Inverse chart: rebuild (a, b) = (w + i*z, y + i*x) and attach a phase."""
    return GroupElement(complex(q.w, q.z), complex(q.y, q.x), phi)


@dataclass(frozen=True)
class Spinor:
    """Two complex components plus an index position (upper or lower)."""

    c1: complex
    c2: complex
    variance: str = UPPER

    def __post_init__(self):
        if self.variance not in (UPPER, LOWER):
            raise ValueError(f"variance must be {UPPER!r} or {LOWER!r}")
        object.__setattr__(self, "c1", complex(self.c1))
        object.__setattr__(self, "c2", complex(self.c2))

    def components(self) -> np.ndarray:
        return np.array([self.c1, self.c2])


def lower_index(s: Spinor) -> Spinor:
    """Lower an upper index: s_A = epsilon_AB s^B, i.e. (c1, c2) -> (c2, -c1)."""
    if s.variance != UPPER:
        raise VarianceMismatchError("lower_index needs an upper-index spinor")
    return Spinor(s.c2, -s.c1, LOWER)


def raise_index(s: Spinor) -> Spinor:
    """Raise a lower index: s^A = s_B epsilon^BA, i.e. (c1, c2) -> (-c2, c1)."""
    if s.variance != LOWER:
        raise VarianceMismatchError("raise_index needs a lower-index spinor")
    return Spinor(-s.c2, s.c1, UPPER)


def contract(p: Spinor, q: Spinor) -> complex:
    """The scalar p_A q^A.

    q must carry an upper index; an upper-index p is lowered first, with
    the lowering (c1, c2) -> (c2, -c1) of lower_index written out rather
    than built as a Spinor.  The result is antisymmetric under exchange of
    the two arguments.
    """
    if q.variance != UPPER:
        raise VarianceMismatchError("contract needs an upper-index second argument")
    if p.variance == UPPER:
        return p.c2 * q.c1 + -p.c1 * q.c2
    return p.c1 * q.c1 + p.c2 * q.c2


@dataclass(frozen=True)
class Dyad:
    """Ordered ur-spinor pair (u, v), both upper-index.

    Construction does not gate on the numeric dyad conditions; consumers
    that need them call max_defect and reject above their own tolerance.
    """

    u: Spinor
    v: Spinor

    def __post_init__(self):
        if self.u.variance != UPPER or self.v.variance != UPPER:
            raise VarianceMismatchError("dyad spinors must be upper-index")

    def max_defect(self) -> float:
        """Largest violation of the four dyad contraction conditions; NaN if any is NaN."""
        return float(np.max([
            abs(contract(self.u, self.u)),
            abs(contract(self.v, self.v)),
            abs(contract(self.v, self.u) - 1.0),
            abs(contract(self.u, self.v) + 1.0),
        ]))


def dyad_from_element(g: GroupElement) -> Dyad:
    """The dyad formed by the two columns of the SU(2) part of g.

    The phase of g plays no role here; it enters only the second-quantized
    bispinor amplitudes.
    """
    return Dyad(
        u=Spinor(g.a, -g.b.conjugate()),
        v=Spinor(g.b, g.a.conjugate()),
    )


def random_s3_point(rng: np.random.Generator) -> QuaternionPoint:
    """Uniform point on S^3: four standard normals, normalized."""
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)
    return QuaternionPoint(*v)


def random_group_element(rng: np.random.Generator) -> GroupElement:
    """Haar-uniform SU(2) point with an independent uniform phase."""
    return from_quaternion(random_s3_point(rng), rng.uniform(0.0, _TWO_PI))
