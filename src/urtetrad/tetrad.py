"""Null and real tetrads from spinor dyads, metric reconstruction, and
tangent frames on S^3.

Conventions, fixed once for the whole package:

* signature eta = diag(-1, 1, 1, 1); every index is raised and lowered
  with eta;
* sigma^mu = (identity, sigma_x, sigma_y, sigma_z), and in each bilinear
  the first spinor slot is complex-conjugated;
* the 1/sqrt(2) normalization is kept in all four null vectors, so the
  real vectors m and n have time component 1/sqrt(2) each, and the
  componentwise relation between them is asserted in its normalization
  free form m^0 = n^0, m^k = -n^k.

Under these choices the bilinears of a dyad reproduce the Minkowski
metric exactly, and the real combinations match the explicit quaternion
polynomials implemented in real_tetrad_polynomials, which serves as the
independent oracle for the bilinear route.

Each function has one body for one point or a stack: 4-vectors are (..., 4)
arrays, and a stacked call equals its per-point calls bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spinor import Dyad

__all__ = [
    "SIGMA",
    "ETA",
    "NULL_FRAME_METRIC",
    "DYAD_GATE",
    "DyadInvalidError",
    "SingularFrameMetricError",
    "NullTetrad",
    "RealTetrad",
    "pauli_bilinear",
    "null_tetrad",
    "minkowski_inner",
    "reconstruct_metric",
    "reconstruct_metric_general",
    "real_tetrad",
    "real_tetrad_polynomials",
    "tangent_frame_at",
]

_SQRT2 = math.sqrt(2.0)

SIGMA = np.array(
    [
        [[1.0, 0.0], [0.0, 1.0]],
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)
SIGMA.setflags(write=False)

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])
ETA.setflags(write=False)

# constant frame metric of the null tetrad (l, l*, m, n); it is its own
# inverse, which the verification suite asserts
NULL_FRAME_METRIC = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)
NULL_FRAME_METRIC.setflags(write=False)

DYAD_GATE = 1e-9


class DyadInvalidError(ValueError):
    """Dyad contraction conditions violated beyond the admission gate."""


class SingularFrameMetricError(ValueError):
    """Frame metric is not invertible."""


@dataclass(frozen=True, eq=False)
class NullTetrad:
    """Four lightlike 4-vectors (l, l*, m, n), contravariant components.

    l_star is the componentwise conjugate of l; m and n are real.  Every
    null tetrad has the frame metric NULL_FRAME_METRIC, which relates the
    frame to the space-time metric.
    """

    l: np.ndarray
    l_star: np.ndarray
    m: np.ndarray
    n: np.ndarray

    def vectors(self):
        return (self.l, self.l_star, self.m, self.n)


@dataclass(frozen=True, eq=False)
class RealTetrad:
    """Real frame (t, z, x, y); t is the unit time direction, (x, y, z)
    the dreibein."""

    t: np.ndarray
    z: np.ndarray
    x: np.ndarray
    y: np.ndarray

    def vectors(self):
        return (self.t, self.z, self.x, self.y)

    def dreibein(self) -> np.ndarray:
        """Spatial 3x3 block, rows (x, y, z) spatial parts; (..., 3, 3) for a stack.

        For dyad-built frames this is a proper rotation, and it is even in
        the quaternion (the SU(2) -> SO(3) double cover).
        """
        return np.stack([self.x[..., 1:], self.y[..., 1:], self.z[..., 1:]], axis=-2)


def pauli_bilinear(p, q) -> np.ndarray:
    """(1/sqrt 2) conj(p)^T sigma^mu q for the four sigma matrices.

    p and q are spinors of shape (..., 2) with matching leading axes; a
    single pair gives shape (4,), a stack of N pairs shape (N, 4).  The
    first slot is the conjugated one; this is the only place the
    dotted/undotted distinction enters the numerics.
    """
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    return np.einsum("...i,mij,...j->...m", p.conj(), SIGMA, q) / _SQRT2


def null_tetrad(d: Dyad) -> NullTetrad:
    """Build the null tetrad (l, l*, m, n) from a dyad.

    l = bilinear(v, u), l* = bilinear(u, v), m = bilinear(v, v),
    n = bilinear(u, u).  Raises DyadInvalidError when the dyad conditions
    are violated beyond 1e-9 or the defect is NaN.
    """
    defect = d.max_defect()
    if not defect <= DYAD_GATE:
        raise DyadInvalidError(f"dyad contraction defect {defect:.3e} exceeds {DYAD_GATE}")
    return _null_tetrad(d.u.components(), d.v.components())


def _null_tetrad(u, v) -> NullTetrad:
    """null_tetrad of the spinor stacks u and v, shape (..., 2), ungated."""
    vecs = pauli_bilinear(np.stack([v, u, v, u], axis=-2), np.stack([u, v, v, u], axis=-2))
    vecs.setflags(write=False)
    return NullTetrad(*np.moveaxis(vecs, -2, 0))


def minkowski_inner(p, q):
    """eta_{mu nu} p^mu q^nu with eta = diag(-1, 1, 1, 1).

    Bilinear, not sesquilinear: no conjugation, so complex null vectors
    contract to zero with themselves.  One pair gives a complex, stacks of
    (..., 4) vectors a complex array.
    """
    a, q = _lower(p), np.asarray(q)
    # each product is formed by parts, as numpy's scalar complex product
    # forms it (its array product rounds differently); a real pair keeps the
    # +0 imaginary part that complex() gives it
    re = a.real * q.real - a.imag * q.imag
    out = np.zeros(re.shape[:-1], dtype=complex)
    out.real = re[..., 0] + re[..., 1] + re[..., 2] + re[..., 3]
    if np.iscomplexobj(a) or np.iscomplexobj(q):
        im = a.real * q.imag + a.imag * q.real
        out.imag = im[..., 0] + im[..., 1] + im[..., 2] + im[..., 3]
    return complex(out) if out.ndim == 0 else out


def _lower(p) -> np.ndarray:
    """p^mu lowered with eta: a copy in p's dtype with component 0 negated."""
    lowered = np.array(p)
    lowered[..., 0] = -lowered[..., 0]
    return lowered


def reconstruct_metric(nt: NullTetrad) -> np.ndarray:
    """l_mu l*_nu + l*_mu l_nu - m_mu n_nu - n_mu m_nu, indices lowered with eta.

    For every valid dyad this reproduces diag(-1, 1, 1, 1) to machine
    precision; the returned array, (..., 4, 4) for a stack of tetrads, is
    complex so callers can inspect the imaginary residue.
    """
    l, l_star, m, n = (_lower(v)[..., None] for v in nt.vectors())  # columns; .mT are rows
    return l * l_star.mT + l_star * l.mT - m * n.mT - n * m.mT


def reconstruct_metric_general(frame, frame_metric) -> np.ndarray:
    """g_{mu nu} = g_(a)(b) t^(a)_mu t^(b)_nu for an arbitrary frame.

    frame holds four contravariant 4-vectors, shape (4, ..., 4) for a stack
    of frames; they are lowered with eta before contraction.  Raises
    SingularFrameMetricError when the frame metric is not finite or has no
    inverse, and ValueError when a frame vector is not finite.
    """
    fm = np.asarray(frame_metric, dtype=float)
    if fm.shape != (4, 4):
        raise ValueError("frame metric must be 4x4")
    if not (np.isfinite(fm).all() and abs(np.linalg.det(fm)) >= 1e-12):
        raise SingularFrameMetricError("frame metric is singular or not finite")
    vectors = np.asarray(frame, dtype=complex)
    if not np.isfinite(vectors).all():
        raise ValueError("frame vectors are not finite")
    lowered = _lower(vectors)
    return np.einsum("ab,a...m,b...n->...mn", fm, lowered, lowered)


def real_tetrad(d: Dyad) -> RealTetrad:
    """Real linear combinations of the null tetrad.

    t = (m + n)/sqrt(2), z = (m - n)/sqrt(2), x = (l + l*)/sqrt(2),
    y = i (l - l*)/sqrt(2).  Each combination pairs a vector with its
    conjugate, so the imaginary parts vanish identically (exactly, in
    floating point) and are dropped.
    """
    return _real_tetrad(null_tetrad(d))


def _real_tetrad(nt: NullTetrad) -> RealTetrad:
    """real_tetrad of a null tetrad or a stack of them, ungated."""
    l, l_star, m, n = nt.vectors()
    vecs = (np.array([m + n, m - n, l + l_star, 1j * (l - l_star)]) / _SQRT2).real
    vecs.setflags(write=False)
    return RealTetrad(*vecs)


def _vectors(rows) -> np.ndarray:
    """Rows of 4-vector components as one read-only (len(rows), ..., 4) array.

    Each vector is contiguous, as a single point's is, so that a BLAS product
    of a stack rounds as the per-point products do."""
    vecs = np.ascontiguousarray(np.moveaxis(np.array(rows), 1, -1))
    vecs.setflags(write=False)
    return vecs


def real_tetrad_polynomials(q) -> RealTetrad:
    """The same real tetrad evaluated as explicit quaternion polynomials.

    Kept free of any spinor algebra on purpose: this is the independent
    oracle against which real_tetrad is verified.  All entries are
    quadratic in (w, x, y, z), so q and -q give identical frames.  q is a
    QuaternionPoint or a (..., 4) array of (w, x, y, z).
    """
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    zero = np.zeros_like(w)
    return RealTetrad(*_vectors([
        [zero + 1.0, zero, zero, zero],
        [zero, 2 * (w * y - x * z), -2 * (w * x + y * z), x * x + y * y - w * w - z * z],
        [zero, x * x - y * y + w * w - z * z, 2 * (x * y - w * z), 2 * (w * y + x * z)],
        [zero, -2 * (x * y + w * z), x * x - y * y - w * w + z * z, 2 * (w * x - y * z)],
    ]))


def tangent_frame_at(q):
    """Orthonormal frame of the tangent space of S^3 at q.

    The rows are the quaternion left products q*i, q*(-j) and q*(-k): the
    identity dreibein, embedded as pure-imaginary quaternions, carried to
    q.  Left translation by a unit quaternion is a Euclidean isometry of
    R^4 mapping the tangent space at the identity onto the tangent space
    at q, so the three returned 4-vectors are unit, mutually orthogonal,
    and orthogonal to the radial direction q.  q is a QuaternionPoint or a
    (..., 4) array; each returned vector then has shape (..., 4).
    """
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    return tuple(_vectors([[-x, w, z, -y], [y, z, -w, -x], [z, -y, x, -w]]))
