"""Truncated 4-mode bosonic Fock space, sparse ladder operators, and the
second-quantized tetrad.

The second quantization promotes the four bispinor components to bosonic
modes, u_r -> a_r and u_r* -> a_r^+, with canonical commutation relations
[a_r, a_s^+] = delta_rs.  On the basis truncated at a total-quanta cutoff
the canonical relation holds exactly on states below the cutoff and is
violated only on the top shell, where creation leaves the space.

Every operator built here is the projection of the untruncated operator
onto the truncated basis.  For the symmetrized bilinears
tau_rs = (1/2){a_r^+, a_s} that distinction matters: the literal product
of truncated factors would corrupt the top shell, so the bilinears are
assembled in normal-ordered form, which is shell-preserving and therefore
projects exactly.

scipy is imported on the first operator build; the basis, coherent states
and the bilinear entry arrays need only numpy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .spinor import GroupElement

__all__ = [
    "N_MODES",
    "MAX_STATES",
    "MAX_DEFICIT",
    "TETRAD_BILINEARS",
    "CutoffTooLargeError",
    "BadModeError",
    "TruncationTooLossyError",
    "DimensionMismatchError",
    "SparseOperator",
    "FockSpace",
    "BispinorAmplitudes",
    "OperatorTetrad",
    "tetrad_component",
    "operator_tetrad",
    "coherent_state",
    "coherent_bilinear_value",
    "expectation",
]

N_MODES = 4
MAX_STATES = 10**6
# largest share of the untruncated coherent state's weight a truncation may drop
MAX_DEFICIT = 1e-8


class CutoffTooLargeError(ValueError):
    """Requested cutoff would exceed the configured state-count bound."""


class BadModeError(ValueError):
    """Mode index outside 1..4."""


class TruncationTooLossyError(ValueError):
    """Coherent amplitudes too large for the cutoff; norm deficit above bound."""


class DimensionMismatchError(ValueError):
    """Operator and state dimensions disagree."""


class SparseOperator:
    """Immutable complex sparse matrix over a Fock basis.

    Stored in canonical CSR form (sorted, deduplicated, no explicit
    zeros) so the triplet listing is deterministic.
    """

    __slots__ = ("_mat",)

    def __init__(self, matrix):
        from scipy import sparse

        mat = sparse.csr_array(matrix, dtype=complex)
        if mat.shape[0] != mat.shape[1]:
            raise ValueError("operator matrix must be square")
        mat.sum_duplicates()
        mat.eliminate_zeros()
        mat.data.setflags(write=False)
        object.__setattr__(self, "_mat", mat)

    def __setattr__(self, name, value):
        raise AttributeError("SparseOperator is immutable")

    @classmethod
    def identity(cls, dimension: int) -> "SparseOperator":
        from scipy import sparse

        return cls(sparse.eye_array(dimension, dtype=complex, format="csr"))

    @classmethod
    def zero(cls, dimension: int) -> "SparseOperator":
        from scipy import sparse

        return cls(sparse.csr_array((dimension, dimension), dtype=complex))

    @classmethod
    def from_diagonal(cls, values) -> "SparseOperator":
        from scipy import sparse

        values = np.asarray(values, dtype=complex)
        return cls(sparse.diags_array(values, format="csr"))

    @property
    def dimension(self) -> int:
        return self._mat.shape[0]

    @property
    def nnz(self) -> int:
        return self._mat.nnz

    @property
    def matrix(self):
        """The underlying CSR array (read-only data buffer)."""
        return self._mat

    def triplets(self):
        """Row-major list of (row, col, value) for all stored entries."""
        coo = self._mat.tocoo()
        return [
            (int(r), int(c), complex(v))
            for r, c, v in zip(coo.row, coo.col, coo.data)
        ]

    def to_dense(self) -> np.ndarray:
        return self._mat.toarray()

    def diagonal(self) -> np.ndarray:
        return self._mat.diagonal()

    def dagger(self) -> "SparseOperator":
        return SparseOperator(self._mat.conj().T)

    def hermiticity_defect(self) -> float:
        diff = self._mat - self._mat.conj().T
        return float(np.abs(diff.data).max()) if diff.nnz else 0.0

    def max_abs(self, columns=None) -> float:
        """Largest entry magnitude, optionally restricted to a column subset."""
        mat = self._mat if columns is None else self._mat[:, columns]
        return float(np.abs(mat.data).max()) if mat.nnz else 0.0

    def __matmul__(self, other):
        if isinstance(other, SparseOperator):
            return SparseOperator(self._mat @ other._mat)
        return self._mat @ np.asarray(other, dtype=complex)

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        return SparseOperator(self._mat + other._mat)

    def __sub__(self, other: "SparseOperator") -> "SparseOperator":
        return SparseOperator(self._mat - other._mat)

    def __neg__(self) -> "SparseOperator":
        return SparseOperator(-self._mat)

    def __mul__(self, scalar) -> "SparseOperator":
        return SparseOperator(self._mat * complex(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        return f"SparseOperator(dimension={self.dimension}, nnz={self.nnz})"


def _mode_index(r: int) -> int:
    if r not in (1, 2, 3, 4):
        raise BadModeError(f"mode index {r!r} outside 1..{N_MODES}")
    return r - 1


def _occupations(cutoff: int) -> np.ndarray:
    """Basis rows (n1, n2, n3, n4): total-quanta-major, then lexicographic.

    Within shell t, n4 = t - n1 - n2 - n3 is fixed by the rest, so the shell
    is the lexicographic (n1, n2, n3) with sum <= t, each completed by n4.
    """
    grid = np.indices((cutoff + 1,) * 3, dtype=np.int64).reshape(3, -1).T
    sums = grid.sum(axis=1)
    keep = sums <= cutoff
    triples, sums = grid[keep], sums[keep]
    shells = []
    for total in range(cutoff + 1):
        inside = sums <= total
        shells.append(np.column_stack((triples[inside], total - sums[inside])))
    return np.concatenate(shells)


def _choose(n: np.ndarray, k: int) -> np.ndarray:
    """Elementwise binomial(n, k) of a nonnegative integer array."""
    out = np.ones_like(n)
    for j in range(k):
        out = out * (n - j)
    return out // math.factorial(k)


def _rank(occ) -> np.ndarray:
    """Basis positions of (N, 4) occupation rows, in closed form.

    The combinatorial number system (Knuth, TAOCP 4A, 7.2.1.3): with total
    T and rest R = T - n1, the position is
    C(T+4, 4) - C(R+3, 3) + C(R+2, 2) - C(R-n2+2, 2) + n3, i.e. all states
    up to shell T, less those of shell T whose n1 is not smaller, plus
    those with this n1 and a smaller n2, plus n3.  Rows must lie in the
    basis; nothing here checks that.
    """
    occ = np.asarray(occ, dtype=np.int64)
    total = occ.sum(axis=1)
    rest = total - occ[:, 0]
    return (
        _choose(total + 4, 4)
        - _choose(rest + 3, 3)
        + _choose(rest + 2, 2)
        - _choose(rest - occ[:, 1] + 2, 2)
        + occ[:, 2]
    )


class FockSpace:
    """Occupation basis of 4 bosonic modes with total quanta <= cutoff.

    The basis order (total-quanta-major, then lexicographic) is part of the
    CLI output contract; the dimension is binomial(cutoff + 4, 4).
    """

    def __init__(self, cutoff: int):
        if not (0 <= cutoff < math.inf and cutoff % 1 == 0):
            raise ValueError(f"cutoff must be a nonnegative integer, got {cutoff!r}")
        cutoff = int(cutoff)
        dimension = math.comb(cutoff + N_MODES, N_MODES)
        if dimension > MAX_STATES:
            raise CutoffTooLargeError(
                f"cutoff {cutoff} gives {dimension} states, above the bound {MAX_STATES}"
            )
        self.cutoff = cutoff
        self.dimension = dimension
        self.occupations = _occupations(cutoff)
        self.occupations.setflags(write=False)
        # (k, j) with k < j -> the gather of a_k^+ a_j, filled by _tau_entries
        self._gathers = {}

    def index_of(self, state) -> int:
        """Basis position of an occupation tuple; KeyError if it is not in the basis."""
        occ = np.asarray(state, dtype=float)
        inside = (
            occ.shape == (N_MODES,)
            and np.all(occ == np.floor(occ))
            and occ.min() >= 0
            and occ.sum() <= self.cutoff
        )
        if not inside:
            raise KeyError(tuple(state))
        return int(_rank(occ[None, :])[0])

    def safe_indices(self) -> np.ndarray:
        """Indices of states with total quanta below the cutoff.

        On this subspace the canonical commutators are exact; the top
        shell feels the truncation of the creation operators.
        """
        return np.flatnonzero(self.occupations.sum(axis=1) < self.cutoff)

    def identity(self) -> SparseOperator:
        return SparseOperator.identity(self.dimension)

    def total_quanta(self) -> SparseOperator:
        """Diagonal operator counting total occupation."""
        return SparseOperator.from_diagonal(self.occupations.sum(axis=1).astype(float))

    def _operator(self, rows, cols, values) -> SparseOperator:
        """Operator from entry arrays; no entries give the zero operator."""
        if len(values) == 0:
            return SparseOperator.zero(self.dimension)
        from scipy import sparse

        mat = sparse.csr_array(
            (np.asarray(values, dtype=complex), (rows, cols)),
            shape=(self.dimension, self.dimension),
        )
        return SparseOperator(mat)

    def annihilator(self, r: int) -> SparseOperator:
        """a_r: maps |.. n_r ..> to sqrt(n_r) |.. n_r - 1 ..>."""
        k = _mode_index(r)
        cols = np.flatnonzero(self.occupations[:, k])
        lowered = self.occupations[cols]
        values = np.sqrt(lowered[:, k].astype(float))
        lowered[:, k] -= 1
        return self._operator(_rank(lowered), cols, values)

    def creator(self, r: int) -> SparseOperator:
        """a_r^+, the adjoint of a_r.  Annihilates the top total-quanta shell."""
        return self.annihilator(r).dagger()

    def _tau_entries(self, r: int, s: int):
        """(rows, cols, values) of tau_rs in normal-ordered form.

        For r == s that is the diagonal n_r + 1/2.  Otherwise it is
        a_r^+ a_s, which moves one quantum from mode s to mode r and keeps
        the total, so every image stays in the basis and the entries equal
        those of the untruncated operator.  The two square roots stay
        separate factors: sqrt((n_r + 1) n_s) rounds differently, and the
        values must match the product of the truncated ladder matrices.

        tau_sr is the adjoint of tau_rs and its entries are real, so each
        mode pair is gathered once, for r < s, and kept read-only on the
        space; tau_sr is the same arrays with rows and cols swapped.  Its
        value at a swapped position is the same two roots in the other
        order, so the values are bit-identical to a separate gather.
        """
        k, j = _mode_index(r), _mode_index(s)
        if k == j:
            diagonal = np.arange(self.dimension)
            return diagonal, diagonal, self.occupations[:, k] + 0.5
        pair = (min(k, j), max(k, j))
        if pair not in self._gathers:
            self._gathers[pair] = self._gather(*pair)
        rows, cols, values = self._gathers[pair]
        return (rows, cols, values) if k < j else (cols, rows, values)

    def _gather(self, k: int, j: int):
        """Read-only (rows, cols, values) of a_k^+ a_j over the basis (0-based modes)."""
        cols = np.flatnonzero(self.occupations[:, j])
        moved = self.occupations[cols]
        values = np.sqrt(moved[:, k] + 1.0) * np.sqrt(moved[:, j].astype(float))
        moved[:, k] += 1
        moved[:, j] -= 1
        # MAX_STATES < 2**31, so the positions fit int32 and the kept arrays
        # take a third less memory
        entries = (_rank(moved).astype(np.int32), cols.astype(np.int32), values)
        for array in entries:
            array.setflags(write=False)
        return entries

    def _bilinear(self, terms) -> SparseOperator:
        """The sum of coeff * tau_rs over (coeff, r, s) terms."""
        entries = [self._tau_entries(r, s) for _, r, s in terms]
        scaled = [complex(coeff) * values for (coeff, _, _), (_, _, values) in zip(terms, entries)]
        if all(r == s for _, r, s in terms):
            # summed in term order, the same rounding as adding the tau matrices
            return SparseOperator.from_diagonal(sum(scaled))
        # off-diagonal terms of one tetrad component move quanta between
        # different mode pairs, so their positions are disjoint and nothing
        # is summed
        rows, cols, _ = zip(*entries)
        # scipy keeps the index dtype it is given; the kept gathers are int32,
        # and the operators' CSR indices stay int64
        rows, cols = (np.concatenate(part, dtype=np.int64) for part in (rows, cols))
        return self._operator(rows, cols, np.concatenate(scaled))

    def tau(self, r: int, s: int) -> SparseOperator:
        """Symmetrized bilinear (1/2){a_r^+, a_s} projected to the truncated basis.

        Built in normal-ordered form: a_r^+ a_s plus 1/2 on the diagonal
        when r == s.  The normal-ordered product preserves the total-quanta
        shell, so it equals the projection of the untruncated operator;
        its entries are written out directly from the occupations.
        """
        return self._bilinear(((1.0, r, s),))


@dataclass(frozen=True)
class BispinorAmplitudes:
    """The four bispinor components (u_1, u_2, u_3, u_4) with phase attached."""

    u1: complex
    u2: complex
    u3: complex
    u4: complex

    @classmethod
    def from_element(cls, g: GroupElement) -> "BispinorAmplitudes":
        """(a, -b*, b, a*) times e^(i*phi), the mode amplitudes of a group element."""
        ph = cmath.exp(1j * g.phi)
        return cls(g.a * ph, -g.b.conjugate() * ph, g.b * ph, g.a.conjugate() * ph)

    def as_array(self) -> np.ndarray:
        return np.array([self.u1, self.u2, self.u3, self.u4])


# Spatial tetrad components as combinations of tau_rs; the time component
# is the full zero-point-shifted number operator.  Each combination is
# Hermitian because conj(coefficient of tau_rs) equals the coefficient of
# tau_sr; in every spatial entry the diagonal 1/2 terms cancel.
TETRAD_BILINEARS = {
    "t0": ((1.0, 1, 1), (1.0, 2, 2), (1.0, 3, 3), (1.0, 4, 4)),
    "z1": ((-0.5, 1, 2), (-0.5, 2, 1), (0.5, 3, 4), (0.5, 4, 3)),
    "z2": ((0.5j, 1, 2), (-0.5j, 2, 1), (-0.5j, 3, 4), (0.5j, 4, 3)),
    "z3": ((-0.5, 1, 1), (0.5, 2, 2), (0.5, 3, 3), (-0.5, 4, 4)),
    "x1": ((0.5, 1, 4), (0.5, 4, 1), (0.5, 2, 3), (0.5, 3, 2)),
    "x2": ((-0.5j, 1, 4), (0.5j, 4, 1), (0.5j, 2, 3), (-0.5j, 3, 2)),
    "x3": ((0.5, 1, 3), (0.5, 3, 1), (-0.5, 2, 4), (-0.5, 4, 2)),
    "y1": ((-0.5j, 1, 4), (0.5j, 4, 1), (-0.5j, 2, 3), (0.5j, 3, 2)),
    "y2": ((-0.5, 1, 4), (-0.5, 4, 1), (0.5, 2, 3), (0.5, 3, 2)),
    "y3": ((-0.5j, 1, 3), (0.5j, 3, 1), (0.5j, 2, 4), (-0.5j, 4, 2)),
}


def tetrad_component(space: FockSpace, name: str) -> SparseOperator:
    """One named component of the operator tetrad (t0, z1..z3, x1..x3, y1..y3)."""
    try:
        terms = TETRAD_BILINEARS[name]
    except KeyError:
        raise ValueError(f"unknown tetrad component {name!r}") from None
    return space._bilinear(terms)


@dataclass(frozen=True, eq=False)
class OperatorTetrad:
    """The four operator-valued 4-vectors; every component is Hermitian.

    The time components of z_hat, x_hat, y_hat and the spatial components
    of t_hat are explicit zero operators.
    """

    t_hat: tuple
    z_hat: tuple
    x_hat: tuple
    y_hat: tuple

    def components(self):
        """Yield (label, operator) over all 16 components."""
        for label, vec in (("t", self.t_hat), ("z", self.z_hat), ("x", self.x_hat), ("y", self.y_hat)):
            for mu, op in enumerate(vec):
                yield f"{label}{mu}", op


def operator_tetrad(space: FockSpace) -> OperatorTetrad:
    """Quantized tetrad: t_hat = (n_hat, 0, 0, 0) plus the spatial combinations."""
    zero = SparseOperator.zero(space.dimension)
    comp = {name: tetrad_component(space, name) for name in TETRAD_BILINEARS}
    return OperatorTetrad(
        t_hat=(comp["t0"], zero, zero, zero),
        z_hat=(zero, comp["z1"], comp["z2"], comp["z3"]),
        x_hat=(zero, comp["x1"], comp["x2"], comp["x3"]),
        y_hat=(zero, comp["y1"], comp["y2"], comp["y3"]),
    )


def _sqrt_factorials(n: int) -> np.ndarray:
    return np.sqrt(np.cumprod(np.concatenate(([1.0], np.arange(1.0, n + 1.0)))))


def coherent_state(space: FockSpace, amps: BispinorAmplitudes, scale: float) -> np.ndarray:
    """Normalized truncated coherent state with mode amplitudes scale * u_r.

    The weight the truncation discards from the untruncated state is the
    Poisson tail of the total intensity sum_r |alpha_r|^2; if that deficit
    exceeds MAX_DEFICIT or is NaN (a NaN amplitude, an overflowing weight)
    the state is refused as TruncationTooLossyError.  A non-finite scale
    is refused as ValueError.
    """
    scale = float(scale)
    if not math.isfinite(scale):
        raise ValueError(f"coherent scale {scale!r} is not finite")
    alphas = scale * amps.as_array()
    sq = _sqrt_factorials(space.cutoff)
    powers = np.arange(space.cutoff + 1)
    occ = space.occupations
    # huge amplitudes overflow here into a NaN deficit, which the gate refuses
    with np.errstate(over="ignore", invalid="ignore"):
        tables = [alpha**powers / sq for alpha in alphas]
        coeffs = (
            tables[0][occ[:, 0]]
            * tables[1][occ[:, 1]]
            * tables[2][occ[:, 2]]
            * tables[3][occ[:, 3]]
        )
        norm_sq = float(np.vdot(coeffs, coeffs).real)
        intensity = float(np.sum(np.abs(alphas) ** 2))
    deficit = 1.0 - norm_sq * math.exp(-intensity)
    # written so that a NaN deficit fails the gate too
    if not deficit <= MAX_DEFICIT:
        raise TruncationTooLossyError(
            f"truncation discards {deficit:.3e} of the state weight, above {MAX_DEFICIT}"
        )
    state = coeffs / math.sqrt(norm_sq)
    state.setflags(write=False)
    return state


def coherent_bilinear_value(amps: BispinorAmplitudes, scale: float, terms) -> complex:
    """Analytic coherent-state expectation of a tau combination.

    For coherent amplitudes alpha_r, <tau_rs> = conj(alpha_r) alpha_s plus
    the zero-point 1/2 on the diagonal; truncation error is not included.
    """
    alphas = float(scale) * amps.as_array()
    total = 0.0 + 0.0j
    for coeff, r, s in terms:
        total += coeff * (np.conj(alphas[r - 1]) * alphas[s - 1] + (0.5 if r == s else 0.0))
    return complex(total)


def expectation(op: SparseOperator, state) -> complex:
    """<state| op |state>; real up to rounding when op is Hermitian."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (op.dimension,):
        raise DimensionMismatchError(
            f"state shape {state.shape} does not match operator dimension {op.dimension}"
        )
    return complex(np.vdot(state, op @ state))
