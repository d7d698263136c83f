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

Expectations of the bilinears do not multiply by their matrices: every
tau_rs combination is linear in the 16 moments <tau_rs> of the state
(Schwinger's oscillator construction, with four modes), and the ten
tetrad components are the rows of one (10, 4, 4) tensor
TETRAD_COEFFICIENTS, so all ten values of a state come from one
contraction with its moments (tetrad_expectations).  A FockSpace owns
one lowering table, a_r |m + e_r> = sqrt(m_r + 1) |m>, which its ladder
operators, its bilinears' patterns and its moments all read.  It keeps the
moments and ten values of the last state coherent_state made for it, from
when it is made; every other state's are computed and not kept.  Its
bilinear operators hold the space itself.

scipy is imported on the first operator build; the basis, coherent states,
moments and the bilinear CSR patterns need only numpy.
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
    "TETRAD_COEFFICIENTS",
    "CutoffTooLargeError",
    "BadModeError",
    "TruncationTooLossyError",
    "DimensionMismatchError",
    "SparseOperator",
    "BilinearOperator",
    "FockSpace",
    "BispinorAmplitudes",
    "OperatorTetrad",
    "tetrad_component",
    "operator_tetrad",
    "coherent_state",
    "coherent_bilinear_value",
    "expectation",
    "tetrad_expectations",
]

N_MODES = 4
MAX_STATES = 10**6
# largest share of the untruncated coherent state's weight a truncation may drop
MAX_DEFICIT = 1e-8
# basis states per block of FockSpace.moments: a (4, 4096) complex block and
# its conjugate take 256 KB each, so they stay in cache and no temporary
# grows with the space
_MOMENT_BLOCK = 4096


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
    zeros) so the triplet listing is deterministic.  Its data, indices and
    indptr are read-only, and a matrix passed in is copied, so no buffer
    the caller still holds can change the operator.
    """

    __slots__ = ("_mat",)

    def __init__(self, matrix):
        from scipy import sparse

        mat = _frozen_csr(sparse.csr_array(matrix, dtype=complex).copy())
        object.__setattr__(self, "_mat", mat)

    def __setattr__(self, name, value):
        raise AttributeError("SparseOperator is immutable")

    def __reduce__(self):
        return SparseOperator, (self._mat,)

    @staticmethod
    def identity(dimension: int) -> "SparseOperator":
        from scipy import sparse

        return _own(sparse.eye_array(dimension, dtype=complex, format="csr"))

    @staticmethod
    def zero(dimension: int) -> "SparseOperator":
        from scipy import sparse

        return _own(sparse.csr_array((dimension, dimension), dtype=complex))

    @staticmethod
    def from_diagonal(values) -> "SparseOperator":
        from scipy import sparse

        values = np.asarray(values, dtype=complex)
        return _own(sparse.diags_array(values, format="csr"))

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
        return _own(self._mat.conj().T.tocsr())

    def hermiticity_defect(self) -> float:
        diff = self._mat - self._mat.conj().T
        return float(np.abs(diff.data).max()) if diff.nnz else 0.0

    def max_abs(self, columns=None) -> float:
        """Largest entry magnitude, optionally restricted to a column subset."""
        mat = self._mat if columns is None else self._mat[:, columns]
        return float(np.abs(mat.data).max()) if mat.nnz else 0.0

    def __matmul__(self, other):
        if isinstance(other, SparseOperator):
            return _own(self._mat @ other._mat)
        return self._mat @ np.asarray(other, dtype=complex)

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        return _own(self._mat + other._mat)

    def __sub__(self, other: "SparseOperator") -> "SparseOperator":
        return _own(self._mat - other._mat)

    def __neg__(self) -> "SparseOperator":
        return _own(-self._mat)

    def __mul__(self, scalar) -> "SparseOperator":
        return _own(self._mat * complex(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        return f"SparseOperator(dimension={self.dimension}, nnz={self.nnz})"


def _frozen_csr(mat):
    """A square CSR array in canonical form with read-only arrays.

    It is canonicalised on a copy, never in place, because its arrays may
    be a pattern shared by several operators.
    """
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("operator matrix must be square")
    if not (mat.has_canonical_format and mat.data.all()):
        mat = mat.copy()
        mat.sum_duplicates()
        mat.eliminate_zeros()
    for part in (mat.data, mat.indices, mat.indptr):
        part.setflags(write=False)
    return mat


def _own(mat) -> SparseOperator:
    """The operator of a complex CSR array built here and held by no caller:
    frozen in place rather than copied."""
    op = object.__new__(SparseOperator)
    object.__setattr__(op, "_mat", _frozen_csr(mat))
    return op


class BilinearOperator(SparseOperator):
    """sum_rs C[r-1, s-1] tau_rs on one FockSpace: a SparseOperator that
    also keeps its 4x4 coefficient matrix C and its space.

    expectation contracts C with the state's moments (FockSpace.moments)
    instead of multiplying by the matrix; a tetrad component with entries
    knows its row of TETRAD_COEFFICIENTS and reads its value from the ten
    computed with the moments.  It shares the matrix of the canonical,
    frozen operator it is made from.  Arithmetic on it (dagger, sums,
    products, scalar multiples) gives plain SparseOperators.
    """

    __slots__ = ("coefficients", "_space", "_row")

    def __init__(
        self,
        op: SparseOperator,
        space: "FockSpace",
        coefficients: np.ndarray,
        row: int | None = None,
    ):
        coefficients.setflags(write=False)
        object.__setattr__(self, "_mat", op.matrix)
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "_space", space)
        # a component with no entries (spatial, at cutoff 0) has no row, so
        # expectation gives it exactly 0j
        object.__setattr__(self, "_row", row if op.nnz else None)

    def __reduce__(self):
        return BilinearOperator, (_own(self._mat), self._space, self.coefficients, self._row)


def _mode_index(r: int) -> int:
    if r not in (1, 2, 3, 4):
        raise BadModeError(f"mode index {r!r} outside 1..{N_MODES}")
    return r - 1


def _coefficient_matrix(terms) -> np.ndarray:
    """The 4x4 C with sum_rs C[r-1, s-1] tau_rs the sum of coeff * tau_rs
    over (coeff, r, s) terms."""
    coefficients = np.zeros((N_MODES, N_MODES), dtype=complex)
    for coeff, r, s in terms:
        coefficients[_mode_index(r), _mode_index(s)] += coeff
    return coefficients


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
    n1, n2, n3, n4 = np.asarray(occ, dtype=np.int64).T
    # summed by column: numpy reduces a short last axis slowly
    total = n1 + n2 + n3 + n4
    rest = total - n1
    return (
        _choose(total + 4, 4)
        - _choose(rest + 3, 3)
        + _choose(rest + 2, 2)
        - _choose(rest - n2 + 2, 2)
        + n3
    )


def _frozen_state(state: np.ndarray) -> np.ndarray:
    """A complex128 copy of state on an immutable bytes buffer; such an
    array can never be made writable again, so its values never change."""
    return np.frombuffer(np.asarray(state, dtype=complex).tobytes(), dtype=complex)


def _as_state(state, dimension: int) -> np.ndarray:
    """state as a complex array; DimensionMismatchError unless its shape is (dimension,)."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (dimension,):
        raise DimensionMismatchError(
            f"state shape {state.shape} does not match dimension {dimension}"
        )
    return state


class FockSpace:
    """Occupation basis of 4 bosonic modes with total quanta <= cutoff.

    The basis order (total-quanta-major, then lexicographic) is part of the
    CLI output contract; the dimension is binomial(cutoff + 4, 4).  A space
    builds its lowering table, operator patterns and coherent tables on
    first use, keeps the moments of the last state coherent_state made,
    and pickles as its cutoff alone.
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
        # CSR patterns of sums of a_k^+ a_j, filled by _pattern
        self._patterns = {}
        # (positions, weights), filled by _lowering
        self._lowered = None
        # what coherent_state reads, filled by _coherent_tables
        self._coherent = None
        # the entry of the last state coherent_state made for the space
        self._memo = None

    def __reduce__(self):
        return FockSpace, (self.cutoff,)

    def _lowering(self):
        """Read-only (positions, weights), each (4, D'):
        (a_r psi)[m] = weights[r-1, m] * psi[positions[r-1, m]], where
        positions[k, m] is the rank of m + e_k and weights[k, m] is
        sqrt(m_k + 1).  m runs over the basis of cutoff - 1, which is the
        first D' rows of the basis."""
        if self._lowered is None:
            below = self.occupations[: math.comb(self.cutoff - 1 + N_MODES, N_MODES)]
            # MAX_STATES < 2**31, so the positions fit int32
            positions = np.empty((N_MODES, len(below)), dtype=np.int32)
            weights = np.empty((N_MODES, len(below)))
            for k in range(N_MODES):
                raised = below.copy()
                raised[:, k] += 1
                positions[k] = _rank(raised)
                weights[k] = np.sqrt(below[:, k] + 1.0)
            positions.setflags(write=False)
            weights.setflags(write=False)
            self._lowered = positions, weights
        return self._lowered

    def _entry(self, state: np.ndarray) -> tuple:
        """(state, its moments, its ten tetrad values) of a complex state
        whose shape the caller has checked: the kept entry when state is the
        kept state, else computed and not kept.

        In normal order, M_rs = <a_r psi | a_s psi> + delta_rs |psi|^2 / 2,
        so M is the 4x4 Gram matrix of the four lowered vectors, gathered
        and weighted from the lowering table in blocks of _MOMENT_BLOCK
        basis states.  The kept state is frozen, so its entry never goes
        stale; any other array may change in place and is never kept.
        """
        # read once, so a state is never paired with another state's moments
        memo = self._memo
        if memo is not None and state is memo[0]:
            return memo
        state = np.ascontiguousarray(state)
        positions, weights = self._lowering()
        moments = np.zeros((N_MODES, N_MODES), dtype=complex)
        for start in range(0, positions.shape[1], _MOMENT_BLOCK):
            block = slice(start, start + _MOMENT_BLOCK)
            lowered = np.take(state, positions[:, block])
            lowered *= weights[:, block]
            moments += np.conj(lowered) @ lowered.T
        moments.reshape(-1)[:: N_MODES + 1] += 0.5 * np.vdot(state, state).real
        moments.setflags(write=False)
        return state, moments, _tetrad_values(moments)

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

    def annihilator(self, r: int) -> SparseOperator:
        """a_r: maps |.. n_r ..> to sqrt(n_r) |.. n_r - 1 ..>.

        Row m of the lower basis holds one entry, sqrt(m_r + 1) at the
        column of m + e_r, read from the lowering table; the top
        shell's rows are empty.
        """
        k = _mode_index(r)
        if self.cutoff == 0:  # nothing to lower; int32 like every empty operator
            return SparseOperator.zero(self.dimension)
        from scipy import sparse

        positions, weights = self._lowering()
        # an int64 indptr makes scipy store the int32 positions as int64
        # too, the index dtype the pinned ladder bytes hold
        indptr = np.minimum(np.arange(self.dimension + 1, dtype=np.int64), positions.shape[1])
        data = (weights[k].astype(complex), positions[k], indptr)
        return _own(sparse.csr_array(data, shape=(self.dimension, self.dimension)))

    def creator(self, r: int) -> SparseOperator:
        """a_r^+, the adjoint of a_r.  Annihilates the top total-quanta shell."""
        return self.annihilator(r).dagger()

    def _coherent_tables(self):
        """(powers, root factorials, index), built on first use: the powers
        n and sqrt(n!) for n = 0..cutoff, and a read-only int32 (2, D)
        index whose row 0 holds each basis state's flat position
        (n1, n2, n3) in a (cutoff + 1)^3 table and row 1 its n4."""
        if self._coherent is None:
            side = self.cutoff + 1
            powers = np.arange(side)
            roots = np.sqrt(np.cumprod(np.concatenate(([1.0], np.arange(1.0, side)))))
            n1, n2, n3, n4 = self.occupations.T
            # MAX_STATES bounds side^3 below 2**31
            index = np.array(((n1 * side + n2) * side + n3, n4), dtype=np.int32)
            for array in (powers, roots, index):
                array.setflags(write=False)
            self._coherent = powers, roots, index
        return self._coherent

    def _pattern(self, pairs):
        """The canonical CSR pattern of the sum of a_k^+ a_j over (k, j)
        pairs (0-based, k != j), kept per space: the pairs in column order,
        read-only int64 indices and indptr, and each entry's pair and value.

        a_k^+ a_j |p + e_j> = sqrt(p_k + 1) sqrt(p_j + 1) |p + e_k> for p on
        the basis of cutoff - 1, so the entries come from the lowering
        table.  A move keeps the shell, where the basis is
        lexicographic in (n1, n2, n3), so every row holds the terms'
        columns in the order of (e_j - e_k)[:3] and nothing is sorted.
        """
        order = tuple(sorted(pairs, key=lambda kj: [(m == kj[1]) - (m == kj[0]) for m in range(3)]))
        if order not in self._patterns:
            positions, weights = self._lowering()
            # row n holds an entry of a_k^+ a_j when n_k > 0
            present = self.occupations[:, [k for k, _ in order]] > 0
            indptr = np.zeros(self.dimension + 1, dtype=np.int64)
            np.cumsum(present.sum(axis=1), out=indptr[1:])
            # each row's place for the next term
            place = indptr[:-1].copy()
            indices = np.empty(indptr[-1], dtype=np.int64)
            term = np.empty(indptr[-1], dtype=np.int8)
            roots = np.empty(indptr[-1])
            for t, (k, j) in enumerate(order):
                dest = place[positions[k]]
                place += present[:, t]
                indices[dest] = positions[j]
                term[dest] = t
                # two roots, not one, as in the product of the ladder matrices
                roots[dest] = weights[k] * weights[j]
            for array in (indices, indptr):
                array.setflags(write=False)
            self._patterns[order] = order, indices, indptr, term, roots
        return self._patterns[order]

    def _bilinear(self, terms, row: int | None = None) -> BilinearOperator:
        """The sum of coeff * tau_rs over (coeff, r, s) terms, all with r == s
        or all with r != s; row is the terms' row of TETRAD_COEFFICIENTS
        when they are a tetrad component.  tau_rr is n_r + 1/2; for r != s,
        tau_rs is a_r^+ a_s, which keeps the total, so the entries equal
        those of the untruncated operator."""
        coefficients = _coefficient_matrix(terms) if row is None else TETRAD_COEFFICIENTS[row]
        pairs = {(r - 1, s - 1) for _, r, s in terms}
        if all(k == j for k, j in pairs):
            # summed in term order, the same rounding as adding the tau matrices
            op = SparseOperator.from_diagonal(
                sum(complex(coeff) * (self.occupations[:, r - 1] + 0.5) for coeff, r, _ in terms)
            )
        elif self.cutoff == 0:  # no quantum moves; int32 like the ladder products
            op = SparseOperator.zero(self.dimension)
        else:
            from scipy import sparse

            order, indices, indptr, term, roots = self._pattern(pairs)
            data = np.take([coefficients[kj] for kj in order], term) * roots
            shape = (self.dimension, self.dimension)
            op = _own(sparse.csr_array((data, indices, indptr), shape=shape))
        return BilinearOperator(op, self, coefficients, row)

    def moments(self, state) -> np.ndarray:
        """Read-only (4, 4) moments M[r-1, s-1] = <state| tau_rs |state>,
        read from the lowering table (see _entry).

        Those of the last state coherent_state made for the space are kept,
        so the operators evaluated on it share them; any other state's are
        computed on each call.
        """
        return self._entry(_as_state(state, self.dimension))[1]

    def tau(self, r: int, s: int) -> BilinearOperator:
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
# The same combinations as one read-only (10, 4, 4) tensor, a row per
# component in TETRAD_BILINEARS order.
TETRAD_COEFFICIENTS = np.array([_coefficient_matrix(terms) for terms in TETRAD_BILINEARS.values()])
TETRAD_COEFFICIENTS.setflags(write=False)
_TETRAD_ROWS = {name: row for row, name in enumerate(TETRAD_BILINEARS)}


def _tetrad_values(moments: np.ndarray) -> tuple:
    """The ten tetrad values of a state, in TETRAD_BILINEARS order, from
    its moments; each row sums like (C * moments).sum() of its component."""
    return tuple((TETRAD_COEFFICIENTS * moments).sum(axis=(1, 2)).tolist())


def tetrad_component(space: FockSpace, name: str) -> BilinearOperator:
    """One named component of the operator tetrad (t0, z1..z3, x1..x3, y1..y3)."""
    try:
        row = _TETRAD_ROWS[name]
    except KeyError:
        raise ValueError(f"unknown tetrad component {name!r}") from None
    return space._bilinear(TETRAD_BILINEARS[name], row)


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


def coherent_state(space: FockSpace, amps: BispinorAmplitudes, scale: float) -> np.ndarray:
    """Normalized truncated coherent state with mode amplitudes scale * u_r.

    The weight the truncation discards from the untruncated state is the
    Poisson tail of the total intensity sum_r |alpha_r|^2; if that deficit
    exceeds MAX_DEFICIT or is not finite (a NaN amplitude, an overflowing
    weight) the state is refused as TruncationTooLossyError.  A non-finite scale
    is refused as ValueError.

    The state is complex128 and frozen: its buffer is an immutable bytes
    object, so setflags(write=True) raises on it.  The space keeps its
    moments and ten tetrad values, computed here, so the expectations of
    all components on it cost one moment matrix.
    """
    scale = float(scale)
    if not math.isfinite(scale):
        raise ValueError(f"coherent scale {scale!r} is not finite")
    powers, roots, (product_index, n4) = space._coherent_tables()
    # huge or non-finite amplitudes overflow here into a NaN deficit, which
    # the gate refuses
    with np.errstate(over="ignore", invalid="ignore"):
        alphas = scale * amps.as_array()
        # row r-1 holds alpha_r^n / sqrt(n!)
        terms = alphas[:, None] ** powers / roots
        # ((t1 t2) t3) t4 per basis state: the first three from one table
        coeffs = np.multiply.outer(np.multiply.outer(terms[0], terms[1]), terms[2]).take(product_index)
        coeffs *= terms[3].take(n4)
        norm_sq = float(np.vdot(coeffs, coeffs).real)
    a1, a2, a3, a4 = alphas.tolist()
    try:
        # summed in mode order, bit for bit numpy's sum of np.abs(alphas) ** 2
        intensity = abs(a1) * abs(a1) + abs(a2) * abs(a2) + abs(a3) * abs(a3) + abs(a4) * abs(a4)
    except OverflowError:  # a finite |alpha_r| beyond the largest float
        intensity = math.inf
    deficit = 1.0 - norm_sq * math.exp(-intensity)
    if not math.isfinite(deficit):
        raise TruncationTooLossyError(
            f"truncation deficit is {deficit}: the coherent amplitudes "
            "overflowed or are not finite"
        )
    if deficit > MAX_DEFICIT:
        raise TruncationTooLossyError(
            f"truncation discards {deficit:.3e} of the state weight, above {MAX_DEFICIT}"
        )
    coeffs /= math.sqrt(norm_sq)
    state = _frozen_state(coeffs)
    space._memo = space._entry(state)
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
    """<state| op |state>; real up to rounding when op is Hermitian.

    A tetrad component returns its value among the ten its space computes
    with the state's moments (see tetrad_expectations); passed the state
    coherent_state made last for that space, it returns the kept value
    before checking the shape, which was checked when the state was made.
    Any other BilinearOperator (tau and its combinations) contracts its
    coefficients with its space's moments of the state; any other operator
    multiplies the state.  An operator with no entries gives 0.
    """
    bilinear = isinstance(op, BilinearOperator)
    if bilinear and op._row is not None:
        memo = op._space._memo
        # coherent_state made the kept state with the space's shape
        if memo is not None and state is memo[0]:
            return memo[2][op._row]
        return op._space._entry(_as_state(state, op.dimension))[2][op._row]
    state = _as_state(state, op.dimension)
    if not op.nnz:
        return 0j
    if bilinear:
        return complex((op.coefficients * op._space._entry(state)[1]).sum())
    return complex(np.vdot(state, op @ state))


def tetrad_expectations(space: FockSpace, state) -> tuple:
    """The expectations of the ten tetrad components on state, in
    TETRAD_BILINEARS order: one contraction of TETRAD_COEFFICIENTS with the
    state's moments, the kept one for the state coherent_state made last.

    Each value is bit for bit the component's (C * moments).sum(); where a
    component has no entries (the spatial ones at cutoff 0) expectation
    gives exactly 0j instead.
    """
    return space._entry(_as_state(state, space.dimension))[2]
