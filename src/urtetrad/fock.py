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
of truncated factors would corrupt the top shell, so the bilinear of any
4x4 coefficient matrix C is built from C alone in normal-ordered form,
which is shell-preserving and therefore projects exactly.

Expectations of the bilinears do not multiply by their matrices: every
tau_rs combination is linear in the 16 moments <tau_rs> of the state
(Schwinger's oscillator construction, with four modes), and the ten
tetrad components are the rows of one (10, 4, 4) tensor
TETRAD_COEFFICIENTS, so all ten values of a state come from one
contraction with its moments (tetrad_expectations).  A FockSpace owns
one lowering table, a_r |m + e_r> = sqrt(m_r + 1) |m>, ranked in closed
form from the basis order, which its ladder operators, its bilinears'
patterns and its gathered moments read; of a build it keeps only each
pattern's indices and indptr.  It keeps the moments and ten values of the
last state coherent_state made for it, which every reader gets through
FockSpace._entry, and its bilinear operators hold it.  One closed form in
the state's intensity I, E_C(I) = sum_{n<=C} I^n / n!, gates that state,
normalises it and gives its moments.

Every operator owns its CSR arrays, written here with numpy, with int32
indices and indptr (MAX_STATES < 2**31); scipy is imported only to read a
caller's matrix (SparseOperator) or for .matrix, which the arithmetic uses,
so operator builds, triplets, coherent states and moments need only numpy.
"""

from __future__ import annotations

import cmath
import math
import numbers
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

    It owns three read-only CSR arrays (data, indices, indptr) in canonical
    form (sorted, deduplicated, no explicit zeros), so the triplet listing is
    deterministic, and copies a matrix passed in, so no buffer the caller
    holds can change it.  .matrix wraps the arrays in a new scipy CSR array
    on each call, for the arithmetic and for any caller that asks.
    """

    __slots__ = ("_data", "_indices", "_indptr")

    def __init__(self, matrix):
        from scipy import sparse

        mat = sparse.csr_array(matrix, dtype=complex).copy()
        if mat.shape[0] != mat.shape[1]:
            raise ValueError("operator matrix must be square")
        mat.sum_duplicates()
        _fill(self, mat.data, mat.indices, mat.indptr)

    def __setattr__(self, name, value):
        raise AttributeError("SparseOperator is immutable")

    def __reduce__(self):
        return _csr, (self._data, self._indices, self._indptr)

    @staticmethod
    def zero(dimension: int) -> "SparseOperator":
        return _csr(np.zeros(0, complex), np.zeros(0, np.int32), np.zeros(dimension + 1, np.int32))

    @staticmethod
    def from_diagonal(values) -> "SparseOperator":
        """The diagonal operator of a 1-D sequence, on the int32 diagonal
        pattern; a zero (-0.0 too) is not stored, NaN is."""
        values = np.array(values, dtype=complex)  # a copy, as _fill freezes it
        if values.ndim != 1:  # TypeError for a scalar, which has no len()
            raise (ValueError if values.ndim else TypeError)("a diagonal must be 1-D")
        diagonal = np.arange(len(values) + 1, dtype=np.int32)
        return _csr(values, diagonal[:-1], diagonal)

    @property
    def dimension(self) -> int:
        return len(self._indptr) - 1

    @property
    def nnz(self) -> int:
        return len(self._data)

    @property
    def matrix(self):
        """A new scipy CSR array over the operator's read-only arrays."""
        from scipy import sparse

        return sparse.csr_array((self._data, self._indices, self._indptr), shape=(self.dimension,) * 2)

    def triplets(self):
        """Row-major list of (row, col, value) for all stored entries."""
        rows = np.repeat(np.arange(self.dimension), np.diff(self._indptr))
        return list(zip(rows.tolist(), self._indices.tolist(), self._data.tolist()))

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal()

    def dagger(self) -> "SparseOperator":
        mat = self.matrix.conj().T.tocsr()  # canonical, as a canonical CSR's transpose
        return _csr(mat.data, mat.indices, mat.indptr)

    def hermiticity_defect(self) -> float:
        return (self - self.dagger()).max_abs()

    def max_abs(self, columns=None) -> float:
        """Largest entry magnitude, optionally restricted to a column subset."""
        data = self._data if columns is None else self.matrix[:, columns].data
        return float(np.abs(data).max()) if len(data) else 0.0

    def __matmul__(self, other):
        if isinstance(other, SparseOperator):
            return _own(self.matrix @ other.matrix)
        return self.matrix @ np.asarray(other, dtype=complex)

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        return _own(self.matrix + other.matrix)

    def __sub__(self, other: "SparseOperator") -> "SparseOperator":
        return _own(self.matrix - other.matrix)

    def __neg__(self) -> "SparseOperator":
        return _own(-self.matrix)

    def __mul__(self, scalar) -> "SparseOperator":
        return _own(self.matrix * complex(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        return f"SparseOperator(dimension={self.dimension}, nnz={self.nnz})"


def _fill(op, data, indices, indptr, *bilinear):
    """op holding sorted, deduplicated CSR arrays less their explicit zeros (-0.0 too, not
    NaN), and then a BilinearOperator's coefficients, space and row (see there).  The
    arrays and the coefficients are frozen in place, not copied, so a shared pattern or
    table row stays shared; a caller hands it only arrays that no one else can write."""
    if not data.all():
        keep = data != 0
        kept = np.zeros(len(data) + 1, dtype=indptr.dtype)
        np.cumsum(keep, out=kept[1:])
        data, indices, indptr = data[keep], indices[keep], kept[indptr]
    for array in (data, indices, indptr, *bilinear[:1]):
        array.setflags(write=False)
    object.__setattr__(op, "_data", data)
    object.__setattr__(op, "_indices", indices)
    object.__setattr__(op, "_indptr", indptr)
    if bilinear:
        coefficients, space, row = bilinear
        object.__setattr__(op, "coefficients", coefficients)
        object.__setattr__(op, "_space", space)
        # no row without entries (spatial, at cutoff 0), so expectation gives 0j
        object.__setattr__(op, "_row", row if len(data) else None)
    return op


def _csr(data, indices, indptr) -> SparseOperator:
    """The square operator of canonical CSR arrays, len(indptr) - 1 on a
    side; the builders write int32 indices and indptr."""
    return _fill(object.__new__(SparseOperator), data, indices, indptr)


def _own(mat) -> SparseOperator:
    """The operator of a square complex CSR array built here and held by no
    caller: canonicalised in place rather than copied."""
    mat.sum_duplicates()
    return _csr(mat.data, mat.indices, mat.indptr)


class BilinearOperator(SparseOperator):
    """sum_rs C[r-1, s-1] tau_rs on one FockSpace: a SparseOperator that
    also keeps its 4x4 coefficient matrix C and its space.

    expectation contracts C with the state's moments (FockSpace.moments)
    instead of multiplying by the matrix; a tetrad component with entries
    knows its row of TETRAD_COEFFICIENTS and reads its value from the ten
    computed with the moments.  It keeps C read-only.  Arithmetic on it
    (dagger, sums, products, scalar multiples) gives plain SparseOperators.
    BilinearOperator(space, C) is the public lift of any finite 4x4 C on
    space, with no row; it keeps a copy of the caller's C, so no array a
    caller holds can change it, and refuses (ValueError) a C of another
    shape or with a NaN or infinite entry.  The package builds and unpickles
    it through _bilinear, with no check, from a C no caller holds (a row of
    TETRAD_COEFFICIENTS, which stays shared, tau's unit matrix or a pickle's
    new array), which _fill freezes in place.
    """

    __slots__ = ("coefficients", "_space", "_row")

    def __init__(self, space: "FockSpace", coefficients):
        coefficients = np.array(coefficients, dtype=complex)  # the one copy of a caller's C
        if coefficients.shape != (N_MODES, N_MODES) or not np.isfinite(coefficients).all():
            raise ValueError(f"coefficients must be a finite {N_MODES}x{N_MODES} matrix")
        lift = space._bilinears([(coefficients, None)])[0]
        _fill(self, lift._data, lift._indices, lift._indptr, lift.coefficients, space, None)

    def __reduce__(self):
        return _bilinear, (self._data, self._indices, self._indptr, self.coefficients, self._space, self._row)


def _bilinear(*arrays_and_slots) -> BilinearOperator:
    """The BilinearOperator of _fill's arguments, with no check that they agree."""
    return _fill(object.__new__(BilinearOperator), *arrays_and_slots)


def _mode_index(r: int) -> int:
    """The 0-based index of mode r, an integer 1..4 (2.0 reads as 2);
    anything else, a complex number or an array too, raises BadModeError."""
    if not isinstance(r, numbers.Real) or r not in (1, 2, 3, 4):
        raise BadModeError(f"mode index {r!r} outside 1..{N_MODES}")
    return int(r) - 1


def _coefficient_matrix(terms) -> np.ndarray:
    """The 4x4 C with sum_rs C[r-1, s-1] tau_rs the sum of coeff * tau_rs
    over (coeff, r, s) terms."""
    coefficients = np.zeros((N_MODES, N_MODES), dtype=complex)
    for coeff, r, s in terms:
        coefficients[_mode_index(r), _mode_index(s)] += coeff
    return coefficients


def _pairs(coefficients) -> tuple:
    """The moves (see FockSpace._pattern) where a 4x4 C, or any of a sequence of
    them, is nonzero, in column order: its (k, j) pairs, 0-based, off the diagonal,
    and (0, 0) on it, sorted by (e_j - e_k)[:3] read as a balanced-ternary number."""
    moves = {divmod(k, N_MODES) if k % (N_MODES + 1) else (0, 0) for k in (np.flatnonzero(coefficients) % N_MODES**2).tolist()}
    return tuple(sorted(moves, key=lambda kj: (9, 3, 1, 0)[kj[1]] - (9, 3, 1, 0)[kj[0]]))


def _occupations(cutoff: int) -> np.ndarray:
    """Basis rows (n1, n2, n3, n4): total-quanta-major, then lexicographic.

    Within shell t, n4 = t - n1 - n2 - n3 is fixed by the rest, so the shell
    is the lexicographic (n1, n2, n3) with sum <= t, each completed by n4.
    One row-major nonzero over (shell, triple) lists every shell in turn, in
    four contiguous per-mode columns that the rows view.
    """
    triples = np.indices((cutoff + 1,) * 3, dtype=np.int64).reshape(3, -1)
    sums = triples[0] + triples[1] + triples[2]
    keep = sums <= cutoff
    # compress and take, not fancy indexing, keep each column contiguous
    triples, sums = triples.compress(keep, axis=1), sums[keep]
    shell, which = np.divmod(np.flatnonzero(sums <= np.arange(cutoff + 1)[:, None]), len(sums))
    return np.vstack((triples.take(which, axis=1), shell - sums[which])).T


# C(n, k) for k <= 3 and n <= T + 4 <= 70, T the total of a row _lowering raises:
# MAX_STATES caps the cutoff at 67, and those rows lie below it
_BINOMIAL = np.array([[math.comb(n, k) for k in range(N_MODES)] for n in range(71)])
_BINOMIAL.setflags(write=False)


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
        # (indices, indptr) of sums of a_k^+ a_j by their moves, from _pattern
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
        positions[k, m] is the basis position of m + e_k and weights[k, m] is
        sqrt(m_k + 1).  m runs over the basis of cutoff - 1, the first D'
        rows of the basis, so each position is m's own position i plus a
        per-shell offset of the combinatorial number system (Knuth, TAOCP 4A,
        7.2.1.3): with total T and R = T - n1, m + e1 is at i + C(T+4, 3)
        (shell T and the n1 = 0 states of shell T + 1 lie between) and, with
        s = i + C(T+4, 3) - C(R+3, 2), m + e2 is at s + R + 2, m + e3 at
        s + n2 + 1 and m + e4 at s + n2."""
        if self._lowered is None:
            n1, n2, n3, n4 = below = self.occupations[: math.comb(self.cutoff - 1 + N_MODES, N_MODES)].T
            rest = n2 + n3 + n4
            up = np.arange(len(n1)) + _BINOMIAL[rest + n1 + 4, 3]
            s = up - _BINOMIAL[rest + 3, 2]
            # MAX_STATES < 2**31, so the positions fit int32
            positions = np.array((up, s + rest + 2, s + n2 + 1, s + n2), dtype=np.int32)
            weights = np.sqrt(below + 1.0)
            positions.setflags(write=False)
            weights.setflags(write=False)
            self._lowered = positions, weights
        return self._lowered

    def _entry(self, state) -> tuple:
        """(state, its moments, its ten tetrad values): the kept entry, in
        closed form (see coherent_state), before any shape check, when state
        is the kept state; else gathered, not kept, from state as a complex
        (dimension,) array (DimensionMismatchError for any other shape), within
        1e-12 of the closed form for a copy of a coherent state.

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
        state = np.ascontiguousarray(_as_state(state, self.dimension))
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
        found = np.flatnonzero((self.occupations == occ).all(axis=1)) if occ.shape == (N_MODES,) else ()
        if not len(found):
            raise KeyError(tuple(state))
        return int(found[0])

    def safe_indices(self) -> np.ndarray:
        """Indices of states with total quanta below the cutoff.

        On this subspace the canonical commutators are exact; the top
        shell feels the truncation of the creation operators.
        """
        return np.flatnonzero(self.occupations.sum(axis=1) < self.cutoff)

    def identity(self) -> SparseOperator:
        return SparseOperator.from_diagonal(np.ones(self.dimension))

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
        positions, weights = self._lowering()
        indptr = np.minimum(np.arange(self.dimension + 1, dtype=np.int32), positions.shape[1])
        return _csr(weights[k].astype(complex), positions[k], indptr)

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

    def _pattern(self, moves):
        """One pass over the basis for sum_rs C[r-1, s-1] tau_rs over its moves in
        column order (see _pairs): the canonical CSR pattern (read-only int32 indices
        and indptr), each entry's term and root, and the diagonal's places, None
        without (0, 0).  The space keeps (indices, indptr) under the moves, for
        the operators to share; the per-entry scratch it does not.

        a_k^+ a_j |p + e_j> = sqrt(p_k + 1) sqrt(p_j + 1) |p + e_k> for p on the basis of
        cutoff - 1, so the entries of k != j come from the lowering table; the diagonal
        (0, 0) has one in every row.  A move keeps the shell, where the basis is lexicographic
        in (n1, n2, n3), so every row holds the columns in the order of (e_j - e_k)[:3], the
        moves' order, and nothing is sorted.
        """
        positions, weights = self._lowering()
        places, diagonal = None, np.arange(self.dimension if (0, 0) in moves else 0)
        # row n holds an entry of a_k^+ a_j when n_k > 0, and the diagonal's always
        present = np.array([self.occupations[:, k] >= (k != j) for k, j in moves] or np.empty((0, self.dimension), bool))
        indptr = np.zeros(self.dimension + 1, dtype=np.int32)
        np.add.accumulate(present.sum(axis=0, dtype=np.int8), dtype=np.int32, out=indptr[1:])
        # each row's place for the next term; intp, so the destinations it
        # gives index three arrays without a conversion each
        place = indptr[:-1].astype(np.intp)
        indices = np.empty(indptr[-1], dtype=np.int32)
        term = np.empty(indptr[-1], dtype=np.int8)
        roots = np.empty(indptr[-1])
        for t, ((k, j), p) in enumerate(zip(moves, present)):
            # two roots, not one, as in the product of the ladder matrices
            rows, columns, root = (positions[k], positions[j], weights[k] * weights[j]) if k != j else (diagonal, diagonal, 1.0)
            dest = place[rows]
            place += p
            indices[dest] = columns
            term[dest] = t
            roots[dest] = root
            if k == j:
                places = dest
        indices.setflags(write=False)
        indptr.setflags(write=False)
        return (*self._patterns.setdefault(moves, (indices, indptr)), term, roots, places)

    def _bilinears(self, members, moves=None) -> list:
        """Per (C, row) member, sum_rs C[r-1, s-1] tau_rs, row its row of TETRAD_COEFFICIENTS
        or None, from one pattern over the members' moves (_pairs of them unless given):
        tau_rs is a_r^+ a_s for r != s and n_r + 1/2 for r == s, and each keeps the total,
        as the untruncated operator."""
        moves = _pairs([c for c, _ in members]) if moves is None else moves
        indices, indptr, term, roots, places = self._pattern(moves)
        flat = np.array([N_MODES * k + j for k, j in moves], dtype=np.intp)
        # complex once, not in each product: a float @ complex matmul casts on every call
        halves = None if places is None else self.occupations + (0.5 + 0j)
        ops = []
        for c, row in members:
            data = c.take(flat).take(term)
            data *= roots
            if places is not None:
                data[places] = halves.dot(c.diagonal())
            ops.append(_bilinear(data, indices, indptr, c, self, row))
        return ops

    def moments(self, state) -> np.ndarray:
        """Read-only (4, 4) moments M[r-1, s-1] = <state| tau_rs |state>
        (see _entry).

        Those of the last state coherent_state made for the space are kept,
        in closed form, so the operators evaluated on it share them; any
        other state's are gathered from the lowering table on each call.
        """
        return self._entry(state)[1]

    def tau(self, r: int, s: int) -> BilinearOperator:
        """Symmetrized bilinear (1/2){a_r^+, a_s} projected to the truncated basis.

        Built in normal-ordered form: a_r^+ a_s plus 1/2 on the diagonal
        when r == s.  The normal-ordered product preserves the total-quanta
        shell, so it equals the projection of the untruncated operator;
        it is built from its coefficient matrix, 1 at (r, s) and 0 elsewhere,
        so tau(r, r) shares the space's diagonal pattern with t0.
        """
        return self._bilinears([(_coefficient_matrix(((1.0, r, s),)), None)])[0]


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
# The mode-pair classes, {t0, z3}, {z1, z2}, {x1, x2, y1, y2} and {x3, y3}, each as
# its moves (see _pairs) and its (C, row) members
_TETRAD_CLASSES = [(moves, [(c, row) for row, c in enumerate(TETRAD_COEFFICIENTS) if _pairs(c) == moves])
                   for moves in dict.fromkeys(map(_pairs, TETRAD_COEFFICIENTS))]


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
    return space._bilinears([(TETRAD_COEFFICIENTS[row], row)])[0]


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
    """Quantized tetrad: t_hat = (n_hat, 0, 0, 0) plus the spatial combinations.
    One pass builds each mode-pair class; its scratch goes before the next."""
    zero = SparseOperator.zero(space.dimension)
    comp = {}
    for moves, members in _TETRAD_CLASSES:
        comp.update(zip((row for _, row in members), space._bilinears(members, moves)))
    # the slot components() labels v + mu holds that component, if there is one
    return OperatorTetrad(*(tuple(comp.get(_TETRAD_ROWS.get(f"{v}{mu}"), zero) for mu in range(4)) for v in "tzxy"))


def _coherent_moments(alphas: np.ndarray, r1: float) -> np.ndarray:
    """Read-only (4, 4) M_rs = r1 conj(alpha_r) alpha_s + delta_rs / 2: the moments
    of the coherent state of mode amplitudes alphas, truncated at cutoff C with
    r1 = E_{C-1}(I) / E_C(I) (see coherent_state), and untruncated with r1 = 1.
    The diagonal is written as its real part plus 1/2, as numpy's fused
    complex multiply may round conj(alpha_r) alpha_r with an imaginary part."""
    alphas = alphas + 0.0  # no -0.0 part reaches the products' signs
    moments = r1 * np.multiply.outer(np.conj(alphas), alphas)
    moments.reshape(-1)[:: N_MODES + 1] = np.diagonal(moments).real + 0.5
    moments.setflags(write=False)
    return moments


def coherent_state(space: FockSpace, amps: BispinorAmplitudes, scale: float) -> np.ndarray:
    """Normalized truncated coherent state with mode amplitudes alpha = scale * u.

    With I = sum_r |alpha_r|^2 and E_k(I) = sum_{n<=k} I^n / n!, the coefficients
    kept at cutoff C have norm^2 E_C(I) (Glauber), so one closed form gates the
    state, normalises it and gives its moments.  The truncation discards the
    Poisson tail 1 - E_C(I) e^-I of the untruncated weight; if that deficit
    exceeds MAX_DEFICIT or is not finite (a NaN amplitude, an overflowing
    intensity) the state is refused as TruncationTooLossyError, before any pass
    over the basis.  A non-finite scale is refused as ValueError.

    The state is complex128, scaled by 1 / sqrt(E_C(I)), and frozen: its buffer
    is an immutable bytes object, so setflags(write=True) raises on it.  The
    space keeps its closed-form moments and its ten tetrad values, so the
    expectations of all components on it cost one contraction.
    """
    scale = float(scale)
    if not math.isfinite(scale):
        raise ValueError(f"coherent scale {scale!r} is not finite")
    # an overflow or a NaN here or in the intensity gives a deficit the gate refuses
    with np.errstate(over="ignore", invalid="ignore"):
        alphas = scale * amps.as_array()
    a1, a2, a3, a4 = alphas.tolist()
    try:
        # summed in mode order, bit for bit numpy's sum of np.abs(alphas) ** 2
        intensity = abs(a1) * abs(a1) + abs(a2) * abs(a2) + abs(a3) * abs(a3) + abs(a4) * abs(a4)
    except OverflowError:  # a finite |alpha_r| beyond the largest float
        intensity = math.inf
    # E_C(I), and its last term t_C = I^C / C!
    term = partial = 1.0
    for n in range(1, space.cutoff + 1):
        term *= intensity / n
        partial += term
    deficit = 1.0 - partial * math.exp(-intensity)
    if not math.isfinite(deficit):
        raise TruncationTooLossyError(
            f"truncation deficit is {deficit}: the coherent amplitudes "
            "overflowed or are not finite"
        )
    if deficit > MAX_DEFICIT:
        raise TruncationTooLossyError(
            f"truncation discards {deficit:.3e} of the state weight, above {MAX_DEFICIT}"
        )
    powers, roots, (product_index, n4) = space._coherent_tables()
    # row r-1 holds alpha_r^n / sqrt(n!)
    terms = alphas[:, None] ** powers / roots
    # ((t1 t2) t3) t4 per basis state: the first three from one table
    coeffs = np.multiply.outer(np.multiply.outer(terms[0], terms[1]), terms[2]).take(product_index)
    coeffs *= terms[3].take(n4)
    # numpy divides by s + 0j as part * (1/s), so the bits match but for a zero's sign
    parts = coeffs.view(float)
    parts *= 1.0 / math.sqrt(partial)
    state = _frozen_state(coeffs)
    # a_s P<=C = P<=C-1 a_s, so r1 = E_{C-1}(I) / E_C(I) = 1 - t_C / E_C
    moments = _coherent_moments(alphas, 1.0 - term / partial)
    space._memo = state, moments, _tetrad_values(moments)
    return state


def expectation(op: SparseOperator, state) -> complex:
    """<state| op |state>; real up to rounding when op is Hermitian.

    A tetrad component returns its value among the ten its space's _entry
    gives for the state (see tetrad_expectations): for the state
    coherent_state made last for that space, the kept value, before any
    shape check.
    Any other BilinearOperator (tau and its combinations) contracts its
    coefficients with its space's moments of the state; any other operator
    multiplies the state.  An operator with no entries gives 0.
    """
    bilinear = isinstance(op, BilinearOperator)
    if bilinear and op._row is not None:
        return op._space._entry(state)[2][op._row]
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
    return space._entry(state)[2]
