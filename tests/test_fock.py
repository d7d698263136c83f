import copy
import hashlib
import itertools
import math
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edges import EDGE_COMPLEX, EDGE_FLOATS
from urtetrad import fock
from urtetrad.cli import main
from urtetrad.fock import (
    TETRAD_BILINEARS,
    BadModeError,
    BilinearOperator,
    BispinorAmplitudes,
    CutoffTooLargeError,
    DimensionMismatchError,
    FockSpace,
    SparseOperator,
    TruncationTooLossyError,
    coherent_state,
    expectation,
    operator_tetrad,
    tetrad_component,
    tetrad_expectations,
)
from urtetrad.spinor import GroupElement, dyad_from_element, random_group_element
from urtetrad.tetrad import real_tetrad
from urtetrad.verify import _coherent_scale_for_cutoff

MODES = (1, 2, 3, 4)


def brute_force_basis(cutoff):
    states = [
        s for s in itertools.product(range(cutoff + 1), repeat=4) if sum(s) <= cutoff
    ]
    return sorted(states, key=lambda s: (sum(s), s))


@pytest.mark.parametrize("cutoff,dim", [(0, 1), (1, 5), (3, 35), (8, 495)])
def test_dimension_matches_enumeration(cutoff, dim):
    space = FockSpace(cutoff)
    assert space.dimension == dim
    assert space.occupations.dtype == np.int64
    assert not space.occupations.flags.writeable
    assert space.occupations.tolist() == [list(s) for s in brute_force_basis(cutoff)]


def test_basis_index_roundtrip():
    for cutoff in range(9):
        space = FockSpace(cutoff)
        for i, state in enumerate(space.occupations):
            assert space.index_of(state) == i


# integer-valued floats from -1 up past the cutoff, with fractions, signed
# zeros and non-finite values among them, in tuples of 0 to 6
OCCUPATION_TUPLES = st.lists(
    st.one_of(st.integers(-1, 5).map(float), st.sampled_from([0.5, 1.9, -0.0, math.nan]), EDGE_FLOATS),
    max_size=6,
).map(tuple)


@settings(max_examples=300, deadline=None)
@given(occ=OCCUPATION_TUPLES)
@example(occ=(0, 0, 0, -1))
@example(occ=(13, 0, 0, 0))
@example(occ=(3, 4, 6, 0))
@example(occ=(0, 0, 0))
@example(occ=(1.9, 0, 0, 0))
@example(occ=(0.5, 0, 0, 0))
@example(occ=(0, 0, 0, math.nan))
def test_index_of_finds_the_row_or_raises_key_error(occ):
    space = FockSpace(3)
    if occ in set(brute_force_basis(3)):
        i = space.index_of(occ)
        assert type(i) is int and space.occupations[i].tolist() == list(occ)
    else:
        with pytest.raises(KeyError):
            space.index_of(occ)


def test_largest_cutoff_rank_matches_basis_order():
    space = FockSpace(67)  # binomial(71, 4) = 971635, the largest under MAX_STATES
    occ = space.occupations
    assert space.dimension == len(occ) == 971635
    assert occ.min() == 0 and occ.sum(axis=1).max() == 67
    # (total, n1, n2, n3) rises strictly: each step's first nonzero difference is positive,
    # so the rows are distinct basis states, as many as the basis holds, in its order
    steps = np.diff(np.column_stack((occ.sum(axis=1), occ[:, :3])), axis=0)
    assert (steps[np.arange(len(steps)), (steps != 0).argmax(axis=1)] > 0).all()


def test_cutoff_bound():
    with pytest.raises(CutoffTooLargeError):
        FockSpace(68)  # binomial(72, 4) is above MAX_STATES
    with pytest.raises(CutoffTooLargeError):
        FockSpace(10**400)  # too large for a float, still an integer
    with pytest.raises(ValueError):
        FockSpace(-1)
    for cutoff in (2.7, math.nan, math.inf):
        with pytest.raises(ValueError, match="integer"):
            FockSpace(cutoff)


@settings(max_examples=200, deadline=None)
@given(cutoff=EDGE_FLOATS)
def test_fock_space_refuses_or_has_the_binomial_dimension(cutoff):
    try:
        space = FockSpace(cutoff)
    except ValueError as exc:
        assert type(exc) in (ValueError, CutoffTooLargeError)
        return
    assert space.cutoff == cutoff
    assert space.dimension == math.comb(space.cutoff + 4, 4) == len(space.occupations)


def test_bad_mode():
    space = FockSpace(1)
    with pytest.raises(BadModeError):
        space.annihilator(0)
    with pytest.raises(BadModeError):
        space.tau(1, 5)
    # cutoff 0 has no quanta to lower, and still refuses a bad mode
    vacuum = FockSpace(0)
    for r in (0, 5):
        with pytest.raises(BadModeError):
            vacuum.annihilator(r)


@pytest.mark.parametrize("cutoff", [0, 4])
def test_an_integral_float_mode_is_that_mode(cutoff):
    space = FockSpace(cutoff)
    for got, want in (
        (space.tau(1.0, 2), space.tau(1, 2)),
        (space.tau(np.float32(1), np.int64(2)), space.tau(1, 2)),
        (space.annihilator(2.0), space.annihilator(2)),
        (space.annihilator(np.int8(2)), space.annihilator(2)),
    ):
        for part in ("data", "indices", "indptr"):
            assert getattr(got.matrix, part).tobytes() == getattr(want.matrix, part).tobytes(), part
    for r in (1.5, 0, math.nan, 1 + 0j, np.array([1, 2])):
        with pytest.raises(BadModeError):
            space.annihilator(r)
        with pytest.raises(BadModeError):
            space.tau(r, 2)


def test_annihilator_frozen_cutoff1():
    # basis order: vacuum, then (0,0,0,1), (0,0,1,0), (0,1,0,0), (1,0,0,0)
    space = FockSpace(1)
    assert space.annihilator(1).triplets() == [(0, 4, 1.0 + 0.0j)]
    assert space.annihilator(2).triplets() == [(0, 3, 1.0 + 0.0j)]
    assert space.annihilator(3).triplets() == [(0, 2, 1.0 + 0.0j)]
    assert space.annihilator(4).triplets() == [(0, 1, 1.0 + 0.0j)]


def test_annihilator_vacuum_gives_zero():
    space = FockSpace(2)
    vacuum = np.zeros(space.dimension, dtype=complex)
    vacuum[0] = 1.0
    assert np.abs(space.annihilator(1) @ vacuum).max() == 0.0


def test_annihilator_amplitudes():
    space = FockSpace(3)
    idx2 = space.index_of((0, 2, 0, 0))
    idx1 = space.index_of((0, 1, 0, 0))
    state = np.zeros(space.dimension, dtype=complex)
    state[idx2] = 1.0
    out = space.annihilator(2) @ state
    assert out[idx1] == pytest.approx(math.sqrt(2))


def test_creator_is_adjoint():
    space = FockSpace(3)
    for r in MODES:
        np.testing.assert_array_equal(
            space.creator(r).to_dense(), space.annihilator(r).to_dense().conj().T
        )


def test_canonical_commutator_on_vacuum():
    space = FockSpace(1)
    vacuum = np.zeros(space.dimension, dtype=complex)
    vacuum[0] = 1.0
    a1, c1 = space.annihilator(1), space.creator(1)
    out = a1 @ (c1 @ vacuum) - c1 @ (a1 @ vacuum)
    np.testing.assert_allclose(out, vacuum, atol=1e-15)


def test_commutators_cutoff3():
    space = FockSpace(3)
    eye = space.identity()
    safe = space.safe_indices()
    ann = {r: space.annihilator(r) for r in MODES}
    cre = {r: ann[r].dagger() for r in MODES}
    for r in MODES:
        for s in MODES:
            comm = ann[r] @ cre[s] - cre[s] @ ann[r]
            if r == s:
                comm = comm - eye
            assert comm.max_abs(columns=safe) < 1e-14
            assert (ann[r] @ ann[s] - ann[s] @ ann[r]).max_abs() == 0.0
            assert (cre[r] @ cre[s] - cre[s] @ cre[r]).max_abs() == 0.0


def test_safe_indices_are_below_cutoff():
    space = FockSpace(2)
    safe = set(space.safe_indices().tolist())
    for i, state in enumerate(space.occupations):
        assert (i in safe) == (sum(state) < 2)


def test_tau_on_vacuum_block():
    # vacuum-only space: the anticommutator reduces to its zero-point half
    space = FockSpace(0)
    assert space.tau(1, 1).triplets() == [(0, 0, 0.5 + 0.0j)]
    assert space.tau(1, 2).triplets() == []


def test_tau_adjoint_symmetry():
    space = FockSpace(3)
    for r in MODES:
        for s in MODES:
            assert (space.tau(r, s).dagger() - space.tau(s, r)).max_abs() == 0.0


def test_tau_matches_anticommutator_on_safe_subspace():
    space = FockSpace(3)
    safe = space.safe_indices()
    for r in MODES:
        for s in MODES:
            cr, an = space.creator(r), space.annihilator(s)
            anticomm = 0.5 * (cr @ an + an @ cr)
            assert (space.tau(r, s) - anticomm).max_abs(columns=safe) < 1e-14


def test_tau_normal_ordered_form():
    space = FockSpace(3)
    eye = space.identity()
    for r in MODES:
        for s in MODES:
            normal = space.creator(r) @ space.annihilator(s)
            if r == s:
                normal = normal + 0.5 * eye
            assert (space.tau(r, s) - normal).max_abs() < 1e-14


def test_number_operator_vacuum_eigenvalue():
    space = FockSpace(2)
    vacuum = np.zeros(space.dimension, dtype=complex)
    vacuum[0] = 1.0
    n_hat = tetrad_component(space, "t0")
    assert expectation(n_hat, vacuum) == pytest.approx(2.0)


def test_time_component_counts_quanta():
    space = FockSpace(4)
    t0 = tetrad_component(space, "t0")
    expected = space.occupations.sum(axis=1).astype(float) + 2.0
    np.testing.assert_array_equal(t0.diagonal().real, expected)
    assert (t0 - SparseOperator.from_diagonal(expected)).max_abs() == 0.0


def test_operator_tetrad_structure():
    space = FockSpace(2)
    ot = operator_tetrad(space)
    for op in ot.t_hat[1:]:
        assert op.nnz == 0
    for vec in (ot.z_hat, ot.x_hat, ot.y_hat):
        assert vec[0].nnz == 0
    labels = [name for name, _ in ot.components()]
    assert labels == [f"{v}{mu}" for v in "tzxy" for mu in range(4)]
    for _, op in ot.components():
        assert op.hermiticity_defect() < 1e-12


def test_operator_tetrad_ranks_the_lowering_table_once(monkeypatch):
    lowering, misses = fock.FockSpace._lowering, []

    def counted_lowering(self):
        misses.append(self._lowered is None)
        return lowering(self)

    monkeypatch.setattr(fock.FockSpace, "_lowering", counted_lowering)
    space = FockSpace(4)
    first = operator_tetrad(space)
    second = operator_tetrad(space)
    space.moments(np.ones(space.dimension, dtype=complex))
    # one lowering table per space, computed at the first miss and read by
    # every later build and by the moments
    assert misses[0] and not any(misses[1:]) and len(misses) > 2
    for (_, a), (_, b) in zip(first.components(), second.components()):
        for part in ("data", "indices", "indptr"):
            assert getattr(a.matrix, part).tobytes() == getattr(b.matrix, part).tobytes()


@pytest.mark.parametrize("cutoff", range(9))
def test_tau_bytes_match_the_ladder_product(cutoff):
    space = FockSpace(cutoff)
    for r, s in itertools.permutations(MODES, 2):
        want = (space.creator(r) @ space.annihilator(s)).matrix.copy()
        want.sort_indices()
        got = space.tau(r, s).matrix
        for part in ("data", "indices", "indptr"):
            assert getattr(got, part).tobytes() == getattr(want, part).tobytes(), (r, s, part)


def _owner(array):
    return array if array.base is None else array.base


def test_components_of_one_mode_pair_class_share_their_pattern():
    space = FockSpace(4)
    comp = {name: tetrad_component(space, name) for name in TETRAD_BILINEARS}
    classes = (("z1", "z2"), ("x1", "x2", "y1", "y2"), ("x3", "y3"))
    for names in classes:
        first = comp[names[0]].matrix
        for name in names[1:]:
            assert _owner(comp[name].matrix.indices) is _owner(first.indices)
            assert _owner(comp[name].matrix.indptr) is _owner(first.indptr)
        for part in (first.indices, first.indptr):
            with pytest.raises(ValueError):
                part[0] = 0
    owners = {id(_owner(comp[names[0]].matrix.indices)) for names in classes}
    assert len(owners) == 3


@pytest.mark.parametrize("cutoff", [1, 6, 30])
def test_a_component_built_alone_matches_its_class(cutoff):
    space = FockSpace(cutoff)
    comp = dict(operator_tetrad(space).components())
    for label, name in (("z2", "z2"), ("y1", "y1"), ("y3", "y3")):
        alone, built = tetrad_component(space, name).matrix, comp[label].matrix
        for part in ("data", "indices", "indptr"):
            assert getattr(alone, part).tobytes() == getattr(built, part).tobytes(), (name, part)
        assert _owner(alone.indices) is _owner(built.indices)
        assert _owner(alone.indptr) is _owner(built.indptr)
    first, again = space.tau(1, 2).matrix, space.tau(1, 2).matrix
    for part in ("data", "indices", "indptr"):
        assert getattr(first, part).tobytes() == getattr(again, part).tobytes(), part
    assert _owner(again.indices) is _owner(first.indices)
    assert _owner(again.indptr) is _owner(first.indptr)


@pytest.mark.parametrize("cutoff", [0, 1, 4, 30])
def test_every_tetrad_slot_is_its_component_or_empty(cutoff):
    space = FockSpace(cutoff)
    slots = dict(operator_tetrad(space).components())
    assert list(slots) == [f"{v}{mu}" for v in "tzxy" for mu in range(4)]
    for label, op in slots.items():
        assert op.dimension == space.dimension, label
        if label not in TETRAD_BILINEARS:
            assert op.nnz == 0, label
            continue
        alone, built = tetrad_component(space, label).matrix, op.matrix
        for part in ("data", "indices", "indptr"):
            assert getattr(alone, part).tobytes() == getattr(built, part).tobytes(), (label, part)


def test_a_built_space_keeps_no_per_entry_scratch():
    space = FockSpace(30)
    operator_tetrad(space)
    assert len(space._patterns) == 4
    kept = [space.occupations, *space._lowering()]
    for indices, indptr in space._patterns.values():
        assert indices.dtype == indptr.dtype == np.int32
        assert not indices.flags.writeable and not indptr.flags.writeable
        kept += [indices, indptr]
    # three 4-term patterns of 4 D' entries and one diagonal pattern of D
    *moves, diagonal = sorted(space._patterns.items(), key=lambda pattern: -len(pattern[0]))
    for order, (indices, indptr) in moves:
        assert len(order) == 4 and indices.size == indptr[-1] == 4 * space._lowering()[0].shape[1]
    order, (indices, indptr) = diagonal
    assert order == ((0, 0),) and indices.size == indptr[-1] == space.dimension
    np.testing.assert_array_equal(indptr, np.arange(space.dimension + 1))
    # every array the space holds is the basis, the lowering table or a pattern
    held = [
        array
        for value in vars(space).values()
        for array in (value.values() if isinstance(value, dict) else [value])
        for array in (array if isinstance(array, tuple) else [array])
        if isinstance(array, np.ndarray)
    ]
    assert sorted(map(id, held)) == sorted(map(id, kept))


@pytest.mark.parametrize("cutoff", [0, 1, 4, 30])
def test_every_built_operator_stores_int32_indices(cutoff):
    space = FockSpace(cutoff)
    ann = [space.annihilator(r) for r in MODES]
    cre = [space.creator(r) for r in MODES]
    ops = [*ann, *cre, *(c @ a for c in cre for a in ann), space.identity(), space.total_quanta()]
    ops += [space.tau(r, s) for r in MODES for s in MODES]
    ops += [tetrad_component(space, name) for name in TETRAD_BILINEARS]
    ops += [op for _, op in operator_tetrad(space).components()]
    ops += [SparseOperator.zero(space.dimension), ann[0] + cre[1], ann[0] - cre[1], 2 * ann[2], ann[3].dagger()]
    for op in ops:
        assert op.matrix.indices.dtype == op.matrix.indptr.dtype == np.int32, op


@pytest.mark.parametrize("cutoff", [0, 4])
def test_t0_and_every_tau_rr_share_the_diagonal_pattern(cutoff):
    space = FockSpace(cutoff)
    t0 = tetrad_component(space, "t0").matrix
    np.testing.assert_array_equal(t0.indices, np.arange(space.dimension))
    for r in MODES:
        tau = space.tau(r, r).matrix
        assert _owner(tau.indices) is _owner(t0.indices) and _owner(tau.indptr) is _owner(t0.indptr)


def test_a_diagonal_term_with_an_imaginary_coefficient_is_kept():
    space = FockSpace(4)
    for terms in (((0.5j, 1, 1), (0.25, 2, 2), (-1.5 + 0.5j, 4, 4)), ((1j, 3, 3),), ((2.0, 2, 2), (-0.5j, 2, 2))):
        op = BilinearOperator(space, fock._coefficient_matrix(terms))
        want = SparseOperator.from_diagonal(
            sum(complex(c) * (space.occupations[:, r - 1] + 0.5) for c, r, _ in terms)
        ).matrix
        for part in ("data", "indices", "indptr"):
            assert getattr(op.matrix, part).tobytes() == getattr(want, part).tobytes(), (terms, part)
        assert op.diagonal().imag.any()


def _dense_lift(space, coefficients):
    """sum_rs C[r-1, s-1] a_r^+ a_s + tr C / 2, densely, from the ladder matrices."""
    dense = 0.5 * np.trace(coefficients) * np.eye(space.dimension, dtype=complex)
    for r, s in itertools.product(MODES, MODES):
        dense += coefficients[r - 1, s - 1] * (space.creator(r) @ space.annihilator(s)).to_dense()
    return dense


def _mixed_coefficients(seed):
    """Two seeded Hermitian 4x4 C and one non-Hermitian one, each nonzero on
    and off its diagonal."""
    rng = np.random.default_rng(seed)
    raw = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(3)]
    return [(raw[0] + raw[0].conj().T) / 2, (raw[1] + raw[1].conj().T) / 2, raw[2]]


@pytest.mark.parametrize("cutoff", [0, 1, 3, 4])
def test_a_mixed_coefficient_matrix_lifts_with_its_zero_point(cutoff):
    space = FockSpace(cutoff)
    rng = np.random.default_rng(300 + cutoff)
    state = rng.normal(size=space.dimension) + 1j * rng.normal(size=space.dimension)
    state /= np.linalg.norm(state)
    for c in _mixed_coefficients(200 + cutoff):
        op = BilinearOperator(space, c)
        assert np.abs(op.to_dense() - _dense_lift(space, c)).max() < 1e-12
        assert abs(expectation(op, state) - np.vdot(state, op @ state)) < 1e-12


@pytest.mark.parametrize("cutoff", [0, 1, 3, 4])
def test_a_zero_coefficient_matrix_lifts_to_the_empty_operator(cutoff):
    space = FockSpace(cutoff)
    zero = np.zeros((4, 4), dtype=complex)
    # alone, and next to a member with moves
    for members in ([zero], [zero, fock.TETRAD_COEFFICIENTS[1]]):
        op = space._bilinears([(c, None) for c in members])[0]
        assert op.dimension == space.dimension and op.nnz == 0
        assert expectation(op, np.ones(space.dimension)) == 0j


@pytest.mark.parametrize("cutoff", [0, 1, 3, 4])
def test_members_with_different_moves_each_get_their_own_lift(cutoff):
    space = FockSpace(cutoff)
    hermitian, _, other = _mixed_coefficients(210 + cutoff)
    off = fock._coefficient_matrix(((0.5, 1, 2), (0.5, 2, 1), (-2j, 4, 3)))
    for members in ([hermitian, off], [off, fock.TETRAD_COEFFICIENTS[3]], [fock.TETRAD_COEFFICIENTS[0], other]):
        assert fock._pairs(members[0]) != fock._pairs(members[1])
        ops = space._bilinears([(c, None) for c in members])
        for c, op in zip(members, ops):
            assert np.abs(op.to_dense() - _dense_lift(space, c)).max() < 1e-12
            alone = BilinearOperator(space, c).matrix
            for part in ("data", "indices", "indptr"):
                assert getattr(op.matrix, part).tobytes() == getattr(alone, part).tobytes(), part


def test_a_bilinear_keeps_its_own_copy_of_a_callers_coefficients():
    space = FockSpace(2)
    base = fock._coefficient_matrix(((0.5, 1, 2), (0.5, 2, 1), (1j, 3, 4), (-1j, 4, 3)))
    state = moment_states(space, 23)[2]
    buffer = base.copy()
    view = buffer[:, :]
    op = BilinearOperator(space, view)
    before = expectation(op, state)
    assert abs(before - np.vdot(state, op @ state)) < 1e-12
    # the caller's arrays stay writable, and writing them reaches no operator
    assert view.flags.writeable and buffer.flags.writeable
    view[0, 1] = buffer[1, 0] = 5
    np.testing.assert_array_equal(op.coefficients, base)
    assert not op.coefficients.flags.writeable
    assert expectation(op, state) == before


def test_a_public_bilinear_must_be_the_lift_of_its_coefficients():
    # every tetrad row, every unit matrix E_rs and mixed C, each as a caller's complex array
    for cutoff in (0, 1, 3, 4):
        space = FockSpace(cutoff)
        rng = np.random.default_rng(320 + cutoff)
        state = rng.normal(size=space.dimension) + 1j * rng.normal(size=space.dimension)
        for c in (*fock.TETRAD_COEFFICIENTS, *np.eye(16).reshape(16, 4, 4), *_mixed_coefficients(220 + cutoff)):
            c = np.array(c, dtype=complex)
            twin = BilinearOperator(space, c)
            built = space._bilinears([(c, None)])[0]
            assert twin._row is None and not twin.coefficients.flags.writeable
            assert not np.shares_memory(twin.coefficients, c)
            np.testing.assert_array_equal(twin.coefficients, c)
            # it holds the lift's own arrays, dtypes included
            for part in SparseOperator.__slots__:
                assert getattr(twin, part).tobytes() == getattr(built, part).tobytes(), (cutoff, c, part)
                assert getattr(twin, part).dtype == getattr(built, part).dtype, (cutoff, c, part)
            assert abs(expectation(twin, state) - np.vdot(state, twin @ state)) < 1e-12, (cutoff, c)
    # the lift needs no operator, and takes no row: both are the package's own
    t0 = fock.TETRAD_COEFFICIENTS[0]
    with pytest.raises(TypeError):
        BilinearOperator(tetrad_component(space, "t0"), space, t0)
    with pytest.raises(TypeError):
        BilinearOperator(space, t0, 0)


def _unit(r, s, value):
    """The 4x4 matrix holding value at 0-based (r, s) and 0 elsewhere."""
    c = np.zeros((4, 4), dtype=complex)
    c[r, s] = value
    return c


@pytest.mark.parametrize(
    "coefficients",
    [
        np.eye(3),
        np.eye(5),
        np.zeros((1, 4, 4)),
        np.ones(16),
        [[1.0] * 4] * 3,
        np.full((4, 4), math.inf),
        _unit(0, 1, -math.inf),
        _unit(2, 2, math.nan),
        _unit(3, 0, complex(0.0, math.inf)),
        _unit(1, 3, complex(math.nan, 1.0)),
        [[1.0, 2.0, 3.0, math.nan]] + [[0.0] * 4] * 3,
    ],
)
def test_the_public_lift_refuses_a_coefficient_matrix_that_is_not_finite_4x4(coefficients):
    # under filterwarnings = error, a RuntimeWarning before the refusal fails the test too
    with pytest.raises(ValueError, match="finite 4x4"):
        BilinearOperator(FockSpace(2), coefficients)


def test_built_copied_and_unpickled_bilinears_skip_the_public_check(monkeypatch):
    space = FockSpace(2)

    def refuse(*args):
        raise AssertionError("the public constructor was called")

    # a public lift, made before the constructor is refused, clones with row None
    lift = BilinearOperator(space, _mixed_coefficients(230)[2])
    assert lift._row is None
    monkeypatch.setattr(BilinearOperator, "__init__", refuse)
    ops = [op for _, op in operator_tetrad(space).components() if isinstance(op, BilinearOperator)]
    ops += [space.tau(2, 3), tetrad_component(space, "y2"), lift]
    assert len(ops) == 13
    for clone in CLONES.values():
        for op, twin in zip(ops, clone(ops)):
            assert twin._row == op._row and twin.nnz == op.nnz
            np.testing.assert_array_equal(twin.coefficients, op.coefficients)
            assert not twin.coefficients.flags.writeable
            for part in SparseOperator.__slots__:
                assert getattr(twin, part).tobytes() == getattr(op, part).tobytes(), part


@pytest.mark.parametrize("cutoff", [31, 45, 67])
def test_lowering_table_matches_the_rank_beyond_the_pins(cutoff):
    space = FockSpace(cutoff)
    positions, weights = space._lowering()
    below = space.occupations[: math.comb(cutoff - 1 + 4, 4)]
    assert positions.dtype == np.int32 and weights.shape == positions.shape == (4, len(below))
    for k in range(4):
        raised = below.copy()
        raised[:, k] += 1
        np.testing.assert_array_equal(space.occupations[positions[k]], raised)
        assert weights[k].tobytes() == np.sqrt(below[:, k] + 1.0).tobytes()


def test_operator_matrix_wraps_again():
    space = FockSpace(3)
    for name, op in operator_tetrad(space).components():
        again = SparseOperator(op.matrix)
        for part in ("data", "indices", "indptr"):
            assert getattr(again.matrix, part).tobytes() == getattr(op.matrix, part).tobytes(), name
    tau = FockSpace(2).tau(1, 2)
    assert SparseOperator(tau.matrix).nnz == tau.nnz


def test_explicit_zeros_are_dropped_from_a_copy():
    from scipy import sparse

    # sorted and without duplicates, so only the zero is out of form
    data = np.array([1.0, 0.0, 2.0], dtype=complex)
    indices = np.array([0, 1, 1])
    indptr = np.array([0, 2, 3])
    for array in (data, indices, indptr):
        array.setflags(write=False)
    mat = sparse.csr_array((data, indices, indptr), shape=(2, 2))
    op = SparseOperator(mat)
    assert op.nnz == 2 and op.triplets() == [(0, 0, 1.0), (1, 1, 2.0)]
    assert mat.nnz == 3
    assert data.tolist() == [1.0, 0.0, 2.0]
    assert indices.tolist() == [0, 1, 1] and indptr.tolist() == [0, 2, 3]


@pytest.mark.parametrize("part, at, value", [("data", 0, 7.0), ("indices", 0, 1), ("indptr", 1, 0)])
def test_caller_buffers_cannot_change_an_operator(part, at, value):
    from scipy import sparse

    mat = sparse.csr_array(np.array([[1, 0], [0, 2]], dtype=complex))
    op = SparseOperator(mat)
    before = op.triplets()
    getattr(mat, part)[at] = value
    assert op.triplets() == before
    for own in (op.matrix.data, op.matrix.indices, op.matrix.indptr):
        assert not np.shares_memory(own, getattr(mat, part))


def test_operator_arrays_are_read_only():
    space = FockSpace(2)
    z1 = tetrad_component(space, "z1")
    ops = {
        "identity": space.identity(),
        "zero": operator_tetrad(space).z_hat[0],
        "total_quanta": space.total_quanta(),
        "annihilator": space.annihilator(3),
        "z1": z1,
        "z3": tetrad_component(space, "z3"),
        "dagger": z1.dagger(),
        "product": space.creator(1) @ space.annihilator(2),
        "sum": z1 + space.tau(1, 1),
        "difference": z1 - z1,
        "negation": -z1,
        "scalar": 0.5 * z1,
        "wrapped": SparseOperator(np.eye(3)),
    }
    for name, op in ops.items():
        for part in ("_data", "_indices", "_indptr"):
            assert not getattr(op, part).flags.writeable, (name, part)


MATRIX_EDITS = {
    "data": lambda mat: setattr(mat, "data", mat.data * 0 + 7),
    "indices": lambda mat: setattr(mat, "indices", mat.indices[::-1].copy()),
    "resize": lambda mat: mat.resize((mat.shape[0] + 1,) * 2),
}


@pytest.mark.parametrize("edit", sorted(MATRIX_EDITS))
def test_editing_a_matrix_leaves_its_operator(edit):
    # .matrix is a new scipy array over the operator's read-only arrays, so
    # what a caller rebinds or resizes on it is the caller's alone
    space = FockSpace(2)
    for op in (tetrad_component(space, "x1"), tetrad_component(space, "z1"), SparseOperator(np.eye(2))):
        before = op.triplets(), op.hermiticity_defect(), op.dimension
        MATRIX_EDITS[edit](op.matrix)
        assert (op.triplets(), op.hermiticity_defect(), op.dimension) == before, op


@pytest.mark.parametrize("cutoff", [0, 1, 2, 4, 7, 30])
def test_every_built_operator_is_canonical(cutoff):
    # nothing scans an operator's arrays at run time, so the builders'
    # canonical form is checked here
    space = FockSpace(cutoff)
    ops = [op for _, op in operator_tetrad(space).components()]
    ops += [space.tau(r, s) for r in MODES for s in MODES]
    ops += [space.annihilator(r) for r in MODES] + [space.creator(r) for r in MODES]
    ops += [space.identity(), space.total_quanta(), SparseOperator.zero(space.dimension)]
    for op in ops:
        assert all(isinstance(getattr(op, part), np.ndarray) for part in SparseOperator.__slots__), op
        mat = op.matrix
        mat.check_format(full_check=True)
        assert mat.shape == (space.dimension,) * 2 and mat.nnz == op.nnz, op
        # computed from the arrays: .matrix sets no format flag
        assert mat.has_canonical_format and mat.data.all(), op
        assert mat.indices.dtype == mat.indptr.dtype == np.int32, op


CLONES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda op: pickle.loads(pickle.dumps(op)),
}


@pytest.mark.parametrize("route", sorted(CLONES))
def test_operators_copy_and_pickle(route):
    space = FockSpace(2)
    state = moment_states(space, 31)[2]
    ops = (space.identity(), space.annihilator(2), space.tau(3, 3), tetrad_component(space, "x2"))
    for op in ops:
        twin = CLONES[route](op)
        assert type(twin) is type(op)
        for part in ("data", "indices", "indptr"):
            assert getattr(twin.matrix, part).tobytes() == getattr(op.matrix, part).tobytes()
        assert not twin.matrix.data.flags.writeable
        assert expectation(twin, state) == expectation(op, state)
        if isinstance(op, BilinearOperator):
            np.testing.assert_array_equal(twin.coefficients, op.coefficients)
            assert not twin.coefficients.flags.writeable


def test_z3_is_diagonal_with_expected_values():
    space = FockSpace(2)
    z3 = tetrad_component(space, "z3")
    occ = space.occupations
    expected = 0.5 * (-occ[:, 0] + occ[:, 1] + occ[:, 2] - occ[:, 3])
    np.testing.assert_array_equal(z3.diagonal().real, expected)
    assert z3.nnz == np.count_nonzero(expected)


def test_z3_single_quantum_expectation():
    space = FockSpace(1)
    state = np.zeros(space.dimension, dtype=complex)
    state[space.index_of((1, 0, 0, 0))] = 1.0
    assert expectation(tetrad_component(space, "z3"), state) == pytest.approx(-0.5)


def test_spatial_components_have_no_zero_point_shift():
    space = FockSpace(3)
    vacuum_row = 0
    for name in TETRAD_BILINEARS:
        if name == "t0":
            continue
        diag = tetrad_component(space, name).diagonal()
        assert diag[vacuum_row] == 0.0


def test_unknown_component_rejected():
    with pytest.raises(ValueError):
        tetrad_component(FockSpace(1), "w9")


def test_sparse_operator_triplets_row_major():
    space = FockSpace(2)
    trips = tetrad_component(space, "x1").triplets()
    assert trips == sorted(trips, key=lambda t: (t[0], t[1]))


@pytest.mark.parametrize("cutoff", [0, 1, 4])
def test_triplets_are_python_scalars_of_the_coo_arrays(cutoff):
    space = FockSpace(cutoff)
    ops = [space.annihilator(r) for r in MODES] + [space.creator(r) for r in MODES]
    ops += [tetrad_component(space, name) for name in TETRAD_BILINEARS]
    for op in ops:
        coo, trips = op.matrix.tocoo(), op.triplets()
        assert [(r, c) for r, c, _ in trips] == list(zip(coo.row.tolist(), coo.col.tolist()))
        # bit for bit, the sign of a zero part included
        assert np.array([v for _, _, v in trips], dtype=complex).tobytes() == coo.data.tobytes()
        assert all(type(r) is int and type(c) is int and type(v) is complex for r, c, v in trips)


@pytest.mark.parametrize("cutoff", [0, 1, 4, 8])
def test_hermiticity_defect_is_the_dense_adjoint_gap(cutoff):
    space = FockSpace(cutoff)
    ops = [space.annihilator(r) for r in MODES]
    ops.append(space.annihilator(1) + 2j * space.creator(2))
    for op in ops:
        dense = op.to_dense()
        defect = op.hermiticity_defect()
        assert type(defect) is float and defect == np.abs(dense - dense.conj().T).max()
    zero = SparseOperator.zero(space.dimension).hermiticity_defect()
    assert type(zero) is float and zero == 0.0


def test_tetrad_bilinears_are_t0_then_the_spatial_frame_rows():
    # verify's classical limit compares the spatial columns with the real
    # frame's (z, x, y) rows times columns 1..3, in this order
    assert list(TETRAD_BILINEARS) == ["t0"] + [f"{v}{i}" for v in "zxy" for i in (1, 2, 3)]


def test_sparse_operator_algebra():
    eye = SparseOperator.from_diagonal(np.ones(3))
    twice = eye + eye
    assert (2.0 * eye - twice).max_abs() == 0.0
    assert (-eye + eye).max_abs() == 0.0
    assert (eye @ eye - eye).max_abs() == 0.0


def test_expectation_contracts():
    eye = SparseOperator.from_diagonal(np.ones(4))
    state = np.full(4, 0.5, dtype=complex)
    assert expectation(eye, state) == pytest.approx(1.0)
    with pytest.raises(DimensionMismatchError):
        expectation(eye, np.ones(3))


def test_bispinor_amplitudes_table():
    g = GroupElement(0.6, 0.8j, 0.3)
    amps = BispinorAmplitudes.from_element(g)
    ph = np.exp(0.3j)
    assert amps.u1 == pytest.approx(0.6 * ph)
    assert amps.u2 == pytest.approx(0.8j * ph)  # -conj(b) = -(-0.8j)
    assert amps.u3 == pytest.approx(0.8j * ph)
    assert amps.u4 == pytest.approx(0.6 * ph)


def test_coherent_scale_zero_is_vacuum():
    space = FockSpace(2)
    amps = BispinorAmplitudes.from_element(GroupElement(1, 0))
    state = coherent_state(space, amps, 0.0)
    expected = np.zeros(space.dimension)
    expected[0] = 1.0
    np.testing.assert_array_equal(state, expected)


def test_coherent_moments_match_analytic():
    space = FockSpace(12)
    rng = np.random.default_rng(73)
    for _ in range(3):
        g = random_group_element(rng)
        amps = BispinorAmplitudes.from_element(g)
        state = coherent_state(space, amps, 0.5)
        alphas = 0.5 * amps.as_array()
        for r in MODES:
            for s in MODES:
                op = space.creator(r) @ space.annihilator(s)
                want = np.conj(alphas[r - 1]) * alphas[s - 1]
                assert abs(expectation(op, state) - want) < 1e-6


def _exp_partial_sum(intensity, cutoff):
    """E_C(I) = sum_{n <= C} I^n / n!; E_{-1} = 0."""
    term, total = 1.0, 0.0
    for n in range(cutoff + 1):
        if n:
            term *= intensity / n
        total += term
    return total


@pytest.mark.parametrize("cutoff", [1, 2, 4, 8, 12, 20, 30])
def test_truncated_coherent_moments_match_the_closed_form(cutoff):
    # a_s P<=C |alpha> = alpha_s P<=C-1 |alpha>, so on the normalised
    # truncation <tau_rs> = conj(alpha_r) alpha_s E_{C-1}(I) / E_C(I) + delta_rs / 2,
    # with I the total intensity: exact, unlike the untruncated limit.  The
    # space keeps these moments for the state it made; a copy's are gathered
    # over the basis, so both routes are judged against the sum written here
    space = FockSpace(cutoff)
    scale = _coherent_scale_for_cutoff(cutoff)
    rng = np.random.default_rng(400 + cutoff)
    for _ in range(50):
        amps = BispinorAmplitudes.from_element(random_group_element(rng))
        alphas = scale * amps.as_array()
        intensity = float(np.sum(np.abs(alphas) ** 2))
        ratio = _exp_partial_sum(intensity, cutoff - 1) / _exp_partial_sum(intensity, cutoff)
        want = ratio * np.outer(np.conj(alphas), alphas) + 0.5 * np.eye(4)
        state = coherent_state(space, amps, scale)
        for got in (space.moments(state), space.moments(np.array(state))):
            assert np.abs(got - want).max() < 1e-12, (cutoff, amps)


@pytest.mark.parametrize("cutoff", [0, 1, 4, 12, 30])
def test_coherent_diagonal_moments_are_exactly_real(cutoff):
    # <tau_rr> = r1 |alpha_r|^2 + 1/2 is real, so no rounding of the complex
    # product conj(alpha_r) alpha_r may leave an imaginary part on the kept
    # diagonal, on a copy's gathered one, or on the values read from them
    space = FockSpace(cutoff)
    scale = _coherent_scale_for_cutoff(cutoff)
    rng = np.random.default_rng(500 + cutoff)
    ops = [tetrad_component(space, "t0"), tetrad_component(space, "z3"), *(space.tau(r, r) for r in MODES)]
    for _ in range(20):
        amps = BispinorAmplitudes.from_element(random_group_element(rng))
        state = coherent_state(space, amps, scale)
        for copy in (state, np.array(state)):
            assert not np.diagonal(space.moments(copy)).imag.any(), (cutoff, amps)
            assert [expectation(op, copy).imag for op in ops] == [0.0] * len(ops), (cutoff, amps)


@pytest.mark.parametrize("cutoff", [0, 1, 4, 6])
def test_time_component_commutes_exactly_with_every_component(cutoff):
    # t0 is constant on each shell and every component keeps the shell
    space = FockSpace(cutoff)
    t0 = tetrad_component(space, "t0")
    for name in TETRAD_BILINEARS:
        op = tetrad_component(space, name)
        assert (t0 @ op - op @ t0).max_abs() == 0.0, (cutoff, name)


@pytest.mark.parametrize("cutoff", [0, 1, 4, 6])
def test_number_conserving_bilinears_close_u4_on_the_whole_space(cutoff):
    # E_rs = a_r^+ a_s keeps the shell, so [E_rs, E_tu] = delta_st E_ru - delta_ru E_ts
    # holds on every state, the top shell included
    space = FockSpace(cutoff)
    gen = {(r, s): space.creator(r) @ space.annihilator(s) for r in MODES for s in MODES}
    zero = SparseOperator.zero(space.dimension)
    for (r, s), (t, u) in itertools.product(gen, repeat=2):
        want = zero + (gen[r, u] if s == t else zero) - (gen[t, s] if r == u else zero)
        comm = gen[r, s] @ gen[t, u] - gen[t, u] @ gen[r, s]
        assert (comm - want).max_abs() < 1e-12, (cutoff, r, s, t, u)


def test_coherent_z3_matches_classical():
    space = FockSpace(12)
    amps = BispinorAmplitudes.from_element(GroupElement(1, 0))
    state = coherent_state(space, amps, 0.5)
    val = expectation(tetrad_component(space, "z3"), state)
    # classical z component is |b|^2 - |a|^2 = -1, scaled by 0.25
    assert abs(val - (-0.25)) < 1e-6


def test_coherent_truncation_rejected():
    space = FockSpace(2)
    amps = BispinorAmplitudes.from_element(GroupElement(1, 0))
    with pytest.raises(TruncationTooLossyError):
        coherent_state(space, amps, 2.0)
    # the gate reads the amplitudes alone: a refused scale builds no table
    assert space._coherent is None and space._memo is None


def _poisson_tail(intensity, cutoff):
    """sum_{n > cutoff} e^-I I^n / n!, term by term in logs, summed exactly."""
    log_i = math.log(intensity)
    return math.fsum(math.exp(n * log_i - intensity - math.lgamma(n + 1)) for n in range(cutoff + 1, cutoff + 400))


def _intensity_with_tail(tail, cutoff):
    """The intensity whose Poisson tail above cutoff is tail, by bisection."""
    lo, hi = 1e-30, 100.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _poisson_tail(mid, cutoff) < tail else (lo, mid)
    return lo


@pytest.mark.parametrize("cutoff", [0, 1, 4, 12, 30])
def test_the_gate_is_the_poisson_tail(cutoff):
    # (1, 0, 0, 1) e^{i phi}: total intensity 2 scale^2
    amps = BispinorAmplitudes.from_element(GroupElement(1, 0, 0.4))
    admitted, refused = (math.sqrt(_intensity_with_tail(f * fock.MAX_DEFICIT, cutoff) / 2) for f in (0.5, 2.0))
    space = FockSpace(cutoff)
    state = coherent_state(space, amps, admitted)
    assert abs(math.fsum(np.abs(state) ** 2) - 1.0) < 1e-12
    with pytest.raises(TruncationTooLossyError, match="truncation discards"):
        coherent_state(space, amps, refused)


@pytest.mark.parametrize(
    "amps, scale",
    [
        (BispinorAmplitudes(1, 0, 0, 1), 1e100),
        (BispinorAmplitudes(math.nan, 0, 0, 0), 0.5),
        # finite parts whose modulus is beyond the largest float
        (BispinorAmplitudes(1.5e308 + 1.5e308j, 0, 0, 0), 1.0),
    ],
    ids=["1e100", "nan-amplitude", "modulus-overflow"],
)
def test_coherent_nan_deficit_message(amps, scale):
    with pytest.raises(TruncationTooLossyError, match="amplitudes overflowed or are not finite"):
        coherent_state(FockSpace(2), amps, scale)


@pytest.mark.filterwarnings("error")  # an overflow warning fails the test
@pytest.mark.parametrize(
    "amps, scale",
    [
        (BispinorAmplitudes(1, 0, 0, 1), 1e100),
        (BispinorAmplitudes(1, 0, 0, 1), 1e150),
        (BispinorAmplitudes(1, 0, 0, 1), 1e200),
        (BispinorAmplitudes(math.nan, 0, 0, 0), 0.5),
    ],
    ids=["1e100", "1e150", "1e200", "nan-amplitude"],
)
def test_coherent_nan_deficit_rejected(amps, scale):
    with pytest.raises(TruncationTooLossyError):
        coherent_state(FockSpace(2), amps, scale)


def test_coherent_phase_covariance():
    space = FockSpace(8)
    g = GroupElement(0.6, 0.8j, 1.1)
    amps = BispinorAmplitudes.from_element(g)
    phased = BispinorAmplitudes(*(np.exp(0.7j) * amps.as_array()))
    state = coherent_state(space, amps, 0.4)
    state_ph = coherent_state(space, phased, 0.4)
    for name in TETRAD_BILINEARS:
        op = tetrad_component(space, name)
        assert abs(expectation(op, state) - expectation(op, state_ph)) < 1e-12


def test_classical_limit_small_sweep():
    space = FockSpace(12)
    rng = np.random.default_rng(79)
    comps = {name: tetrad_component(space, name) for name in TETRAD_BILINEARS}
    for _ in range(5):
        g = random_group_element(rng)
        amps = BispinorAmplitudes.from_element(g)
        state = coherent_state(space, amps, 0.5)
        rt = real_tetrad(dyad_from_element(g))
        classical = {"z": rt.z, "x": rt.x, "y": rt.y}
        for name, op in comps.items():
            val = expectation(op, state)
            if name == "t0":
                assert abs(val - (2.0 + 2.0 * 0.25)) < 1e-6
            else:
                want = 0.25 * classical[name[0]][int(name[1])]
                assert abs(val - want) < 1e-6
            # matrix expectation also agrees with the analytic moment formula
            analytic = (op.coefficients * fock._coherent_moments(0.5 * amps.as_array(), 1.0)).sum()
            assert abs(val - analytic) < 1e-6


# sha256 of the concatenated stdout of `fock --cutoff C --op OP --matrix` for
# C = 0..6, recorded before the operators were built by index arithmetic;
# the triplet listing is part of the CLI contract and must stay byte-identical
MATRIX_OUTPUT_SHA256 = {
    "t0": "a13b4e93eb8815cc8232c38f58fac446dabc2a40c7a62f01b49d0acd15f12d2a",
    "z1": "2129c15079d3b2a23070a42536acaa599d31f375075009d4eb9daed41b99c0ff",
    "z2": "6ed71b0f14dab2a695f306ba9c5b32f4abadf992b1a8c58d64c523f9739f6fb2",
    "z3": "33f97321d8f3010bd37e42d37122d6e9b4ae57a3c8f5228b46375763fd7dc7e1",
    "x1": "5dcae5de3a61ad5cc9ccbe5164c1b555f4a4884aa8ee325f092c82734401cd59",
    "x2": "df91f57b77c035fe38e46c04fbf37ecf18b972321a1b3948c39625a7721edf2d",
    "x3": "874169dae518d744402fb5146fc32882e518f799911dd208400f06b2d86cbdbb",
    "y1": "b590b1beb7da7e2c595158000db6c0f6ee008f6e0194b80a2a3fd5991221624b",
    "y2": "a7fba4eacd39101bcbba468c8ea0d8b0865fd2dadb3bfaf03e38b99f7115db3f",
    "y3": "1404882c79590307512cd5252ddf37dce09e9acff360d54b2e0fb02fa6b5b3b5",
    "tau 1 1": "ae74e053406e2312a04ed6663235fab311756acd53b7c4261c7177bc117d1ceb",
    "tau 1 2": "5c945008531fa3ed21fcd89445b5a17d839c7e18042565de0d7e1b4500433a05",
    "tau 1 3": "1b05143ccd032ed7282fb9367270771d89eb9bbac52dadca3add0aa2aa40f11d",
    "tau 1 4": "b99ef1c8fa5b3777381330ac4015bf0635add380a0fd2082eb0a2fbb786f7bfd",
    "tau 2 1": "fdad492781aefd41255e4ea984d51e95bd37f5c851a796ee09f9ffdbd89fa1c0",
    "tau 2 2": "d72bde2e8c79074966e01ce58d44ece023fdec1d7d50011dd2aa6dd3ac5d4b12",
    "tau 2 3": "76662c36e6ce21689fbc8b550eae5f2f93af11e703feff46f5bd006e131465ad",
    "tau 2 4": "1ca7e8b61b51da795a49c4999717e7bbcff337b0e361c16d6bce9a60fd8b5949",
    "tau 3 1": "41ebd58c8a9eddb23afe3fc187891a92e136df94d41bce951fbe33e14764149b",
    "tau 3 2": "f7d8ddbd08e8722b6f389987a451ff8d4dc1982feb4772281b96cc130aeaf99f",
    "tau 3 3": "b952f02a197e01989db3f6db00565c202bfe60868addd1c82e85e4db9f31f686",
    "tau 3 4": "14ff4705cbfa460824a9a0ce2231b1701172bac4fd2c600dbeccda7098ce76a4",
    "tau 4 1": "5eb26115950641bd6b5df40a5de617ae14092e59e44080a4e8785f3b5f0fbc0c",
    "tau 4 2": "5bf6608b9dc761f6eb8e9ad93e49b8a684948bfdfbd3cf5dea345d4a1438a02f",
    "tau 4 3": "4b901015ee8feddf63b3feacd733a7f118eaec3e325e5e1202f31bb2d64710cc",
    "tau 4 4": "518cd41bc0f936a0fb8562a2d8ddceafcc271147355d61ab3fe7516c03097ae5",
}

# sha256 over data, indices and indptr bytes of the ten components at cutoff
# 30, in TETRAD_BILINEARS order, recorded at the same time and re-recorded
# once when every built operator came to store int32 indices and indptr
# (CSR_ENTRIES_SHA256 shows the entries did not move)
CUTOFF30_CSR_SHA256 = "e2009876a866e006469db8e243c4395647aeeb2707d9bdb46359ade72b69d6e3"


@pytest.mark.parametrize("op", sorted(MATRIX_OUTPUT_SHA256))
def test_matrix_output_pinned(op, capsys):
    digest = hashlib.sha256()
    for cutoff in range(7):
        assert main(["fock", "--cutoff", str(cutoff), "--op", *op.split(), "--matrix"]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == MATRIX_OUTPUT_SHA256[op]


def test_cutoff30_components_pinned():
    space = FockSpace(30)
    digest = hashlib.sha256()
    for name in TETRAD_BILINEARS:
        mat = tetrad_component(space, name).matrix
        for part in (mat.data, mat.indices, mat.indptr):
            digest.update(part.tobytes())
    assert digest.hexdigest() == CUTOFF30_CSR_SHA256


# sha256 over the dtype, data, indices and indptr bytes of a_r, a_r^+ and the
# 16 products a_r^+ a_s at cutoffs 0..12, recorded before the ladder
# operators were read from the moments' lowering table and re-recorded once
# when they came to store int32 indices and indptr
LADDER_CSR_SHA256 = "5c20a8982deed20d6a324c163e62d3935c2ddb6dc9c721871b8145790245717d"


def test_ladder_operators_pinned():
    digest = hashlib.sha256()
    for cutoff in range(13):
        space = FockSpace(cutoff)
        ann = {r: space.annihilator(r) for r in MODES}
        cre = {r: space.creator(r) for r in MODES}
        ops = [ann[r] for r in MODES] + [cre[r] for r in MODES]
        ops += [cre[r] @ ann[s] for r in MODES for s in MODES]
        for op in ops:
            for part in (op.matrix.data, op.matrix.indices, op.matrix.indptr):
                digest.update(str(part.dtype).encode())
                digest.update(part.tobytes())
    assert digest.hexdigest() == LADDER_CSR_SHA256


# sha256 over the data bytes and the int64-cast indices and indptr of the
# ladder pin's operators at cutoffs 0..12, and of the 16 tau(r, s) and the
# ten components at cutoffs 0..12 and 30: the entries and their places,
# whatever the stored index dtype; recorded while the ladders stored int64
# indices and the diagonal operators int32
CSR_ENTRIES_SHA256 = "1532c6573de60328649e3b98fcfb387924cc79fc035fb452276e3ea0e1552135"


def test_operator_entries_pinned_whatever_the_index_dtype():
    digest = hashlib.sha256()
    for cutoff in (*range(13), 30):
        space = FockSpace(cutoff)
        ops = []
        if cutoff <= 12:
            ann = [space.annihilator(r) for r in MODES]
            cre = [space.creator(r) for r in MODES]
            ops += ann + cre + [c @ a for c in cre for a in ann]
        ops += [space.tau(r, s) for r in MODES for s in MODES]
        ops += [tetrad_component(space, name) for name in TETRAD_BILINEARS]
        for op in ops:
            mat = op.matrix
            for part in (mat.data, mat.indices.astype(np.int64), mat.indptr.astype(np.int64)):
                digest.update(part.tobytes())
    assert digest.hexdigest() == CSR_ENTRIES_SHA256


def _digest_parts(digest, *parts):
    for part in parts:
        digest.update(str(part.dtype).encode())
        digest.update(part.tobytes())


# sha256 over the dtype, data, indices and indptr bytes of total_quanta(),
# tau(r, r) for r = 1..4, t0 and z3 at cutoffs 0..12 and 30, recorded before
# from_diagonal wrote its own CSR arrays
DIAGONAL_CSR_SHA256 = "e2e8eea0c9f8d786a3f3189374382a8d15ac41824fdeee483f2a68ca034a27c6"


def test_diagonal_operators_pinned():
    digest = hashlib.sha256()
    for cutoff in (*range(13), 30):
        space = FockSpace(cutoff)
        ops = [space.total_quanta(), *(space.tau(r, r) for r in MODES)]
        ops += [tetrad_component(space, name) for name in ("t0", "z3")]
        for op in ops:
            _digest_parts(digest, op.matrix.data, op.matrix.indices, op.matrix.indptr)
    assert digest.hexdigest() == DIAGONAL_CSR_SHA256


# sha256 over the dtype and bytes of the occupations and of the lowering
# table's positions and weights at cutoffs 0..30, recorded before the basis
# was listed by one nonzero and ranked from one binomial table
BASIS_SHA256 = "aba193c73c9186ebc6b343066b2f99c9a4f1d8c80551520abae480b5d490dad4"


def test_basis_and_lowering_table_pinned():
    digest = hashlib.sha256()
    for cutoff in range(31):
        space = FockSpace(cutoff)
        _digest_parts(digest, space.occupations, *space._lowering())
    assert digest.hexdigest() == BASIS_SHA256


@pytest.mark.parametrize("cutoff", [0, 1, 4, 30])
def test_basis_columns_and_tables_are_contiguous(cutoff):
    # the pins hash tobytes(), which is blind to the memory layout; the
    # builds read one column per mode and the moments read lowering rows
    space = FockSpace(cutoff)
    assert space.occupations.T.flags.c_contiguous
    for array in (*space._lowering(), *space._coherent_tables()):
        assert array.flags.c_contiguous


def test_from_diagonal_edges():
    with pytest.raises(TypeError):
        SparseOperator.from_diagonal(1.0)
    with pytest.raises(ValueError):
        SparseOperator.from_diagonal(np.ones((2, 2)))
    empty = SparseOperator.from_diagonal([]).matrix
    assert empty.shape == (0, 0) and empty.nnz == 0
    assert empty.indices.dtype == empty.indptr.dtype == np.int32
    assert empty.indptr.tolist() == [0]
    # -0.0 is a zero and is dropped; NaN is not and is kept
    mat = SparseOperator.from_diagonal([1.0, -0.0, math.nan, 0.0, 2j]).matrix
    assert mat.shape == (5, 5) and mat.data.dtype == complex
    assert mat.indices.dtype == mat.indptr.dtype == np.int32
    assert mat.indices.tolist() == [0, 2, 4] and mat.indptr.tolist() == [0, 1, 1, 2, 2, 3]
    assert mat.data[0] == 1.0 and np.isnan(mat.data[1].real) and mat.data[2] == 2j
    # the operator freezes its own copy, never the caller's array
    values = np.ones(3, dtype=complex)
    SparseOperator.from_diagonal(values)
    assert values.flags.writeable


# sha256 of the coherent-state bytes of three seeded draws at cutoffs 4 and
# 30, recorded before the coherent state was gathered from one product
# table and frozen and re-recorded when the state was normalised by
# 1/sqrt(E_C(I)) and the draws without BLAS, and of the 16 expectation
# values at cutoff 30 on two seeded coherent states, re-recorded when the
# space kept a coherent state's moments in closed form instead of gathering
# them, and again when the kept diagonal moments became exactly real (the
# imaginary parts of the t0 and z3 values moved to 0)
COHERENT_STATE_SHA256 = "0dbafbe9addbe68071e234db61b3226767b9a9f44ce1c8314db964f629ce91d4"
CUTOFF30_EXPECTATION_SHA256 = "7a750ee8137b012487fbde3a555976577af0963beb24e885ced9449cd7fb9887"


# the digest of three seeded coherent states each at cutoffs 4 and 30, then
# one --expect-coherent stdout, printed; BLAS serves neither path
COHERENT_PROBE = """
import hashlib
import numpy as np
from urtetrad.cli import main
from urtetrad.fock import BispinorAmplitudes, FockSpace, coherent_state
from urtetrad.spinor import random_group_element
digest = hashlib.sha256()
for cutoff, scale in ((4, 0.1), (30, 0.5)):
    space = FockSpace(cutoff)
    rng = np.random.default_rng(cutoff)
    for _ in range(3):
        amps = BispinorAmplitudes.from_element(random_group_element(rng))
        digest.update(coherent_state(space, amps, scale).tobytes())
print(digest.hexdigest())
main(["fock", "--cutoff", "30", "--op", "t0", "--expect-coherent", "0.6", "0", "0", "0.8", "0.3", "0.5"])
"""


def _coherent_probe(capsys) -> str:
    exec(COHERENT_PROBE, {})
    return capsys.readouterr().out


def test_coherent_state_bytes_pinned(capsys):
    assert _coherent_probe(capsys).splitlines()[0] == COHERENT_STATE_SHA256


@pytest.mark.parametrize("kernel", ["Haswell", "Prescott", "SandyBridge"])
def test_coherent_state_bytes_do_not_depend_on_the_blas_kernel(capsys, child_env, kernel):
    # the kernel is forced in the child alone
    proc = subprocess.run(
        [sys.executable, "-c", COHERENT_PROBE], capture_output=True, text=True, timeout=120,
        env={**child_env, "OPENBLAS_CORETYPE": kernel},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == _coherent_probe(capsys)


def test_cutoff30_expectations_pinned():
    space = FockSpace(30)
    ops = [op for _, op in operator_tetrad(space).components()]
    rng = np.random.default_rng(31)
    digest = hashlib.sha256()
    for _ in range(2):
        amps = BispinorAmplitudes.from_element(random_group_element(rng))
        state = coherent_state(space, amps, 0.5)
        digest.update(np.array([expectation(op, state) for op in ops]).tobytes())
    assert digest.hexdigest() == CUTOFF30_EXPECTATION_SHA256


@pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf])
def test_coherent_nonfinite_scale_rejected(scale):
    space = FockSpace(2)
    amps = BispinorAmplitudes.from_element(GroupElement(1, 0))
    with pytest.raises(ValueError, match="not finite"):
        coherent_state(space, amps, scale)


@settings(max_examples=300, deadline=None)
@given(
    cutoff=st.sampled_from([0, 1, 4]),
    amps=st.lists(EDGE_COMPLEX, min_size=4, max_size=4),
    scale=EDGE_FLOATS,
)
def test_coherent_state_refuses_or_keeps_a_frozen_finite_state(cutoff, amps, scale):
    space = FockSpace(cutoff)
    try:
        state = coherent_state(space, BispinorAmplitudes(*amps), scale)
    except ValueError as exc:
        assert type(exc) in (ValueError, TruncationTooLossyError)
        return
    assert state.dtype == np.complex128 and state.shape == (space.dimension,)
    assert np.isfinite(state).all() and not state.flags.writeable
    with pytest.raises(ValueError):
        state.setflags(write=True)
    kept = space._memo
    assert kept[0] is state
    # the kept values are closed form; a copy's are gathered over the basis
    kept_values, values = np.array(kept[2]), np.array(tetrad_expectations(space, np.array(state)))
    assert np.isfinite(kept_values).all()
    assert np.abs(kept_values - values).max() <= 1e-12 * (1.0 + np.abs(values).max())


@settings(max_examples=200, deadline=None)
@given(
    cutoff=st.sampled_from([0, 1, 4, 6]),
    parts=st.lists(st.sampled_from([0.0, -0.0, 0.3, -0.45]), min_size=8, max_size=8),
    scale=st.sampled_from([0.0, 0.05, 0.3]),
)
def test_the_sign_of_a_zero_amplitude_part_moves_no_tetrad_value(cutoff, parts, scale):
    # + 0.0 turns every -0.0 part into +0.0 and changes nothing else
    amps = BispinorAmplitudes(*(complex(re, im) for re, im in zip(parts[::2], parts[1::2])))
    unsigned = BispinorAmplitudes(*(complex(re + 0.0, im + 0.0) for re, im in zip(parts[::2], parts[1::2])))
    space = FockSpace(cutoff)
    try:
        state = coherent_state(space, amps, scale)
    except TruncationTooLossyError:
        return
    # the kept, closed-form entries of the two amplitudes
    kept = space._memo
    coherent_state(space, unsigned, scale)
    assert np.array(kept[2]).tobytes() == np.array(space._memo[2]).tobytes()
    assert kept[1].tobytes() == space._memo[1].tobytes()
    # the gathered entries of copies of the state, which are never kept
    copy, signless = np.array(state), state + 0.0
    values = np.array(tetrad_expectations(space, copy))
    assert values.tobytes() == np.array(tetrad_expectations(space, signless)).tobytes()
    assert space.moments(copy).tobytes() == space.moments(signless).tobytes()


# coherent scales whose truncation deficit stays below MAX_DEFICIT; at
# cutoff 20 the lowered vectors span three blocks of fock._MOMENT_BLOCK
MOMENT_CUTOFF_SCALES = {0: 1e-5, 1: 1e-4, 2: 0.01, 4: 0.1, 12: 0.5, 20: 0.5}


def moment_states(space, seed):
    """Two coherent states and two seeded unnormalised complex states."""
    rng = np.random.default_rng(seed)
    scale = MOMENT_CUTOFF_SCALES[space.cutoff]
    states = [
        coherent_state(space, BispinorAmplitudes.from_element(random_group_element(rng)), scale)
        for _ in range(2)
    ]
    for _ in range(2):
        raw = rng.normal(size=space.dimension) + 1j * rng.normal(size=space.dimension)
        states.append(2.0 * raw / np.sqrt(space.dimension))
    return states


def bilinear_operators(space):
    ops = {name: tetrad_component(space, name) for name in TETRAD_BILINEARS}
    ops.update({f"tau {r} {s}": space.tau(r, s) for r in MODES for s in MODES})
    return ops


@pytest.mark.parametrize("cutoff", sorted(MOMENT_CUTOFF_SCALES))
def test_moment_route_matches_matvec(cutoff):
    space = FockSpace(cutoff)
    ops = bilinear_operators(space)
    for state in moment_states(space, 100 + cutoff):
        for name, op in ops.items():
            assert isinstance(op, BilinearOperator), name
            want = np.vdot(state, op.matrix @ state)
            assert abs(expectation(op, state) - want) < 1e-12, name


def test_bilinear_coefficients():
    space = FockSpace(2)
    tau = space.tau(2, 3)
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 2] = 1.0
    np.testing.assert_array_equal(tau.coefficients, expected)
    x2 = tetrad_component(space, "x2").coefficients
    assert x2[0, 3] == -0.5j and x2[3, 0] == 0.5j and np.count_nonzero(x2) == 4
    with pytest.raises(ValueError):
        tau.coefficients[0, 0] = 1.0
    assert not any(space.tau(r, s).coefficients.flags.writeable for r in MODES for s in MODES)


def test_moments_are_read_only_and_kept_for_the_state_made_last():
    space = FockSpace(4)
    first, second = moment_states(space, 7)[:2]
    # kept when it is made, before any expectation asks for it
    assert space._memo[0] is second
    moments = space.moments(second)
    assert moments.shape == (4, 4) and not moments.flags.writeable
    assert moments is space._memo[1]
    # any other array is computed again each time and not kept
    other = space.moments(first)
    assert not other.flags.writeable and space.moments(first) is not other
    np.testing.assert_array_equal(space.moments(first), other)
    assert space._memo[0] is second


def test_bilinear_operator_outlives_its_space():
    space = FockSpace(4)
    op = tetrad_component(space, "y2")
    state = moment_states(space, 23)[2]
    want = np.vdot(state, op.matrix @ state)
    del space
    assert abs(expectation(op, state) - want) < 1e-12


def test_moments_of_cutoff0_are_half_the_norm():
    space = FockSpace(0)
    np.testing.assert_array_equal(space.moments(np.array([2.0 + 0j])), 2.0 * np.eye(4))


def test_moments_follow_in_place_mutation():
    space = FockSpace(4)
    state = moment_states(space, 11)[2]
    op = tetrad_component(space, "x1")
    before = expectation(op, state)
    state[3] += 0.5 - 0.25j
    after = expectation(op, state)
    assert after != before
    assert abs(after - np.vdot(state, op.matrix @ state)) < 1e-12


def test_moments_of_a_strided_view_match_its_copy():
    space = FockSpace(4)
    wide = np.repeat(moment_states(space, 13)[3], 2)
    view = wide[::2]
    assert not view.flags.c_contiguous
    for name in ("t0", "z1", "y3"):
        op = tetrad_component(space, name)
        assert expectation(op, view) == expectation(op, view.copy())


def test_zero_component_skips_the_state():
    for cutoff in (0, 2):
        space = FockSpace(cutoff)
        comps = dict(operator_tetrad(space).components())
        assert expectation(comps["z0"], moment_states(space, 17)[2]) == 0
        amps = BispinorAmplitudes.from_element(GroupElement(0.6, 0.8j))
        state = coherent_state(space, amps, MOMENT_CUTOFF_SCALES[cutoff])
        values = {label: expectation(op, state) for label, op in comps.items()}
        assert space._memo[0] is state
        for label, value in values.items():
            # the zero operators, and at cutoff 0 the spatial components too
            if label not in TETRAD_BILINEARS or (cutoff == 0 and label != "t0"):
                assert np.array(value).tobytes() == np.array(0j).tobytes(), (cutoff, label)
                # whatever the state holds: its moments are never read
                huge = np.full(space.dimension, 1e300 + 0j)
                assert np.array(expectation(comps[label], huge)).tobytes() == np.array(0j).tobytes()
        # the memo holds the coherent state, and no wrong shape reads it
        wrong = (np.ones(space.dimension + 1), np.ones(space.dimension - 1), state[None, :], state[:, None])
        for label, op in comps.items():
            for bad in wrong:
                with pytest.raises(DimensionMismatchError):
                    expectation(op, bad)
            again = expectation(op, state)
            assert np.array(again).tobytes() == np.array(values[label]).tobytes(), (cutoff, label)


def test_coherent_states_are_frozen_complex():
    space = FockSpace(3)
    real = coherent_state(space, BispinorAmplitudes(1, 0, 0, 1), 0.1)
    assert real.dtype == np.complex128 and not real.imag.any()
    phased = coherent_state(space, BispinorAmplitudes(1j, 0, 0, 1j), 0.1)
    for state in (real, phased):
        assert not state.flags.writeable
        with pytest.raises(ValueError):
            state.setflags(write=True)


def _no_lowering(self):
    raise AssertionError("the moments were computed again")


def _no_shape_check(state, dimension):
    raise AssertionError("the kept state's shape was checked again")


def test_components_of_one_coherent_state_share_one_moment_matrix(monkeypatch):
    space = FockSpace(4)
    comps = [tetrad_component(space, name) for name in TETRAD_BILINEARS]
    amps = BispinorAmplitudes.from_element(random_group_element(np.random.default_rng(37)))
    state = coherent_state(space, amps, 0.1)
    first = expectation(comps[0], state)
    # the frozen state itself is the key, so the next calls hit by identity
    assert space._memo[0] is state
    monkeypatch.setattr(fock.FockSpace, "_lowering", _no_lowering)
    values = [first] + [expectation(op, state) for op in comps[1:]]
    for op, value in zip(comps, values):
        assert abs(value - np.vdot(state, op.matrix @ state)) < 1e-12
    # every reader returns the kept entry before it would check the shape
    monkeypatch.setattr(fock, "_as_state", _no_shape_check)
    assert space.moments(state) is space._memo[1]
    assert tetrad_expectations(space, state) is space._memo[2]
    assert [expectation(op, state) for op in comps] == values


def _assert_recomputed_as_kept(monkeypatch, space, copies):
    """Each array in copies holds the kept state's values: its ten values
    and moments are gathered again, within 1e-12 of the kept closed-form
    ones, and the kept entry stays."""
    kept = space._memo
    lowering, calls = fock.FockSpace._lowering, []
    monkeypatch.setattr(fock.FockSpace, "_lowering", lambda self: calls.append(self) or lowering(self))
    for n, twin in enumerate(copies, 1):
        assert twin is not kept[0]
        values = tetrad_expectations(space, twin)
        assert values is not kept[2]
        assert np.abs(np.subtract(values, kept[2])).max() < 1e-12
        assert np.abs(space.moments(twin) - kept[1]).max() < 1e-12
        assert len(calls) == 2 * n
        assert space._memo is kept


def test_a_writable_copy_of_the_state_is_gathered_within_1e_12_of_the_kept_entry(monkeypatch):
    space = FockSpace(4)
    state = coherent_state(space, BispinorAmplitudes.from_element(GroupElement(0.6, 0.8j)), 0.1)
    assert space._memo[0] is state
    op = tetrad_component(space, "x2")
    value = expectation(op, state)
    twin = np.array(state)
    assert twin.flags.writeable
    _assert_recomputed_as_kept(monkeypatch, space, [twin])
    assert abs(expectation(op, twin) - value) < 1e-12
    # changed in place, the copy gives its own value
    twin[1] += 0.25j
    changed = expectation(op, twin)
    assert changed != value and space._memo[0] is state
    assert abs(changed - np.vdot(twin, op.matrix @ twin)) < 1e-12


def test_a_state_frozen_again_after_a_change_misses():
    space = FockSpace(4)
    state = moment_states(space, 41)[2]
    state.setflags(write=False)
    op = tetrad_component(space, "y1")
    before = expectation(op, state)
    state.setflags(write=True)
    state[5] += 0.25j
    state.setflags(write=False)
    after = expectation(op, state)
    assert after != before
    assert abs(after - np.vdot(state, op.matrix @ state)) < 1e-12
    with pytest.raises(DimensionMismatchError):
        space.moments(state[:-1])


@pytest.mark.parametrize("protocol", [2, 4])
def test_an_unpickled_coherent_state_changed_in_place_misses(protocol):
    space = FockSpace(4)
    amps = BispinorAmplitudes.from_element(random_group_element(np.random.default_rng(43)))
    state = pickle.loads(pickle.dumps(coherent_state(space, amps, 0.1), protocol=protocol))
    # numpy unpickles these 1120 bytes as a writable array on plain bytes
    assert state.flags.writeable and isinstance(state.base, bytes)
    op = tetrad_component(space, "z1")
    # asked directly: expectation may pass the memo a view with numpy's own dtype
    before = space._entry(state)[1]
    state[5] += 1
    after = space._entry(state)[1]
    assert (after != before).any()
    truth = np.vdot(state, op.matrix @ state)
    assert abs((op.coefficients * after).sum() - truth) < 1e-12
    assert abs(expectation(op, state) - truth) < 1e-12


def test_derived_operators_take_the_matvec_route(monkeypatch):
    space = FockSpace(4)
    state = moment_states(space, 19)[3]
    z1, x3 = tetrad_component(space, "z1"), tetrad_component(space, "x3")
    derived = {
        "dagger": (z1.dagger(), expectation(z1, state).conjugate()),
        "sum": (z1 + x3, expectation(z1, state) + expectation(x3, state)),
        "scalar": (2.5 * x3, 2.5 * expectation(x3, state)),
    }

    def no_moments(self, state):
        raise AssertionError("a derived operator read the moments")

    monkeypatch.setattr(fock.FockSpace, "_entry", no_moments)
    for name, (op, want) in derived.items():
        assert not isinstance(op, BilinearOperator), name
        assert abs(expectation(op, state) - want) < 1e-12, name


def _terms_matrix(terms):
    """The 4x4 coefficients of a tau combination, written out here."""
    matrix = np.zeros((4, 4), dtype=complex)
    for coeff, r, s in terms:
        matrix[r - 1, s - 1] += coeff
    return matrix


@pytest.mark.parametrize("cutoff", [0, 1, 4, 12])
def test_tetrad_expectations_match_each_component_bit_for_bit(cutoff):
    space = FockSpace(cutoff)
    comps = {name: tetrad_component(space, name) for name in TETRAD_BILINEARS}
    for state in moment_states(space, 300 + cutoff):
        values = tetrad_expectations(space, state)
        moments = space.moments(state)
        assert isinstance(values, tuple) and len(values) == len(TETRAD_BILINEARS)
        for (name, terms), value in zip(TETRAD_BILINEARS.items(), values):
            coefficients = _terms_matrix(terms)
            np.testing.assert_array_equal(comps[name].coefficients, coefficients)
            want = complex((coefficients * moments).sum())
            assert np.array(value).tobytes() == np.array(want).tobytes(), name
            got = expectation(comps[name], state)
            assert np.array(got).tobytes() == np.array(want if comps[name].nnz else 0j).tobytes(), name


def test_tetrad_coefficients_are_the_read_only_rows_of_the_components():
    assert fock.TETRAD_COEFFICIENTS.shape == (10, 4, 4)
    assert not fock.TETRAD_COEFFICIENTS.flags.writeable
    space = FockSpace(2)
    for row, (name, terms) in enumerate(TETRAD_BILINEARS.items()):
        np.testing.assert_array_equal(fock.TETRAD_COEFFICIENTS[row], _terms_matrix(terms))
        assert np.shares_memory(tetrad_component(space, name).coefficients, fock.TETRAD_COEFFICIENTS)
    served = dict(operator_tetrad(space).components())
    for name in TETRAD_BILINEARS:
        assert np.shares_memory(served[name].coefficients, fock.TETRAD_COEFFICIENTS), name


def test_ten_expectations_of_one_coherent_state_cost_one_moment_matrix_and_one_contraction(monkeypatch):
    # the moments are closed form: no coherent state gathers over the basis
    space = FockSpace(4)
    comps = [tetrad_component(space, name) for name in TETRAD_BILINEARS]
    calls = {"gathers": 0, "contractions": 0}
    lowering, contract = fock.FockSpace._lowering, fock._tetrad_values

    def counted_lowering(self):
        calls["gathers"] += 1
        return lowering(self)

    def counted_contract(moments):
        calls["contractions"] += 1
        return contract(moments)

    monkeypatch.setattr(fock.FockSpace, "_lowering", counted_lowering)
    monkeypatch.setattr(fock, "_tetrad_values", counted_contract)
    rng = np.random.default_rng(47)
    for n in (1, 2):
        state = coherent_state(space, BispinorAmplitudes.from_element(random_group_element(rng)), 0.1)
        values = [expectation(op, state) for op in comps]
        assert calls == {"gathers": 0, "contractions": n}
        assert tuple(values) == tetrad_expectations(space, state)
        assert calls == {"gathers": 0, "contractions": n}


def test_an_earlier_coherent_state_and_a_frozen_copy_are_gathered_within_1e_12(monkeypatch):
    space = FockSpace(4)
    amps = BispinorAmplitudes.from_element(GroupElement(0.6, 0.8j))
    earlier = coherent_state(space, amps, 0.1)
    state = coherent_state(space, amps, 0.1)
    assert space._memo[0] is state
    assert tetrad_expectations(space, state) is space._memo[2]
    # the earlier state is no longer kept; a caller's frozen array never is
    frozen = np.array(state)
    frozen.setflags(write=False)
    _assert_recomputed_as_kept(monkeypatch, space, [earlier, frozen])


# sha256 of tetrad_expectations on moment_states(space, 200 + cutoff) at
# cutoffs 0, 1, 4 and 12, recorded as ten per-component contractions
# (C * space.moments(state)).sum() before the values came from one tensor,
# and re-recorded when the space kept the last coherent state's moments in
# closed form (the first coherent state of each cutoff is still gathered),
# and again when the state was normalised by 1/sqrt(E_C(I)) and the draws
# without BLAS, and when the kept diagonal moments became exactly real
TETRAD_EXPECTATIONS_SHA256 = "43877c8a5fc7c76fbe5fd9066beced56bd50e46778c0931397d85e272475f66e"


def test_tetrad_expectations_pinned():
    digest = hashlib.sha256()
    for cutoff in (0, 1, 4, 12):
        space = FockSpace(cutoff)
        for state in moment_states(space, 200 + cutoff):
            digest.update(np.array(tetrad_expectations(space, state)).tobytes())
    assert digest.hexdigest() == TETRAD_EXPECTATIONS_SHA256


def test_a_pickled_component_carries_its_matrix_and_cutoff_only():
    space = FockSpace(30)
    op = tetrad_component(space, "z1")
    csr = sum(part.nbytes for part in (op.matrix.data, op.matrix.indices, op.matrix.indptr))
    size = len(pickle.dumps(op))
    assert size < csr + 4096
    amps = BispinorAmplitudes.from_element(random_group_element(np.random.default_rng(53)))
    state = coherent_state(space, amps, 0.5)
    value = expectation(op, state)
    assert len(pickle.dumps(op)) == size
    # the loaded component's new space keeps nothing, so it gathers the value
    assert abs(expectation(pickle.loads(pickle.dumps(op)), state) - value) < 1e-12


@pytest.mark.parametrize("cutoff", [0, 1, 4])
def test_components_pickled_together_share_one_space(cutoff):
    space = FockSpace(cutoff)
    ops = [tetrad_component(space, name) for name in ("t0", "x2", "y3")] + [space.tau(2, 1)]
    state = moment_states(space, 59)[2]
    loaded = pickle.loads(pickle.dumps(ops))
    twin_space = loaded[0]._space
    assert all(op._space is twin_space for op in loaded)
    assert twin_space is not space and twin_space._memo is None
    np.testing.assert_array_equal(twin_space.occupations, space.occupations)
    assert not twin_space.occupations.flags.writeable
    for op, twin in zip(ops, loaded):
        assert twin._row == op._row
        assert expectation(twin, state) == expectation(op, state)


def test_a_pickled_space_carries_its_cutoff_only():
    space = FockSpace(30)
    # the tables and the kept state are filled, and none of them is pickled
    tetrad = operator_tetrad(space)
    coherent_state(space, BispinorAmplitudes(1, 0, 0, 1), 0.1)
    data = pickle.dumps(space)
    assert len(data) < 200
    loaded = pickle.loads(data)
    assert loaded.cutoff == 30 and loaded._memo is None
    for (label, op), (_, twin) in zip(tetrad.components(), operator_tetrad(loaded).components()):
        for part, twin_part in zip(
            (op.matrix.data, op.matrix.indices, op.matrix.indptr),
            (twin.matrix.data, twin.matrix.indices, twin.matrix.indptr),
        ):
            assert part.dtype == twin_part.dtype and part.tobytes() == twin_part.tobytes(), label
