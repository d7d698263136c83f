import hashlib
import itertools
import math

import numpy as np
import pytest

from urtetrad import fock
from urtetrad.cli import main
from urtetrad.fock import (
    TETRAD_BILINEARS,
    BadModeError,
    BispinorAmplitudes,
    CutoffTooLargeError,
    DimensionMismatchError,
    FockSpace,
    SparseOperator,
    TruncationTooLossyError,
    _rank,
    coherent_bilinear_value,
    coherent_state,
    expectation,
    operator_tetrad,
    tetrad_component,
)
from urtetrad.spinor import GroupElement, dyad_from_element, random_group_element
from urtetrad.tetrad import real_tetrad

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
    space = FockSpace(3)
    for i, state in enumerate(space.occupations):
        assert space.index_of(state) == i


def test_closed_form_rank_matches_basis_order():
    space = FockSpace(12)
    np.testing.assert_array_equal(_rank(space.occupations), np.arange(space.dimension))
    for outside in ((0, 0, 0, -1), (13, 0, 0, 0), (3, 4, 6, 0), (0, 0, 0),
                    (1.9, 0, 0, 0), (0.5, 0, 0, 0), (0, 0, 0, math.nan)):
        with pytest.raises(KeyError):
            space.index_of(outside)


def test_largest_cutoff_rank_matches_basis_order():
    space = FockSpace(67)  # binomial(71, 4) = 971635, the largest under MAX_STATES
    assert space.dimension == 971635
    np.testing.assert_array_equal(_rank(space.occupations), np.arange(space.dimension))


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


def test_bad_mode():
    space = FockSpace(1)
    with pytest.raises(BadModeError):
        space.annihilator(0)
    with pytest.raises(BadModeError):
        space.tau(1, 5)


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


def test_operator_tetrad_gathers_each_pair_once(monkeypatch):
    calls = []

    def counted_rank(occ):
        calls.append(len(occ))
        return _rank(occ)

    monkeypatch.setattr(fock, "_rank", counted_rank)
    space = FockSpace(4)
    first = operator_tetrad(space)
    assert len(calls) == 6  # one gather per mode pair r < s
    second = operator_tetrad(space)
    assert len(calls) == 6
    for (_, a), (_, b) in zip(first.components(), second.components()):
        for part in ("data", "indices", "indptr"):
            assert getattr(a.matrix, part).tobytes() == getattr(b.matrix, part).tobytes()
    rows, cols, values = space._tau_entries(1, 3)
    adjoint = space._tau_entries(3, 1)
    assert adjoint[0] is cols and adjoint[1] is rows and adjoint[2] is values
    for array in (rows, cols, values):
        with pytest.raises(ValueError):
            array[0] = 0


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


def test_sparse_operator_algebra():
    eye = SparseOperator.identity(3)
    twice = eye + eye
    assert (2.0 * eye - twice).max_abs() == 0.0
    assert (-eye + eye).max_abs() == 0.0
    assert (eye @ eye - eye).max_abs() == 0.0


def test_expectation_contracts():
    eye = SparseOperator.identity(4)
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
            analytic = coherent_bilinear_value(amps, 0.5, TETRAD_BILINEARS[name])
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
# 30, in TETRAD_BILINEARS order, recorded at the same time
CUTOFF30_CSR_SHA256 = "9370824b4af21f2aaadc552959c14af9c61e55b13dd9595a32f3efdb9c2109af"


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


@pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf])
def test_coherent_nonfinite_scale_rejected(scale):
    space = FockSpace(2)
    amps = BispinorAmplitudes.from_element(GroupElement(1, 0))
    with pytest.raises(ValueError, match="not finite"):
        coherent_state(space, amps, scale)
