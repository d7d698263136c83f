import dataclasses
import hashlib
import itertools
import json

import numpy as np
import pytest

from urtetrad import fock, spinor, tetrad, verify
from urtetrad.cli import dumps17, main
from urtetrad.verify import run_verification

NAN = float("nan")

T, C = 1e-12, 1e-6

# (name, samples, tolerance) of `verify --suite all --samples 50 --seed 3 --cutoff 2`
SKELETON = [
    ("unitarity_norm", 50, T),
    ("chart_roundtrip", 50, 0.0),
    ("dyad_self_contraction", 50, T),
    ("dyad_cross_contraction", 50, T),
    ("contraction_antisymmetry", 50, T),
    ("contraction_bilinearity", 50, T),
    ("lowering_twice_negates", 50, 0.0),
    ("raise_lower_roundtrip", 50, 0.0),
    ("epsilon_metric_identities", 1, T),
    ("null_vector_nullity", 50, T),
    ("frame_inner_product_table", 50, T),
    ("metric_reconstruction", 50, T),
    ("metric_reconstruction_imaginary", 50, T),
    ("general_vs_direct_reconstruction", 50, T),
    ("real_frame_reconstruction", 50, T),
    ("m_n_component_symmetry", 50, T),
    ("frame_metric_self_inverse", 1, T),
    ("bilinear_phase_invariance", 50, T),
    ("real_tetrad_vs_polynomials", 50, T),
    ("rotation_orthonormality", 50, T),
    ("rotation_determinant", 50, T),
    ("rotation_double_cover", 50, 0.0),
    ("tangent_radial_orthogonality", 50, T),
    ("tangent_orthonormality", 50, T),
    ("real_tetrad_identity_point", 1, 1e-15),
    ("canonical_commutators_safe_subspace", 16, T),
    ("lowering_commutators_vanish", 16, T),
    ("raising_commutators_vanish", 16, T),
    ("bilinear_adjoint_symmetry", 16, T),
    ("bilinear_vs_anticommutator", 16, T),
    ("tetrad_components_hermitian", 10, T),
    ("time_component_zero_point", 1, 0.0),
    ("spatial_zero_point_cancellation", 9, T),
    ("classical_limit_spatial", 50, C),
    ("classical_limit_time", 50, C),
    ("coherent_phase_covariance", 50, T),
    ("coherent_entry_matches_gather", 50, T),
]


def test_report_skeleton():
    report = run_verification("all", samples=50, seed=3, cutoff=2)
    assert [(r["name"], r["samples"], r["tolerance"]) for r in report["records"]] == SKELETON
    assert report["pass"] is True


def _shift_z(orig, delta):
    def fake(q):
        rt = orig(q)
        return dataclasses.replace(rt, z=rt.z + delta)

    return fake


def _scale_c1(orig, factor):
    def fake(s):
        out = orig(s)
        return dataclasses.replace(out, c1=out.c1 * factor)

    return fake


def _shift_phi(orig, delta):
    def fake(q, phi=0.0):
        g = orig(q, phi)
        return dataclasses.replace(g, phi=g.phi + delta)

    return fake


def _add(orig, delta):
    return lambda *args: orig(*args) + delta


def _add_each(orig, delta):
    return lambda *args: tuple(value + delta for value in orig(*args))


def _shift_kept(orig, delta):
    """coherent_state with delta added to the ten values its space keeps."""

    def fake(space, amps, scale):
        state = orig(space, amps, scale)
        kept, moments, values = space._memo
        space._memo = kept, moments, tuple(value + delta for value in values)
        return state

    return fake


def _late(make):
    """`make`'s fault, spared on the first sample so that the first deviation is finite.

    A call whose last argument is 2-D carries a stack of samples, one per
    row, and the first call's first row gets a delta of 0; any other call
    carries one sample, and the first call is not faulted.
    """

    def make_late(orig, arg):
        faulty, calls = make(orig, arg), itertools.count()

        def fake(*args):
            first = next(calls) == 0
            if np.ndim(args[-1]) != 2:
                return (orig if first else faulty)(*args)
            delta = np.full((len(args[-1]), 1), arg)
            if first:
                delta[0] = 0.0
            return make(orig, delta)(*args)

        return fake

    return make_late


FAULTS = {
    "polynomials_z": (
        tetrad, "real_tetrad_polynomials", _shift_z, 1e-9, {"real_tetrad_vs_polynomials"}
    ),
    "minkowski_inner": (
        tetrad, "minkowski_inner", _add, 1e-9, {"null_vector_nullity", "frame_inner_product_table"}
    ),
    "expectation": (
        fock, "tetrad_expectations", _add_each, 1e-3, {"classical_limit_spatial", "classical_limit_time"}
    ),
    "polynomials_z_nan": (
        tetrad, "real_tetrad_polynomials", _late(_shift_z), NAN, {"real_tetrad_vs_polynomials"}
    ),
    "expectation_nan": (
        fock, "tetrad_expectations", _late(_add_each), NAN,
        {"classical_limit_spatial", "classical_limit_time", "coherent_phase_covariance",
         "coherent_entry_matches_gather"},
    ),
    # far inside the classical tolerance, and the same on both states of a draw
    "kept_entry": (fock, "coherent_state", _shift_kept, 1e-10, {"coherent_entry_matches_gather"}),
    "raise_index": (spinor, "raise_index", _scale_c1, 1 + 1e-15, {"raise_lower_roundtrip"}),
    "from_quaternion_phi": (spinor, "from_quaternion", _shift_phi, 1e-12, {"chart_roundtrip"}),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_fails_exact_records(monkeypatch, fault):
    module, attr, make, arg, expected = FAULTS[fault]
    monkeypatch.setattr(module, attr, make(getattr(module, attr), arg))
    report = run_verification("all", samples=20, seed=0, cutoff=2)
    assert {r["name"] for r in report["records"] if not r["pass"]} == expected
    assert report["pass"] is False


def test_nan_deviation_fails_cli_with_json(monkeypatch, capsys):
    monkeypatch.setattr(fock, "tetrad_expectations", _late(_add_each)(fock.tetrad_expectations, NAN))
    code = main(["verify", "--suite", "fock", "--samples", "5", "--cutoff", "2"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1 and doc["pass"] is False
    failed = [r for r in doc["records"] if not r["pass"]]
    assert [r["name"] for r in failed] == [
        "classical_limit_spatial", "classical_limit_time", "coherent_phase_covariance",
        "coherent_entry_matches_gather",
    ]
    assert all(r["max_deviation"] is None for r in failed)


@pytest.mark.parametrize(
    "flag, value",
    [("tol", NAN), ("tol", float("inf")), ("tol", -1.0), ("cutoff", -1), ("cutoff", 2.5),
     ("samples", 2.5), ("samples", NAN), ("samples", float("inf")),
     ("seed", 1.5), ("seed", NAN), ("seed", float("inf"))],
)
def test_run_verification_rejects_bad_input(flag, value):
    with pytest.raises(ValueError, match=flag):
        run_verification("spinor", **{flag: value})


# sha256 of the verify stdout, recorded when the record table replaced the
# hand-written sweeps, re-recorded when expectations of the bilinears
# moved to the moment matrix, which changed the last bits of
# coherent_phase_covariance alone, and again when a coherent state kept
# closed-form moments, which moved the last bits of the fock suite's
# coherent records and appended coherent_entry_matches_gather; a refactor
# that keeps the draw order and the summation order keeps these bytes.  The
# tetrad entry is the README's example, recorded before the tetrad suite
# moved to stacked calls.
STDOUT_PINS = {
    ("--samples", "50", "--seed", "3", "--cutoff", "2"):
        "73dcfe2567a81c0ce63b3d54405d9f749b5a1aebe140a00387fc70b06fcb28dd",
    ("--suite", "fock", "--samples", "30", "--seed", "11", "--cutoff", "6"):
        "eac7ac74d69c305e23976d6be4db2bdc14833e59575d0503fe743973bbd3eeaa",
    ("--suite", "tetrad", "--samples", "1000", "--seed", "7"):
        "4c4d189fea77ebff4b2d640061b9c98618091ed4a8c3ad8534f7550ca533f5a5",
}


@pytest.mark.parametrize("argv", sorted(STDOUT_PINS))
def test_verify_stdout_pinned(capsys, argv):
    assert main(["verify", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_PINS[argv]


def test_tetrad_suite_blocks_leave_the_report_unchanged(monkeypatch):
    default = dumps17(run_verification("tetrad", samples=100, seed=4))
    # 100 = 14 * 7 + 2, so the last block is ragged
    monkeypatch.setattr(verify, "_TETRAD_BLOCK", 7)
    assert dumps17(run_verification("tetrad", samples=100, seed=4)) == default
