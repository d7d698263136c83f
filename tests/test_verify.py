import dataclasses
import hashlib
import itertools
import json

import pytest

from urtetrad import fock, spinor, tetrad
from urtetrad.cli import main
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


def _late(make):
    """`make`'s fault, spared on the first call so that the first deviation is finite."""

    def make_late(orig, arg):
        faulty, calls = make(orig, arg), itertools.count()
        return lambda *args: (faulty if next(calls) else orig)(*args)

    return make_late


FAULTS = {
    "polynomials_z": (
        tetrad, "real_tetrad_polynomials", _shift_z, 1e-9, {"real_tetrad_vs_polynomials"}
    ),
    "minkowski_inner": (
        tetrad, "minkowski_inner", _add, 1e-9, {"null_vector_nullity", "frame_inner_product_table"}
    ),
    "expectation": (
        fock, "expectation", _add, 1e-3, {"classical_limit_spatial", "classical_limit_time"}
    ),
    "polynomials_z_nan": (
        tetrad, "real_tetrad_polynomials", _late(_shift_z), NAN, {"real_tetrad_vs_polynomials"}
    ),
    "expectation_nan": (
        fock, "expectation", _late(_add), NAN,
        {"classical_limit_spatial", "classical_limit_time", "coherent_phase_covariance"},
    ),
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
    monkeypatch.setattr(fock, "expectation", _late(_add)(fock.expectation, NAN))
    code = main(["verify", "--suite", "fock", "--samples", "5", "--cutoff", "2"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1 and doc["pass"] is False
    failed = [r for r in doc["records"] if not r["pass"]]
    assert [r["name"] for r in failed] == [
        "classical_limit_spatial", "classical_limit_time", "coherent_phase_covariance"
    ]
    assert all(r["max_deviation"] is None for r in failed)


@pytest.mark.parametrize(
    "flag, value",
    [("tol", NAN), ("tol", float("inf")), ("tol", -1.0), ("cutoff", -1), ("cutoff", 2.5)],
)
def test_run_verification_rejects_bad_input(flag, value):
    with pytest.raises(ValueError, match=flag):
        run_verification("spinor", **{flag: value})


# sha256 of the verify stdout, recorded when the record table replaced the
# hand-written sweeps; a refactor that keeps the draw order keeps these bytes
STDOUT_PINS = {
    ("--samples", "50", "--seed", "3", "--cutoff", "2"):
        "b24fe4336b5210de5c599814aebf2e8ff0fdda3e4a47dfe830157759a6838f0b",
    ("--suite", "fock", "--samples", "30", "--seed", "11", "--cutoff", "6"):
        "d8a552191199c336686ea6f17511a72008c74e1a7a57b6846013635c95616082",
}


@pytest.mark.parametrize("argv", sorted(STDOUT_PINS))
def test_verify_stdout_pinned(capsys, argv):
    assert main(["verify", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_PINS[argv]
