import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edges import EDGE_FLOATS
from urtetrad import fock
from urtetrad.cli import dumps17, main

SQRT1_2 = 1.0 / math.sqrt(2.0)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_tetrad_real_identity(capsys):
    doc = run_json(capsys, "tetrad", "--quat", "1", "0", "0", "0", "--real")
    assert doc["command"] == "tetrad" and doc["frame"] == "real"
    np.testing.assert_allclose(doc["t"], [1, 0, 0, 0], atol=1e-15)
    np.testing.assert_allclose(doc["z"], [0, 0, 0, -1], atol=1e-15)
    np.testing.assert_allclose(doc["x"], [0, 1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(doc["y"], [0, 0, -1, 0], atol=1e-15)
    assert doc["input"]["quaternion"] == [1, 0, 0, 0]


def test_tetrad_null_identity(capsys):
    doc = run_json(capsys, "tetrad", "--a", "1", "0", "--b", "0", "0", "--phi", "0", "--null")
    m = np.array([re + 1j * im for re, im in doc["m"]])
    n = np.array([re + 1j * im for re, im in doc["n"]])
    np.testing.assert_allclose(m, [SQRT1_2, 0, 0, -SQRT1_2], atol=1e-15)
    np.testing.assert_allclose(n, [SQRT1_2, 0, 0, SQRT1_2], atol=1e-15)
    l = np.array([re + 1j * im for re, im in doc["l"]])
    lst = np.array([re + 1j * im for re, im in doc["l_star"]])
    np.testing.assert_allclose(lst, l.conj(), atol=1e-15)
    assert "convention" in doc


def test_tetrad_input_forms_agree(capsys):
    doc_q = run_json(capsys, "tetrad", "--quat", "0", "1", "0", "0", "--real")
    doc_ab = run_json(capsys, "tetrad", "--a", "0", "0", "--b", "0", "1", "--real")
    assert doc_q["z"] == doc_ab["z"]
    assert doc_q["y"] == doc_ab["y"]
    np.testing.assert_allclose(doc_q["z"], [0, 0, 0, 1], atol=1e-15)
    np.testing.assert_allclose(doc_q["y"], [0, 0, 1, 0], atol=1e-15)


def test_tetrad_nonunit_exit2(capsys):
    code, out, err = run_cli(capsys, "tetrad", "--a", "1", "0", "--b", "1", "0", "--null")
    assert code == 2
    assert out == ""
    assert "not 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--quat", "nan", "0", "0", "0", "--real"),
        ("--quat", "inf", "0", "0", "0", "--real"),
        ("--a", "nan", "0", "--b", "0", "0", "--null"),
        ("--quat", "1", "0", "0", "0", "--phi", "nan", "--real"),
        ("--quat", "1", "0", "0", "0", "--phi", "inf", "--null"),
        ("--quat", "-inf", "0", "0", "0", "--real"),
        ("--a", "-nan", "0", "--b", "0", "0", "--null"),
        ("--quat", "1", "0", "0", "0", "--phi", "-inf", "--real"),
    ],
)
def test_tetrad_nonfinite_exit2(capsys, argv):
    code, out, err = run_cli(capsys, "tetrad", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")  # refused by the input checks, not by argparse


@pytest.mark.parametrize("pair", [("1.5e154", "0"), ("1e200", "1e200"), ("1.7e308", "1.7e308")])
def test_tetrad_pair_whose_square_overflows_exit2(capsys, pair):
    code, out, err = run_cli(capsys, "tetrad", "--a", *pair, "--b", "0", "0", "--real")
    assert (code, out) == (2, "")
    assert "is not 1" in err


# each exponent-form negative against the plain spelling argparse always took
@pytest.mark.parametrize(
    "template, value, plain",
    [
        ("tetrad --quat {} 0 0 0.99498743710662 --real", "-1e-1", "-0.1"),
        ("tetrad --a 0.6 0 --b 0 {} --null", "-8e-1", "-0.8"),
        ("tetrad --quat 1 0 0 0 --phi {} --real", "-1e-3", "-0.001"),
        ("cosmos --r0 1 --c 1 --epoch {}", "-1e-3", "-0.001"),
    ],
)
def test_negative_exponent_values_accepted(capsys, template, value, plain):
    got = run_cli(capsys, *template.format(value).split())
    want = run_cli(capsys, *template.format(plain).split())
    assert got == want


@settings(max_examples=200, deadline=None)
@given(quat=st.lists(EDGE_FLOATS, min_size=4, max_size=4), frame=st.sampled_from(["--real", "--null"]))
def test_tetrad_quat_exits_0_or_2_with_at_most_one_json_line(quat, frame):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["tetrad", "--quat", *map(repr, quat), frame])
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
    else:
        line = out.getvalue()
        assert line.count("\n") == 1 and line.endswith("\n")
        assert json.loads(line)["command"] == "tetrad"


def test_tetrad_usage_errors(capsys):
    code, _, _ = run_cli(capsys, "tetrad", "--a", "1", "0", "--b", "0", "0")
    assert code == 2  # missing --null/--real
    code, _, err = run_cli(
        capsys, "tetrad", "--quat", "1", "0", "0", "0", "--a", "1", "0", "--b", "0", "0", "--null"
    )
    assert code == 2
    code, _, _ = run_cli(capsys, "tetrad", "--a", "1", "0", "--null")
    assert code == 2  # --a without --b


def test_float_format_17_digits(capsys):
    _, out, _ = run_cli(capsys, "tetrad", "--a", "1", "0", "--b", "0", "0", "--null")
    assert format(SQRT1_2, ".17g") in out


def test_verify_passes(capsys):
    doc = run_json(capsys, "verify", "--samples", "50", "--seed", "3", "--cutoff", "2")
    assert doc["pass"] is True
    assert all(rec["pass"] for rec in doc["records"])
    names = [rec["name"] for rec in doc["records"]]
    assert "metric_reconstruction" in names
    assert "canonical_commutators_safe_subspace" in names


def test_verify_single_suite(capsys):
    doc = run_json(capsys, "verify", "--suite", "spinor", "--samples", "20", "--seed", "1")
    assert doc["suite"] == "spinor"
    assert all(not rec["name"].startswith("metric") for rec in doc["records"])


def test_verify_deterministic(capsys):
    args = ("verify", "--samples", "40", "--seed", "9", "--suite", "tetrad")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_verify_usage_errors(capsys):
    code, _, _ = run_cli(capsys, "verify", "--samples", "0")
    assert code == 2
    code, _, _ = run_cli(capsys, "verify", "--suite", "nonsense")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [("--tol", "nan"), ("--tol", "inf"), ("--suite", "spinor", "--cutoff", "-1"), ("--tol", "-1")],
)
def test_verify_bad_input_exit2(capsys, argv):
    code, out, err = run_cli(capsys, "verify", "--samples", "5", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -np.inf, np.float64("nan")])
def test_dumps17_rejects_nonfinite(value):
    with pytest.raises(ValueError, match="non-finite"):
        dumps17({"radius": [1.0, value]})


def test_fock_matrix_t0(capsys):
    doc = run_json(capsys, "fock", "--cutoff", "1", "--op", "t0", "--matrix")
    assert doc["dimension"] == 5
    diag = {(t["row"], t["col"]): t["re"] for t in doc["triplets"]}
    assert diag == {(0, 0): 2.0, (1, 1): 3.0, (2, 2): 3.0, (3, 3): 3.0, (4, 4): 3.0}
    assert all(t["im"] == 0 for t in doc["triplets"])


def test_fock_tau_vacuum_only(capsys):
    doc = run_json(capsys, "fock", "--cutoff", "0", "--op", "tau", "1", "2", "--matrix")
    assert doc["triplets"] == []
    assert doc["op"] == "tau 1 2"


def test_fock_expect_coherent_z3(capsys):
    doc = run_json(
        capsys, "fock", "--cutoff", "12", "--op", "z3",
        "--expect-coherent", "1", "0", "0", "0", "0", "0.5",
    )
    assert doc["expectation"][0] == pytest.approx(-0.25, abs=1e-6)
    assert doc["classical"][0] == pytest.approx(-0.25, abs=1e-12)
    assert doc["abs_diff"] < 1e-6


def test_fock_expect_coherent_t0(capsys):
    doc = run_json(
        capsys, "fock", "--cutoff", "12", "--op", "t0",
        "--expect-coherent", "1", "0", "0", "0", "0", "0.5",
    )
    # zero-point 2 plus the coherent intensity 2 * scale^2
    assert doc["classical"][0] == pytest.approx(2.5)
    assert doc["abs_diff"] < 1e-6


def test_fock_expect_coherent_tau_diagonal(capsys):
    doc = run_json(
        capsys, "fock", "--cutoff", "12", "--op", "tau", "1", "1",
        "--expect-coherent", "1", "0", "0", "0", "0", "0.5",
    )
    assert doc["classical"][0] == pytest.approx(0.75)
    assert doc["abs_diff"] < 1e-6


def test_fock_bad_operator_exit2(capsys):
    code, _, err = run_cli(capsys, "fock", "--cutoff", "1", "--op", "q7", "--matrix")
    assert code == 2 and "unknown operator" in err
    code, _, _ = run_cli(capsys, "fock", "--cutoff", "1", "--op", "tau", "1", "--matrix")
    assert code == 2
    code, _, _ = run_cli(capsys, "fock", "--cutoff", "1", "--op", "tau", "1", "9", "--matrix")
    assert code == 2


@pytest.mark.parametrize("scale", ["nan", "inf", "-inf", "-nan"])
def test_fock_nonfinite_scale_exit2(capsys, scale):
    code, out, err = run_cli(
        capsys, "fock", "--cutoff", "4", "--op", "z1",
        "--expect-coherent", "1", "0", "0", "0", "0", scale,
    )
    assert code == 2
    assert out == ""
    assert "not finite" in err


def test_fock_truncation_exit1(capsys):
    code, _, err = run_cli(
        capsys, "fock", "--cutoff", "2", "--op", "z3",
        "--expect-coherent", "1", "0", "0", "0", "0", "2.0",
    )
    assert code == 1
    assert "truncation" in err.lower()


@pytest.mark.parametrize("scale", ["1e100", "1e200"])
def test_fock_overflowing_scale_exit1(capsys, scale):
    code, out, err = run_cli(
        capsys, "fock", "--cutoff", "2", "--op", "z3",
        "--expect-coherent", "1", "0", "0", "0", "0", scale,
    )
    assert code == 1
    assert out == ""
    assert "truncation" in err.lower()


@pytest.mark.parametrize("modes, bad", [(("1", "9"), "9"), (("0", "1"), "0")])
def test_fock_tau_mode_out_of_range_exit2(capsys, modes, bad):
    code, out, err = run_cli(capsys, "fock", "--cutoff", "1", "--op", "tau", *modes, "--matrix")
    assert code == 2
    assert out == ""
    assert f"mode index {bad} outside 1..4" in err


def test_fock_tau_mode_refused_before_the_basis(capsys, monkeypatch):
    def no_space(cutoff):
        raise AssertionError("the basis was built before the modes were checked")

    monkeypatch.setattr(fock, "FockSpace", no_space)
    code, out, err = run_cli(capsys, "fock", "--cutoff", "67", "--op", "tau", "1", "9", "--matrix")
    assert code == 2
    assert out == ""
    assert "mode index 9 outside 1..4" in err


def test_fock_overflow_message_names_the_amplitudes(capsys):
    code, out, err = run_cli(
        capsys, "fock", "--cutoff", "2", "--op", "z3",
        "--expect-coherent", "1", "0", "0", "0", "0", "1e100",
    )
    assert code == 1
    assert out == ""
    assert "truncation deficit is nan: the coherent amplitudes overflowed or are not finite" in err


def test_cosmos_example(capsys):
    doc = run_json(capsys, "cosmos", "--r0", "1", "--c", "1", "--epoch", "2")
    assert doc["radius"] == 3.0
    assert doc["ur_count_reference"] == 1e120


def test_cosmos_epoch_zero(capsys):
    doc = run_json(capsys, "cosmos", "--r0", "4.5", "--c", "2", "--epoch", "0")
    assert doc["radius"] == 4.5


def test_cosmos_usage_errors(capsys):
    code, _, _ = run_cli(capsys, "cosmos", "--r0", "1", "--c", "1", "--epoch", "-1")
    assert code == 2
    code, _, _ = run_cli(capsys, "cosmos", "--r0", "1", "--c", "0", "--epoch", "1")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("--r0", "1", "--c", "1", "--epoch", "nan"),
        ("--r0", "1", "--c", "1", "--epoch", "inf"),
        ("--r0", "1", "--c", "inf", "--epoch", "2"),
        ("--r0", "nan", "--c", "1", "--epoch", "2"),
        ("--r0", "1", "--c", "1", "--epoch", "-inf"),
        ("--r0", "1", "--c", "-nan", "--epoch", "2"),
    ],
)
def test_cosmos_nonfinite_exit2(capsys, argv):
    code, out, err = run_cli(capsys, "cosmos", *argv)
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_module_entry_point(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "urtetrad", "cosmos", "--r0", "1", "--c", "1", "--epoch", "2"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["radius"] == 3.0


@pytest.mark.parametrize(
    "argv",
    [
        ("tetrad", "--a", "0.6", "0", "--b", "0", "-8e-1", "--null"),
        ("fock", "--cutoff", "12", "--op", "z1", "--matrix"),
    ],
)
def test_closed_stdout_exits_141_quietly(argv, child_env):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "urtetrad", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
            env=child_env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""  # no traceback, no message
