import contextlib
import enum
import hashlib
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
from urtetrad import fock, spinor, verify
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
    assert err.startswith("error: --a/--b: ") and "not 1" in err


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
    # refused by the input checks, not by argparse, naming the flag
    flag = "--phi" if "--phi" in argv else {"--quat": "--quat", "--a": "--a/--b"}[argv[0]]
    assert err.startswith(f"error: {flag}: ")


@pytest.mark.parametrize("pair", [("1.5e154", "0"), ("1e200", "1e200"), ("1.7e308", "1.7e308")])
def test_tetrad_pair_whose_square_overflows_exit2(capsys, pair):
    code, out, err = run_cli(capsys, "tetrad", "--a", *pair, "--b", "0", "0", "--real")
    assert (code, out) == (2, "")
    assert err.startswith("error: --a/--b: ") and "is not 1" in err


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
        assert err.getvalue().startswith("error: --quat: ")
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
    [("--tol", "nan"), ("--tol", "inf"), ("--suite", "spinor", "--cutoff", "-1"), ("--tol", "-1"),
     ("--seed", "-1")],
)
def test_verify_bad_input_exit2(capsys, argv):
    code, out, err = run_cli(capsys, "verify", "--samples", "5", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {argv[-2]}: ")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -np.inf, np.float64("nan")])
def test_dumps17_rejects_nonfinite(value):
    with pytest.raises(ValueError, match="non-finite"):
        dumps17({"radius": [1.0, value]})


class _Mode(enum.IntEnum):
    TWO = 2


@pytest.mark.parametrize(
    "obj, text",
    [
        ({"a": [1, (2.5, {"b": []})], "c": {}}, '{"a":[1,[2.5,{"b":[]}]],"c":{}}'),
        ((), "[]"),
        ([True, False, None], "[true,false,null]"),
        (True, "true"),
        (None, "null"),
        (_Mode.TWO, "2"),
        ([-(10**40), 10**40], "[-10000000000000000000000000000000000000000,10000000000000000000000000000000000000000]"),
        (-0.0, "-0"),
        (1e300, "1.0000000000000001e+300"),
        (np.float64(0.1), "0.10000000000000001"),
        ("grüße π", '"gr\\u00fc\\u00dfe \\u03c0"'),
        ('say "hi" \\ bye', '"say \\"hi\\" \\\\ bye"'),
        ({1: 0.5, None: "x", 2.5: [], False: {}}, '{"1":0.5,"None":"x","2.5":[],"False":{}}'),
    ],
)
def test_dumps17_writes(obj, text):
    assert dumps17(obj) == text


@pytest.mark.parametrize("obj", [object(), np.int64(1), {"k": [object()]}])
def test_dumps17_refuses_an_unsupported_type(obj):
    with pytest.raises(TypeError):
        dumps17(obj)


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
    assert code == 2 and err.startswith("error: --op: unknown operator")
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
    assert err.startswith("error: --expect-coherent: ") and "not finite" in err


def test_fock_truncation_exit1(capsys):
    code, _, err = run_cli(
        capsys, "fock", "--cutoff", "2", "--op", "z3",
        "--expect-coherent", "1", "0", "0", "0", "0", "2.0",
    )
    assert code == 1
    assert err.startswith("error: --expect-coherent: truncation")


@pytest.mark.parametrize("scale", ["1e100", "1e200"])
def test_fock_overflowing_scale_exit1(capsys, scale):
    code, out, err = run_cli(
        capsys, "fock", "--cutoff", "2", "--op", "z3",
        "--expect-coherent", "1", "0", "0", "0", "0", scale,
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: --expect-coherent: truncation")


@pytest.mark.parametrize("modes, bad", [(("1", "9"), "9"), (("0", "1"), "0")])
def test_fock_tau_mode_out_of_range_exit2(capsys, modes, bad):
    code, out, err = run_cli(capsys, "fock", "--cutoff", "1", "--op", "tau", *modes, "--matrix")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: --op: mode index {bad} outside 1..4")


def test_fock_tau_mode_refused_before_the_basis(capsys, monkeypatch):
    def no_space(cutoff):
        raise AssertionError("the basis was built before the modes were checked")

    monkeypatch.setattr(fock, "FockSpace", no_space)
    code, out, err = run_cli(capsys, "fock", "--cutoff", "67", "--op", "tau", "1", "9", "--matrix")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --op: mode index 9 outside 1..4")


def test_fock_overflow_message_names_the_amplitudes(capsys):
    code, out, err = run_cli(
        capsys, "fock", "--cutoff", "2", "--op", "z3",
        "--expect-coherent", "1", "0", "0", "0", "0", "1e100",
    )
    assert code == 1
    assert out == ""
    assert err == (
        "error: --expect-coherent: truncation deficit is nan: "
        "the coherent amplitudes overflowed or are not finite\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("fock", "--cutoff", "68", "--op", "z1", "--matrix"),
        ("fock", "--cutoff", "68", "--op", "t0", "--expect-coherent", "1", "0", "0", "0", "0", "1"),
        ("verify", "--suite", "fock", "--samples", "1", "--cutoff", "68"),
    ],
)
def test_cutoff_above_the_bound_names_the_flag(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: --cutoff: cutoff 68 gives 1028790 states, above the bound 1000000\n"


@pytest.mark.parametrize(
    "argv, want",
    [
        (("--quat", "1", "1", "0", "0", "--real"), "error: --quat: w^2 + x^2 + y^2 + z^2 = 2.0 is not 1"),
        (("--a", "1", "0", "--b", "1", "0", "--phi", "nan", "--null"), "error: --phi: phase phi = nan is not finite"),
        (("--quat", "1", "0", "0", "0", "--phi", "inf", "--null"), "error: --phi: phase phi = inf is not finite"),
        (("--a", "1", "0", "--b", "1", "0", "--real"), "error: --a/--b: |a|^2 + |b|^2 = 2.0 is not 1"),
        (("--a", "1.5e154", "0", "--b", "0", "0", "--real"), "error: --a/--b: |a|^2 + |b|^2 = inf is not 1"),
        (("--a", "nan", "0", "--b", "0", "0", "--real"), "error: --a/--b: |a|^2 + |b|^2 = nan is not 1"),
    ],
)
def test_tetrad_refusals_name_the_flag(capsys, argv, want):
    code, out, err = run_cli(capsys, "tetrad", *argv)
    assert (code, out) == (2, "")
    assert err.startswith(want)


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
    flag = "--epoch" if argv[5] in ("nan", "inf", "-inf") else "--r0/--c"
    assert err.startswith(f"error: {flag}: ") and "finite" in err


def test_cosmos_overflowing_radius_exit2(capsys):
    code, out, err = run_cli(capsys, "cosmos", "--r0", "1", "--c", "1e308", "--epoch", "1e308")
    assert (code, out) == (2, "")
    assert err == "error: --epoch: radius at epoch 1e+308 overflows to inf\n"


def test_negative_zero_phase_prints_as_zero(capsys):
    args = ["tetrad", "--quat", "1", "0", "0", "0", "--null", "--phi"]
    negative, zero = run_cli(capsys, *args, "-0"), run_cli(capsys, *args, "0")
    assert negative == zero and negative[0] == 0
    assert '"phi":0,' in negative[1]


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


OPERATORS = [[name] for name in fock.TETRAD_BILINEARS] + [
    ["tau", str(r), str(s)] for r in range(1, 5) for s in range(1, 5)
]
# a = -0.6 - 0i, b = -0.48 + 0.64i, phi = -0.7: negative real parts and a signed zero
PAIR = ("-0.6", "-0.0", "-0.48", "0.64", "-0.7")


# sha256 of the --expect-coherent stdout of every operator in OPERATORS at
# PAIR and verify's scale for the cutoff, recorded when the space kept a
# coherent state's moments in closed form (all but cutoff 0 moved then, in
# the last bits of "expectation" and "abs_diff")
EXPECT_COHERENT_SHA256 = {
    0: "cbc47b34edca12b8561dc5b0b930c2e3ec4ed82d6bf07daa535ed0faeabd5694",
    1: "df5559436cc380d1d7f36fc5303162aa63be667bc310da073811b21cbbf40772",
    4: "c4c030a8c9a858ca16a3d222d0a0c67b6ca7a8fd9f0b7ee702d1c921ef890f5e",
    12: "13082e294819d534b24083954f5442b1e37a519f37dadf6e638b6e00fb9fe269",
    30: "790304641a23f52b3585a3e7eb93aa4a88c9f785f80e7386c3679e160aa71c21",
}


@pytest.mark.parametrize("cutoff", sorted(EXPECT_COHERENT_SHA256))
def test_expect_coherent_value_is_the_expectation_bit_for_bit(capsys, cutoff):
    scale = float(verify._coherent_scale_for_cutoff(cutoff))
    space = fock.FockSpace(cutoff)
    g = spinor.GroupElement(complex(-0.6, -0.0), complex(-0.48, 0.64), -0.7)
    state = fock.coherent_state(space, fock.BispinorAmplitudes.from_element(g), scale)
    digest = hashlib.sha256()
    for op in OPERATORS:
        argv = ["fock", "--cutoff", str(cutoff), "--op", *op, "--expect-coherent", *PAIR, repr(scale)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        digest.update(out.encode())
        # parse_int keeps the sign of a printed -0
        got = json.loads(out, parse_int=float)["expectation"]
        if op[0] == "tau":
            want = fock.expectation(space.tau(int(op[1]), int(op[2])), state)
        else:
            want = fock.expectation(fock.tetrad_component(space, op[0]), state)
        assert [x.hex() for x in got] == [want.real.hex(), want.imag.hex()], op
    assert digest.hexdigest() == EXPECT_COHERENT_SHA256[cutoff]


# sha256 of the five help screens at 80 columns, as Python 3.11's argparse lays them out
HELP_SHA256 = {
    (): "8609a0b2de2f2a14e47bf9b3492afd7a640e0324c231f72acbc59bef8c643210",
    ("tetrad",): "c7931bbd5091ee6be285201fb78ba4dbf5d52d44b4cdd4117fcd9a2f8b7f0c03",
    ("verify",): "e88843572ba10f5f50680a1d4ee52b63fb687be903613f1655fa24d5e418e282",
    ("fock",): "56ce9bc67181ca883b1e5d7e224212def42e2c25c8e606f99809d4971f0511d2",
    ("cosmos",): "0367d8516633b5391a192c4861afe525bba8689187329964edc70b1ca106a572",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse's help layout varies by Python version")
@pytest.mark.parametrize("command", list(HELP_SHA256), ids=lambda c: " ".join(c) or "top")
def test_help_screens_are_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, *command, "--help")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[command]


def _assert_exit_and_one_json_line(argv, printed_on=(0,)):
    """Exit 0, 1 or 2; stdout one JSON line of argv's command on an exit code
    in printed_on, else empty."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), err.getvalue()
    line = out.getvalue()
    if code not in printed_on:
        assert line == ""
    else:
        assert line.count("\n") == 1 and line.endswith("\n")
        assert json.loads(line)["command"] == argv[0]


@settings(max_examples=100, deadline=None)
@given(r0=EDGE_FLOATS, c=EDGE_FLOATS, epoch=EDGE_FLOATS)
def test_cosmos_exits_0_1_or_2_with_at_most_one_json_line(r0, c, epoch):
    _assert_exit_and_one_json_line(["cosmos", "--r0", repr(r0), "--c", repr(c), "--epoch", repr(epoch)])


@settings(max_examples=100, deadline=None)
@given(
    parts=st.lists(EDGE_FLOATS, min_size=5, max_size=5),
    frame=st.sampled_from(["--real", "--null"]),
)
def test_tetrad_pair_exits_0_1_or_2_with_at_most_one_json_line(parts, frame):
    a_re, a_im, b_re, b_im, phi = map(repr, parts)
    _assert_exit_and_one_json_line(
        ["tetrad", "--a", a_re, a_im, "--b", b_re, b_im, "--phi", phi, frame]
    )


# unit pairs, so some draws pass the group-element check
UNIT_PAIRS = st.sampled_from([(1.0, 0.0, 0.0, 0.0), (-0.6, -0.0, -0.48, 0.64), (0.0, 0.6, -0.8, 0.0)])


@settings(max_examples=100, deadline=None)
@given(
    cutoff=st.integers(0, 6),
    op=st.sampled_from(OPERATORS),
    pair=st.one_of(UNIT_PAIRS, st.tuples(EDGE_FLOATS, EDGE_FLOATS, EDGE_FLOATS, EDGE_FLOATS)),
    phi=EDGE_FLOATS,
    scale=EDGE_FLOATS,
    matrix=st.booleans(),
)
def test_fock_exits_0_1_or_2_with_at_most_one_json_line(cutoff, op, pair, phi, scale, matrix):
    mode = ["--matrix"] if matrix else ["--expect-coherent", *map(repr, (*pair, phi, scale))]
    _assert_exit_and_one_json_line(["fock", "--cutoff", str(cutoff), "--op", *op, *mode])


@settings(max_examples=60, deadline=None)
@given(
    tol=EDGE_FLOATS,
    samples=st.integers(-2, 3),
    seed=st.one_of(st.integers(-2, 3), st.integers(0, 2**64)),
    suite=st.sampled_from(["spinor", "tetrad", "fock", "all"]),
    cutoff=st.one_of(st.integers(-2, 6), st.just(68)),
)
def test_verify_exits_0_1_or_2_with_at_most_one_json_line(tol, samples, seed, suite, cutoff):
    # a failed record still prints the report, so exit 1 prints one line too
    _assert_exit_and_one_json_line(
        ["verify", f"--tol={tol!r}", f"--samples={samples}", f"--seed={seed}",
         f"--suite={suite}", f"--cutoff={cutoff}"],
        printed_on=(0, 1),
    )


@pytest.mark.parametrize("frame", ["--real", "--null"])
def test_printed_quaternion_replays_the_element(capsys, frame):
    """A point whose norm, summed as w^2 + x^2 + y^2 + z^2 and as
    |a|^2 + |b|^2, falls on opposite sides of the 1e-13 snap edge: the
    quaternion printed for --a/--b replays its stdout byte for byte."""
    code, out, err = run_cli(
        capsys, "tetrad", "--a", "-0.7728874398340511", "0.5146180989940167",
        "--b", "-0.22942897773105045", "0.2918485252865531", frame,
    )
    assert code == 0, err
    quat = [repr(c) for c in json.loads(out)["input"]["quaternion"]]
    code, replay, err = run_cli(capsys, "tetrad", "--quat", *quat, frame)
    assert code == 0, err
    assert replay == out
