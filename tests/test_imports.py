"""Each code path loads only the dependencies it uses: the package import,
`cosmos` and the help screens load no numpy; scipy is loaded only where a
caller asks an operator for its scipy matrix, directly or through its
arithmetic, so operator builds, `fock --expect-coherent` and `fock --matrix`
load none.  Each case runs in a fresh interpreter."""

import ast
import pickle
import subprocess
import sys

import pytest

import urtetrad
from urtetrad import cosmos, fock, spinor, tetrad, verify

CLI = "from urtetrad import cli; cli.main({!r})"

# the names the package exported when each module was imported eagerly
EXPORTED = {
    spinor: [
        "EPSILON", "Dyad", "GroupElement", "NonUnitError", "QuaternionPoint", "Spinor",
        "VarianceMismatchError", "contract", "dyad_from_element", "from_quaternion",
        "lower_index", "raise_index", "random_group_element", "random_s3_point", "to_quaternion",
    ],
    tetrad: [
        "ETA", "NULL_FRAME_METRIC", "SIGMA", "DyadInvalidError", "NullTetrad", "RealTetrad",
        "SingularFrameMetricError", "minkowski_inner", "null_tetrad", "pauli_bilinear",
        "real_tetrad", "real_tetrad_polynomials", "reconstruct_metric",
        "reconstruct_metric_general", "tangent_frame_at",
    ],
    fock: [
        "TETRAD_BILINEARS", "TETRAD_COEFFICIENTS", "BadModeError", "BilinearOperator",
        "BispinorAmplitudes", "CutoffTooLargeError", "DimensionMismatchError", "FockSpace",
        "OperatorTetrad", "SparseOperator", "TruncationTooLossyError", "coherent_bilinear_value",
        "coherent_state", "expectation", "operator_tetrad", "tetrad_component",
        "tetrad_expectations",
    ],
    cosmos: [
        "UR_COUNT_REFERENCE", "ExpansionModel", "NegativeEpochError", "radius_at",
        "ur_count_reference",
    ],
    verify: ["run_verification"],
}


def _loaded(code, child_env):
    """The names in sys.modules after code runs in a fresh interpreter."""
    probe = f"{code}\nimport sys\nprint(sorted(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120, env=child_env
    )
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize(
    "code, loads_scipy",
    [
        ("import urtetrad", False),
        (CLI.format(["cosmos", "--r0", "1", "--c", "1", "--epoch", "2"]), False),
        (CLI.format(["tetrad", "--quat", "1", "0", "0", "0", "--real"]), False),
        ("from urtetrad.fock import FockSpace, operator_tetrad; operator_tetrad(FockSpace(1))", False),
        ("import numpy as np\nfrom urtetrad.fock import BilinearOperator, FockSpace\n"
         "BilinearOperator(FockSpace(1), np.eye(4))", False),
    ],
    ids=["import", "cli-cosmos", "cli-tetrad", "operator_tetrad", "public_lift"],
)
def test_scipy_loaded_only_by_operator_builds(code, loads_scipy, child_env):
    assert ("scipy" in _loaded(code, child_env)) == loads_scipy


def test_moments_and_coherent_states_load_no_scipy(child_env):
    code = (
        "import numpy as np\n"
        "from urtetrad.fock import BispinorAmplitudes, FockSpace, coherent_state\n"
        "space = FockSpace(4)\n"
        "space.moments(coherent_state(space, BispinorAmplitudes(1, 0, 0, 1), 0.1))"
    )
    assert "scipy" not in _loaded(code, child_env)


def test_an_unpickled_component_loads_scipy_only_for_its_matrix(child_env):
    blob = pickle.dumps(fock.tetrad_component(fock.FockSpace(2), "x1"))
    code = f"import pickle\nop = pickle.loads({blob!r})\nop.nnz, op.triplets()"
    assert "scipy" not in _loaded(code, child_env)
    assert "scipy" in _loaded(f"{code}\nop.matrix", child_env)


def _top_level_imports(argv, route, child_env):
    """Top-level packages the interpreter imported running the CLI with argv,
    as `python -m urtetrad` or through cli.main, read from -X importtime."""
    if route == "-m":
        cmd = ["-m", "urtetrad", *argv]
    else:
        cmd = ["-c", f"import sys; from urtetrad import cli; sys.exit(cli.main({argv!r}))"]
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *cmd],
        capture_output=True, text=True, timeout=120, env=child_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("\n") >= 1
    lines = [ln for ln in proc.stderr.splitlines() if ln.startswith("import time:")]
    return {ln.rsplit("|", 1)[1].strip().split(".")[0] for ln in lines}


# a scale small enough that cutoff 0 keeps the state
EXPECT = ["--expect-coherent", "0.6", "0", "0", "-0.8", "0.3", "5e-5"]


@pytest.mark.parametrize("route", ["-m", "main"])
@pytest.mark.parametrize(
    "argv, absent, present",
    [
        (["cosmos", "--r0", "1", "--c", "1", "--epoch", "2"], "numpy", "urtetrad"),
        (["--help"], "numpy", "argparse"),
        (["verify", "--help"], "numpy", "argparse"),
        (["fock", "--cutoff", "0", "--op", "z1", *EXPECT], "scipy", "numpy"),
        (["fock", "--cutoff", "0", "--op", "tau", "2", "3", *EXPECT], "scipy", "numpy"),
        (["fock", "--cutoff", "30", "--op", "z1", *EXPECT], "scipy", "numpy"),
        (["fock", "--cutoff", "30", "--op", "tau", "2", "3", *EXPECT], "scipy", "numpy"),
        (["fock", "--cutoff", "1", "--op", "tau", "2", "3", "--matrix"], "scipy", "numpy"),
        (["fock", "--cutoff", "1", "--op", "z1", "--matrix"], "scipy", "numpy"),
    ],
    ids=["cosmos", "help", "verify-help", "expect-0-z1", "expect-0-tau", "expect-30-z1",
         "expect-30-tau", "matrix", "matrix-z1"],
)
def test_each_cli_path_loads_only_what_it_uses(argv, absent, present, route, child_env):
    loaded = _top_level_imports(argv, route, child_env)
    assert present in loaded
    assert absent not in loaded


def test_the_package_resolves_its_names_on_first_use(child_env):
    probe = (
        "import sys, urtetrad\n"
        "before = set(sys.modules)\n"
        "try:\n"
        "    urtetrad.nope\n"
        "except AttributeError:\n"
        "    pass\n"
        "assert set(sys.modules) == before, set(sys.modules) - before\n"
        "from urtetrad import cli"
    )
    loaded = _loaded(probe, child_env)
    assert "urtetrad.cli" in loaded
    assert "numpy" not in loaded and "urtetrad.spinor" not in loaded


def test_the_package_exports_each_module_name_once():
    names = [name for names in EXPORTED.values() for name in names]
    assert len(names) == len(set(names)) == 53
    assert sorted(urtetrad.__all__) == sorted(names)
    for module, exported in EXPORTED.items():
        for name in exported:
            namespace = {}
            exec(f"from urtetrad import {name}", namespace)
            assert getattr(urtetrad, name) is namespace[name] is getattr(module, name)
    with pytest.raises(AttributeError, match="nope"):
        urtetrad.nope
