"""scipy is loaded by the code paths that build a sparse operator and by no
other: the package import, the spinor and tetrad layers and the light
subcommands need only numpy.  Each case runs in a fresh interpreter."""

import subprocess
import sys

import pytest

CLI = "from urtetrad import cli; cli.main({!r})"


@pytest.mark.parametrize(
    "code, loads_scipy",
    [
        ("import urtetrad", False),
        (CLI.format(["cosmos", "--r0", "1", "--c", "1", "--epoch", "2"]), False),
        (CLI.format(["tetrad", "--quat", "1", "0", "0", "0", "--real"]), False),
        ("from urtetrad.fock import FockSpace, operator_tetrad; operator_tetrad(FockSpace(1))", True),
    ],
    ids=["import", "cli-cosmos", "cli-tetrad", "operator_tetrad"],
)
def test_scipy_loaded_only_by_operator_builds(code, loads_scipy, child_env):
    probe = f"{code}\nimport sys\nprint('scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str(loads_scipy)


def test_moments_and_coherent_states_load_no_scipy(child_env):
    code = (
        "import numpy as np\n"
        "from urtetrad.fock import BispinorAmplitudes, FockSpace, coherent_state\n"
        "space = FockSpace(4)\n"
        "space.moments(coherent_state(space, BispinorAmplitudes(1, 0, 0, 1), 0.1))\n"
        "import sys\n"
        "print('scipy' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=child_env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
