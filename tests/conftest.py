import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def child_env():
    """Environment for a child interpreter that imports urtetrad from src.

    pytest's pythonpath setting reaches only its own process, so a checkout
    that has not installed the package passes src on to children here.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return env
