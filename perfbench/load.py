"""Load urtetrad's spinor and fock modules from src/ without the package
``__init__``.

The package ``__init__`` imports every module, tetrad and cli among them,
and on Python 3.11 tetrad.py raises at class definition (a dataclass with
an ndarray default).  spinor.py and fock.py do not need tetrad, so the
benchmark registers an empty ``urtetrad`` package whose search path is
src/urtetrad and imports the two modules through it.  Their code runs
unchanged, relative imports included.  The same loader is used at every
commit, so set-up time compares like with like.

As a script it is the set-up probe: it loads the modules in this fresh
interpreter and prints the seconds the load took.

    python3 perfbench/load.py
"""

import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_DIR = ROOT / "src" / "urtetrad"
MODULES = ("spinor", "fock")


def load():
    """Import urtetrad.spinor and urtetrad.fock; return them as a dict."""
    if "urtetrad" not in sys.modules:
        package = types.ModuleType("urtetrad")
        package.__path__ = [str(PACKAGE_DIR)]
        sys.modules["urtetrad"] = package
    modules = {}
    for name in MODULES:
        # the import statement, unlike importlib.import_module, shows in
        # the -X importtime report that the traced run reads
        __import__(f"urtetrad.{name}")
        modules[name] = sys.modules[f"urtetrad.{name}"]
    return modules


if __name__ == "__main__":
    start = time.perf_counter()
    load()
    print(time.perf_counter() - start)
