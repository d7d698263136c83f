"""The runner against the package, a broken package and no package."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH = Path(__file__).resolve().parents[1]
SOURCE = BENCH.parent / "src" / "urtetrad"
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _checkout(tmp_path, edit=None):
    """A checkout holding the benchmark and, unless edit is False, a copy
    of the package; edit(package_dir) may then break the copy."""
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("tests", "__pycache__"))
    if edit is not False:
        shutil.copytree(SOURCE, tmp_path / "src" / "urtetrad", ignore=shutil.ignore_patterns("__pycache__"))
        if edit:
            edit(tmp_path / "src" / "urtetrad")
    return tmp_path


def _run(root, workload, trace):
    argv = [sys.executable, f"{BENCH.name}/run.py", "--workload", workload,
            "--seed", "3", "--seconds", "0.5", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines else None)


def _replace(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_package_passes_every_check(tmp_path, workload):
    proc, result = _run(_checkout(tmp_path), workload, trace=0)
    assert proc.returncode == 0, proc.stdout
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= run.SETUP_PROBES + 2
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer(tmp_path):
    proc, result = _run(_checkout(tmp_path), "point_sweep", trace=1)
    assert proc.returncode == 0, proc.stdout
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(v is not None for v in metrics.values())
    assert metrics["fock.operator_tetrad.calls"] >= 1
    assert metrics["fock.expectation.calls"] == 16 * metrics["fock.coherent_state.calls"]
    assert metrics["ops_failed_share"] == 0.0


def test_unloadable_package_fails_without_metrics(tmp_path):
    root = _checkout(tmp_path, lambda pkg: (pkg / "spinor.py").write_text("raise ValueError('broken on import')\n"))
    proc, result = _run(root, "point_sweep", trace=0)
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["attempted"] == result["failed"] == 1
    report = json.loads(proc.stdout.strip().splitlines()[-2])
    assert "broken on import" in report["first_failures"][0]
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]] == {"value": None, "unit": metric["unit"]}


def test_wrong_expectation_is_counted(tmp_path):
    root = _checkout(tmp_path, lambda pkg: _replace(
        pkg / "fock.py", "return complex(np.vdot(state, op @ state))",
        "return complex(np.vdot(state, op @ state)) + 1e-5"))
    proc, result = _run(root, "point_sweep", trace=0)
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] == 1
    report = json.loads(proc.stdout.strip().splitlines()[-2])
    assert "classical limit" in report["first_failures"][0]


def test_non_hermitian_operator_is_counted(tmp_path):
    root = _checkout(tmp_path, lambda pkg: _replace(
        pkg / "fock.py", '"z2": ((0.5j, 1, 2), (-0.5j, 2, 1)', '"z2": ((0.5j, 1, 2), (0.5j, 2, 1)'))
    proc, result = _run(root, "point_sweep", trace=0)
    assert proc.returncode == 1
    assert result["failed"] == 1
    report = json.loads(proc.stdout.strip().splitlines()[-2])
    assert "z2 not Hermitian" in report["first_failures"][0]


def test_no_package_source_exits_without_result(tmp_path):
    proc, result = _run(_checkout(tmp_path, edit=False), "point_sweep", trace=0)
    assert proc.returncode == 2
    assert result is None


def test_import_breakdown_sums_self_time_per_package():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy._core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |       numpy.linalg",
        "import time:       400 |        450 |     scipy._lib",
        "import time:       100 |        550 |   scipy",
        "import time:        30 |         30 |   math",
        "import time:        70 |        950 | urtetrad.fock",
    ])
    layers = run.import_breakdown(report)
    assert layers["numpy_s"] == pytest.approx(350e-6)
    assert layers["scipy_s"] == pytest.approx(500e-6)
    assert layers["urtetrad_self_s"] == pytest.approx(70e-6)


def test_workloads_match_the_spec():
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])
    assert run.END_TO_END_UNITS == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
