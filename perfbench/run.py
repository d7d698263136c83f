"""Benchmark of urtetrad's spinor and Fock layers: seeded points through
the chain and operator-tetrad builds.

Usage (from the root of a checkout, package sources in src/):

    python3 perfbench/run.py --workload point_sweep --seed 1 --seconds 50 --trace 0

One closed-loop client in one process.  The run loads the package
modules (load.py) and repeats cycles until --seconds have passed.  Spread
evenly over the run, it starts SETUP_PROBES fresh interpreters, one at a
time, that each load the modules and report how long that took.  A cycle
builds ``FockSpace(cutoff)`` and ``operator_tetrad`` and then takes the
workload's number of seeded points through the chain: quaternion point,
group element and chart round trip, dyad and its contractions, bispinor
amplitudes, truncated coherent state and the expectations of all 16
operator-tetrad components.

Every output is checked against oracle.py, which shares no code with the
package.  The last stdout line is the result: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
The line before it carries the environment, the sample counts and the
first failures.  A run stops at its first failure; a metric with no
correct sample is null, never zero.  Exit status: 0 when every output was
correct, 1 when any operation failed, 2 when there is no package source.
"""

import os

# Set before numpy loads, here and in every child.  With its default pool
# OpenBLAS made some processes' first second of large vdot calls about 20
# times slower; one thread keeps every run single-threaded.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import load  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PYTHON = sys.executable

SETUP_PROBES = 9
CHILD_TIMEOUT_S = 60.0
TAIL_BEYOND = 10
# phases are drawn below 2 pi, so the package keeps them as given
PHASE_MAX = 6.0

WORKLOADS = {
    # Many points on the 70-dimensional space of cutoff 4: spinor calls,
    # dataclass construction and the per-call cost of small expectations
    # dominate; the build is a small share.
    "point_sweep": {"cutoff": 4, "scale": 0.1, "points": 256},
    # Cutoff 30, dimension 46376: basis enumeration, the ladder loops and
    # tau composition dominate; expectations run on few states of a large
    # space, so a batching choice that helps point_sweep can hurt here.
    "fock_large": {"cutoff": 30, "scale": 0.5, "points": 64},
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "build_s": "s",
    "point_ms": "ms",
    "peak_rss_mb": "MB",
}

def check_operator_tetrad(space, tetrad, cutoff, totals):
    """Dimension, component order, shells, Hermiticity, zero operators and
    the t0 diagonal, against the oracle's own basis (totals, as an array)."""
    dim = oracle.fock_dimension(cutoff)
    if space.dimension != dim:
        return f"dimension {space.dimension} at cutoff {cutoff}, expected {dim}"
    comps = list(tetrad.components())
    if tuple(label for label, _ in comps) != oracle.TETRAD_LABELS:
        return "operator tetrad components out of (t, z, x, y) order"
    for label, op in comps:
        mat = op.matrix
        coo = mat.tocoo()
        if label not in oracle.COMPONENTS:
            if coo.nnz:
                return f"{label} should be the zero operator"
            continue
        if (totals[coo.row] != totals[coo.col]).any():
            return f"{label} leaves its total-quanta shell"
        diff = mat - mat.conj().T
        dev = float(abs(diff.data).max()) if diff.nnz else 0.0
        if not dev <= oracle.ALGEBRAIC_TOL:
            return f"{label} not Hermitian by {dev:.3e}"
        if label == "t0":
            exact = (
                coo.nnz == dim
                and (coo.row == coo.col).all()
                and (coo.data[np.argsort(coo.row)] == totals + 2).all()
            )
            if not exact:
                return "t0 is not diag(total quanta + 2) exactly"
    return None


def tetrad_storage(tetrad):
    """Stored entries and computed CSR bytes over the distinct components."""
    distinct = {id(op): op for _, op in tetrad.components()}.values()
    nnz = sum(op.nnz for op in distinct)
    nbytes = sum(
        op.matrix.data.nbytes + op.matrix.indices.nbytes + op.matrix.indptr.nbytes
        for op in distinct
    )
    return nnz, nbytes


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


class Bench:
    def __init__(self, workload, seed, seconds, trace):
        self.spec = WORKLOADS[workload]
        self.seconds, self.trace = seconds, trace
        self.rng = random.Random(f"{workload}-{seed}")
        self.tracer = spans.Tracer()
        self.attempted = 0
        self.failures = []
        # (kind, traced) -> wall seconds of each correct operation; an
        # array keeps the bookkeeping small next to the peak RSS it sits in
        self.samples = {}
        self.import_layers = []
        # median point time of each untraced cycle
        self.cycle_points = []
        self.storage = None
        self.spinor = self.fock = None

    def record(self, kind, traced, wall, error):
        self.attempted += 1
        if error is None:
            self.samples.setdefault((kind, traced), array("d")).append(wall)
        else:
            self.failures.append(error)

    # ------------------------------------------------------------- setup

    def probe(self):
        """One set-up probe: a fresh interpreter times its own load."""
        argv = [PYTHON, str(BENCH / "load.py")]
        if self.trace:
            argv[1:1] = ["-X", "importtime"]
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.record("setup", False, 0.0, f"set-up probe ran past {CHILD_TIMEOUT_S} s")
            return
        try:
            if proc.returncode:
                raise ValueError(f"exit {proc.returncode}: {last_line(proc.stderr)}")
            wall = float(proc.stdout)
        except ValueError as exc:
            self.record("setup", False, 0.0, f"set-up probe failed: {exc}")
            return
        self.record("setup", False, wall, None)
        if self.trace:
            self.import_layers.append(import_breakdown(proc.stderr))

    def load(self):
        try:
            modules = load.load()
        except Exception as exc:  # whatever the package raises fails the run
            self.record("load", False, 0.0, f"load failed: {type(exc).__name__}: {exc}")
            return
        self.spinor, self.fock = modules["spinor"], modules["fock"]

    # ------------------------------------------------------------ cycles

    def run(self):
        self.probe()
        if not self.failures:
            self.load()
        cutoff, scale = self.spec["cutoff"], self.spec["scale"]
        oracle.admit_coherent(scale, cutoff)
        totals = np.array(oracle.fock_totals(cutoff))
        start = time.perf_counter()
        deadline = start + self.seconds
        # The machine's speed drifts over tens of seconds, so the other
        # set-up probes are spread evenly over the cycles, like every
        # other sample.
        rest = SETUP_PROBES - 1
        probes_due = [start + (i + 0.5) * self.seconds / rest for i in range(rest)]
        while not self.failures and time.perf_counter() < deadline:
            while not self.failures and probes_due and time.perf_counter() >= probes_due[0]:
                probes_due.pop(0)
                self.probe()
            points = [(oracle.unit_quaternion(self.rng), self.rng.uniform(0.0, PHASE_MAX))
                      for _ in range(self.spec["points"])]
            for traced in (False, True) if self.trace else (False,):
                if self.failures:
                    break
                if traced:
                    self.tracer.install()
                try:
                    self.cycle(points, traced, totals)
                finally:
                    self.tracer.uninstall()
                    self.tracer.summary()
        # probes not yet due when the last cycle ended
        for _ in probes_due:
            if not self.failures:
                self.probe()

    def cycle(self, points, traced, totals):
        cutoff = self.spec["cutoff"]
        built = self.attempt("build", traced, lambda: self.build(cutoff),
                             lambda st: check_operator_tetrad(*st, cutoff, totals))
        if built is None:
            return
        space, tetrad = built
        if self.trace and not traced:
            self.storage = tetrad_storage(tetrad)
        comps = list(tetrad.components())
        labels = [label for label, _ in comps]
        for q, phi in points:
            done = self.attempt("point", traced, lambda: self.point(space, comps, q, phi),
                                lambda out: self.check_point(q, phi, labels, out))
            if done is None:
                return
        if not traced:
            self.cycle_points.append(median(self.samples[("point", False)][-len(points):]))

    def attempt(self, kind, traced, op, check):
        """Run op, which returns (output, wall seconds), and check its
        output; record the operation and return the output, or None when
        it raised or the check failed."""
        try:
            output, wall = op()
        except Exception as exc:  # whatever the package raises fails this operation
            self.record(kind, traced, 0.0, f"{kind}: {type(exc).__name__}: {exc}")
            return None
        error = check(output)
        self.record(kind, traced, wall, None if error is None else f"{kind}: {error}")
        return output if error is None else None

    def build(self, cutoff):
        fock = self.fock
        start = time.perf_counter()
        space = fock.FockSpace(cutoff)
        tetrad = fock.operator_tetrad(space)
        return (space, tetrad), time.perf_counter() - start

    def point(self, space, comps, q, phi):
        spinor, fock = self.spinor, self.fock
        start = time.perf_counter()
        g = spinor.from_quaternion(spinor.QuaternionPoint(*q), phi)
        back = spinor.to_quaternion(g)
        dyad = spinor.dyad_from_element(g)
        u, v = dyad.u, dyad.v
        contractions = (spinor.contract(u, u), spinor.contract(v, v),
                        spinor.contract(v, u), spinor.contract(u, v))
        state = fock.coherent_state(space, fock.BispinorAmplitudes.from_element(g), self.spec["scale"])
        values = [fock.expectation(op, state) for _, op in comps]
        wall = time.perf_counter() - start
        return (g, back, dyad, contractions, values), wall

    def check_point(self, q, phi, labels, outputs):
        g, back, dyad, contractions, values = outputs
        a, b = oracle.pair_from_quaternion(q)
        return (
            oracle.check_chart(q, phi, (back.w, back.x, back.y, back.z), g.phi)
            or oracle.check_dyad(a, b, (dyad.u.c1, dyad.u.c2), (dyad.v.c1, dyad.v.c2), contractions)
            or oracle.check_expectations(a, b, self.spec["scale"], labels, values)
        )

    # ------------------------------------------------------------ metrics

    def walls(self, kind):
        return list(self.samples.get((kind, False), ()))

    def end_to_end(self):
        """Builds and points are averaged over the run rather than taken
        as medians: the machine runs in fast and slow spells about a run
        long, and a median snaps to whichever spell holds most samples,
        while a mean moves smoothly with the share of the run each spell
        takes.  Each cycle's points enter through their median, so a
        single stalled point does not weigh on the mean."""
        # read before sorting the point samples, whose copy grows with the
        # number of points a run makes and so with the program's speed
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        points = sorted(self.walls("point"))
        tail = points[len(points) - TAIL_BEYOND - 1] if len(points) > TAIL_BEYOND else None
        values = {
            "setup_s": median(self.walls("setup")),
            "build_s": mean(self.walls("build")),
            "point_ms": scaled(mean(self.cycle_points), 1e3),
            "peak_rss_mb": peak_rss_mb if points else None,
        }
        details = {
            "setup_samples": self.walls("setup"),
            "build_samples": self.walls("build"),
            "cycle_point_ms": [m * 1e3 for m in self.cycle_points],
            "build_median_s": median(self.walls("build")),
            "point_median_ms": scaled(median(points), 1e3),
            "builds": len(self.walls("build")),
            "points": len(points),
            "point_tail_ms": scaled(tail, 1e3),
            "point_tail_percentile": None if tail is None else 100.0 * (len(points) - TAIL_BEYOND) / len(points),
        }
        return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, details

    def per_layer(self):
        metrics = {}
        for key in ("numpy_s", "scipy_s", "urtetrad_self_s"):
            metrics[f"import.{key}"] = (median(b[key] for b in self.import_layers), "s")
        totals = self.tracer.summary()
        traced_ok = any(traced for _, traced in self.samples)
        for name in spans.NAMES:
            entry = totals.get(name, {"calls": 0, "self_s": 0.0})
            metrics[f"{name}.calls"] = (entry["calls"] if traced_ok else None, "count")
            metrics[f"{name}.self_s"] = (entry["self_s"] if traced_ok else None, "s")
        nnz, nbytes = self.storage or (None, None)
        metrics["fock.operator_tetrad.nnz"] = (nnz, "count")
        metrics["fock.operator_tetrad.bytes"] = (nbytes, "computed_bytes")
        metrics["trace.overhead_share"] = (self.overhead_share(), "share")
        metrics["ops_failed_share"] = (len(self.failures) / self.attempted, "share")
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    def overhead_share(self):
        """Extra wall time of traced cycles over their plain twins."""
        plain = sum(sum(self.samples.get((kind, False), ())) for kind in ("build", "point"))
        traced = sum(sum(self.samples.get((kind, True), ())) for kind in ("build", "point"))
        return traced / plain - 1.0 if plain and traced else None


def median(values):
    values = list(values)
    return statistics.median(values) if values else None


def mean(values):
    values = list(values)
    return statistics.fmean(values) if values else None


def scaled(value, factor):
    return None if value is None else value * factor


def last_line(text):
    lines = text.strip().splitlines()
    return lines[-1] if lines else "no output"


def import_breakdown(report):
    """Self seconds of numpy's, scipy's and urtetrad's own modules, from the
    ``-X importtime`` report of a set-up probe."""
    totals = {"numpy": 0.0, "scipy": 0.0, "urtetrad": 0.0}
    for line in report.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        top = name.strip().split(".")[0]
        if top in totals:
            totals[top] += int(self_us) * 1e-6
    return {"numpy_s": totals["numpy"], "scipy_s": totals["scipy"], "urtetrad_self_s": totals["urtetrad"]}


def package_import():
    """'ok', or the last stderr line of ``import urtetrad`` in a fresh
    interpreter; the benchmark itself does not import the package."""
    try:
        proc = subprocess.run([PYTHON, "-c", "import urtetrad"], cwd=ROOT, env=child_env(),
                              stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"ran past {CHILD_TIMEOUT_S} s"
    return "ok" if proc.returncode == 0 else last_line(proc.stderr)


def environment(seed):
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    digest = hashlib.sha256()
    for path in sorted(load.PACKAGE_DIR.rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "package_import": package_import(),
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        sha, _, refname = line.partition(" ")
        if refname == name:
            return sha
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [m for m in load.MODULES if not (load.PACKAGE_DIR / f"{m}.py").is_file()]
    if missing:
        print(f"error: no package source for {', '.join(missing)} in src/urtetrad", file=sys.stderr)
        return 2

    started = time.perf_counter()
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    bench.run()
    e2e, details = bench.end_to_end()
    metrics = bench.per_layer() if args.trace else e2e
    failures = bench.failures
    print(json.dumps({
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args.seed), "details": details,
        "elapsed_s": time.perf_counter() - started,
        "first_failures": failures[:10],
    }))
    print(json.dumps({
        "correct": not failures, "attempted": bench.attempted,
        "failed": len(failures), "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
