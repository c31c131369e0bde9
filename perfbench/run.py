"""incutime benchmark: one workload through the CLI entry point, timed and checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it benchmarks the checkout it sits in (``<root>/src`` goes
first on the path, and a run whose ``incutime`` resolves elsewhere stops).
Set-up draws the inputs from ``--seed`` and fits them once for the output
checks; then ops run back to back (one client, closed loop) for S seconds.
Every op's output is checked outside the timed region.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced ops and reports the per-module
metrics (medians over traced ops) plus the tracing overhead.

Lines starting with ``#`` describe the run for people; the last line is the
JSON result.
"""

import os

# Pin BLAS and OpenMP pools before numpy loads; subprocess ops inherit these.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The acceptance suite's Weibull truth and exposure windows.
TRUTH = {"a": 3.035, "b": 0.0026, "m1": 15}
M2 = 15
POINTS = range(1, 16)
# Set up again until this much set-up time has passed (at least MIN_SETUPS
# times) and report the median, so setup_s rests on several samples.
SETUP_SECONDS = 5.0
MIN_SETUPS = 3
TAIL_OPS = 10  # ops beyond the reported tail percentile
MIN_OPS = TAIL_OPS + 1
OP_TIMEOUT_S = 120


@dataclass(frozen=True)
class Workload:
    mode: str
    n: int
    args: tuple  # CLI arguments besides --data, --out and --seed
    fits_per_op: int  # point fit plus replicate refits
    cold: bool = False  # a new process per op instead of an in-process call

    @property
    def command(self) -> str:
        return self.args[0]

    @property
    def seeded(self) -> bool:
        return "--b" in self.args


POINT_ARGS = ("--m1", "15", "--points", "1:15")

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "boot-single-n1k": Workload(
        "single", 1000,
        ("ci", "--mode", "single", "--method", "bootstrap", "--b", "50", *POINT_ARGS),
        51,
    ),
    "fisher-double-n1k": Workload(
        "double", 1000,
        ("ci", "--mode", "double", "--method", "wald", "--fisher-averaged",
         "--b", "50", *POINT_ARGS),
        51,
    ),
    "wald-double-n100k": Workload(
        "double", 100_000, ("ci", "--mode", "double", "--method", "wald", *POINT_ARGS), 1
    ),
    "cold-fit-single-n1k": Workload(
        "single", 1000, ("fit", "--mode", "single", "--m1", "15"), 1, cold=True
    ),
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def import_checkout():
    """Import incutime from <root>/src, refusing any other copy."""
    if not (SRC / "incutime" / "__init__.py").is_file():
        fail(f"no incutime sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import incutime

    if Path(incutime.__file__).resolve().parent != SRC / "incutime":
        fail(f"incutime resolves to {incutime.__file__}, not to {SRC}")


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def check_subprocess_path(env) -> None:
    out = subprocess.run(
        [sys.executable, "-c", "import incutime; print(incutime.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=OP_TIMEOUT_S,
    )
    if out.returncode != 0 or Path(out.stdout.strip()).resolve().parent != SRC / "incutime":
        fail(f"subprocess incutime resolves to {out.stdout.strip() or out.stderr}")


def yardstick() -> float:
    """Seconds for a fixed Python and BLAS kernel that does not touch incutime."""
    import numpy as np

    start = perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    a = np.full((150, 150), 1.0 / 150)
    for _ in range(20):
        a = a @ a
    return perf_counter() - start


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


class Bench:
    """Inputs, op runner and output checks of one workload."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.data_path = workdir / "data.csv"
        self.out_path = workdir / "out.csv"
        self.report_path = workdir / "trace.json"
        self.env = subprocess_env()
        w = self.workload
        self.argv = [*w.args, "--data", str(self.data_path), "--out", str(self.out_path)]
        if w.seeded:
            self.argv += ["--seed", str(seed)]
        self.expected = None
        self.expected_error = "no reference output"

    def setup(self) -> float:
        """Draw and write the inputs, fit them for the checks, run one warm-up op."""
        from incutime import cli
        from incutime.model import candidate_grid, cdf_from_mass
        from incutime.simulate import ExposureSpec, TruthSpec, draw_doubly, draw_singly
        from incutime.solver import fit_npmle

        start = perf_counter()
        w = self.workload
        truth = TruthSpec("weibull", **TRUTH)
        draw = draw_singly if w.mode == "single" else draw_doubly
        data = draw(w.n, truth, ExposureSpec(m2=M2), self.seed)
        cli.write_dataset_csv(str(self.data_path), data)
        grid = candidate_grid(data, TRUTH["m1"])
        mass, _ = fit_npmle(data, grid)
        self.data = data
        self.grid_days = grid.points
        self.masses = mass.as_vector(grid)
        fhat = cdf_from_mass(mass, grid)
        self.fbar = {d: fhat.value(d) for d in POINTS}
        self.op()
        return perf_counter() - start

    def patterns(self):
        """Distinct input records and their counts."""
        import checks

        d = self.data
        columns = [d.e, d.s] if self.workload.mode == "single" else [d.e, d.s_l, d.s_r]
        return checks.patterns(columns)

    def inputs(self) -> dict:
        rows, _ = self.patterns()
        return {
            "workload": self.name,
            "mode": self.workload.mode,
            "n": self.data.n,
            "m": int(self.grid_days.size),
            "distinct_records": int(rows.shape[0]),
            "redundant_share": 1.0 - rows.shape[0] / self.data.n,
        }

    def check_reference(self) -> None:
        """Check the set-up fit; the warm-up output becomes every op's expected bytes."""
        import checks

        rows, counts = self.patterns()
        mode = self.workload.mode
        error = checks.certificate_error(mode, rows, counts, self.grid_days, self.masses)
        try:
            text = self.out_path.read_text()
        except OSError as exc:
            text, error = None, error or f"no warm-up output: {exc}"
        if error is None and self.workload.command == "fit":
            error = checks.fit_error(text, mode, rows, counts, self.grid_days)
        elif error is None:
            method = "bootstrap" if "bootstrap" in self.workload.args else "wald"
            error = checks.ci_error(text, method, self.fbar, POINTS)
        self.expected, self.expected_error = text, error

    def op(self, tracer=None):
        """Run one op; returns (seconds, ok, per-op trace metrics or None)."""
        if self.out_path.exists():
            self.out_path.unlink()
        run = self._cold_op if self.workload.cold else self._inprocess_op
        seconds, ok, metrics = run(tracer)
        return seconds, ok and self._output_ok(), metrics

    def _inprocess_op(self, tracer):
        from incutime.cli import main

        start = perf_counter()
        try:
            rc = main(self.argv) if tracer is None else tracer.run_op(main, self.argv)
        except Exception:
            # an escaped exception is a failed op; keep measuring the rest
            traceback.print_exc()
            rc = None
        seconds = perf_counter() - start
        return seconds, rc == 0, (tracer.op_metrics() if tracer is not None else None)

    def _cold_op(self, tracer):
        if tracer is None:
            cmd = [sys.executable, "-m", "incutime.cli", *self.argv]
        else:
            cmd = [sys.executable, "-X", "importtime", str(HERE / "child.py"),
                   str(self.report_path), *self.argv]
        start = perf_counter()
        try:
            out = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=OP_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return perf_counter() - start, False, None
        seconds = perf_counter() - start
        if out.returncode != 0:
            sys.stderr.write(out.stderr[-2000:])
            return seconds, False, None
        if tracer is None:
            return seconds, True, None
        report = json.loads(self.report_path.read_text())
        tracer.missing = report["missing"]
        return seconds, True, {**report["metrics"], **import_metrics(out.stderr)}

    def _output_ok(self) -> bool:
        try:
            text = self.out_path.read_text()
        except OSError:
            return False
        return self.expected_error is None and text == self.expected


def import_metrics(stderr: str) -> dict:
    """Cumulative import seconds from ``python -X importtime`` output."""
    incutime_us = 0
    found = {}
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        cumulative, name = int(fields[1]), fields[2][1:]
        # depth-0 names start unindented; nested imports are counted in them
        if name.startswith("incutime"):
            incutime_us += cumulative
        found.setdefault(name.strip(), cumulative)
    return {
        "import.incutime_s": incutime_us / 1e6,
        "import.scipy_linalg_s": found.get("scipy.linalg", 0) / 1e6,
        "import.scipy_integrate_s": found.get("scipy.integrate", 0) / 1e6,
    }


def measure(bench: Bench, seconds: float, tracer=None):
    """Closed loop for ``seconds``; alternates untraced and traced ops if traced."""
    times = {False: [], True: []}
    per_op = []
    attempted = failed = 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(times[tracer is not None]) < MIN_OPS:
        traced = tracer is not None and attempted % 2 == 1
        if traced:
            with tracer:
                elapsed, ok, metrics = bench.op(tracer)
        else:
            elapsed, ok, metrics = bench.op()
        attempted += 1
        failed += not ok
        times[traced].append(elapsed)
        if metrics is not None:
            per_op.append(metrics)
    return times[False], times[True], per_op, attempted, failed


def end_to_end(bench, times, setup_times) -> tuple[dict, list]:
    w = bench.workload
    ordered = sorted(times)
    n = len(ordered)
    who = resource.RUSAGE_CHILDREN if w.cold else resource.RUSAGE_SELF
    values = {
        "op_p50_s": statistics.median(ordered),
        "refits_per_s": w.fits_per_op * n / sum(ordered),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }
    # Too few ops fit in a run for a real tail on the slower workloads, and
    # it drifts most with the machine, so it is reported here, not gated.
    notes = [
        f"op_tail_s = {ordered[n - TAIL_OPS - 1]} s: p{100 * (n - TAIL_OPS) / n:.1f} "
        f"of {n} ops ({TAIL_OPS} beyond it)",
        f"refits_per_s counts {w.fits_per_op} fits per op",
        f"setup_s is the median of {len(setup_times)} set-ups: {setup_times}",
    ]
    return values, notes


def per_layer(bench, untraced, traced, per_op, tracer) -> tuple[dict, dict]:
    import tracer as tracing

    values = tracing.median_metrics(per_op)
    absent = tracing.absent_metrics(tracer.missing)
    if not bench.workload.cold:
        for key in ("import.incutime_s", "import.scipy_linalg_s", "import.scipy_integrate_s"):
            values[key] = 0.0
            absent[key] = "imports are paid once per process; see cold-fit-single-n1k"
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return values, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    spec = load_spec()
    import_checkout()
    bench_env = environment(args.seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        bench = Bench(args.workload, args.seed, Path(workdir))
        if bench.workload.cold:
            check_subprocess_path(bench.env)
        setup_times = []
        while len(setup_times) < MIN_SETUPS or sum(setup_times) < SETUP_SECONDS:
            setup_times.append(bench.setup())
        bench.check_reference()
        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
        yard_start = yardstick()
        untraced, traced, per_op, attempted, failed = measure(bench, args.seconds, tracer)
        bench_env["yardstick_s"] = [yard_start, yardstick()]
        print("# env " + json.dumps(bench_env))
        print("# input " + json.dumps(bench.inputs()))
        if bench.expected_error:
            print(f"# check failed: {bench.expected_error}")
        print(f"# failed_ops {failed / attempted} share ({failed} of {attempted} ops)")

        if args.trace:
            values, absent = per_layer(bench, untraced, traced, per_op, tracer)
            declared = spec["per_layer"]
            if tracer.missing:
                print("# not wrapped (no longer in the code): " + ", ".join(tracer.missing))
            for key, reason in sorted(absent.items()):
                print(f"# absent {key}: {reason}")
        else:
            values, notes = end_to_end(bench, untraced, setup_times)
            declared = spec["end_to_end"]
            for note in notes:
                print(f"# {note}")
    metrics = {}
    for metric in declared:
        name = metric["name"]
        if name not in values:
            fail(f"metric {name} is declared in BENCHMARK.json but not computed")
        metrics[name] = {"value": values[name], "unit": metric["unit"]}
        print(f"# {name} = {values[name]} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0 and bench.expected_error is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
