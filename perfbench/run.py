"""shapelab benchmark: fresh-process CLI runs of a seeded workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the directory above this file, and the
program under test is its ``src/shapelab``.  Outputs go under
``.perfbench/`` in the checkout.

``--trace 0`` alternates fresh-process set-up probes and fresh-process
``shapelab run --config <workload>`` invocations for about S seconds (at
least three runs) and reports the end-to-end metrics:

* ``cpu_s``: user plus system CPU time of one run, launch to exit, as the
  mean of the run's samples without the lowest and the highest;
* ``setup_s``: user plus system CPU time of a process that imports
  shapelab and resolves the config into its case list, with no case run,
  as a median;
* ``peak_rss_mb``: median peak resident memory of one run;
* ``min_headroom_decades``: smallest ``log10(tol/err)`` over the cases
  (``log10(err/tol)`` for the convergence-slope cases judged ``>=``).

The times are CPU times, not wall times.  The run is single-threaded
(workers 1, one BLAS thread), so its CPU time is the wall time a user waits
less the time the host gives to other tenants; on a shared host that share
changes from minute to minute and made wall-time medians of the same code
spread by a third between runs.  The wall times are printed with the
samples, and ``--trace 1`` reports the untraced wall median.

``--trace 1`` makes untraced runs for about S/2 seconds, then one run with
every layer wrapped (see ``spans.py``), and reports the per-layer metrics,
the tracing overhead and the share of the run no layer span covers.

Every run is checked: exit code 0, every case passes, and ``report.json`` is
byte-identical to the first run's.  A case fails when it misses its
tolerance, raises, or its report entry differs from the first run's.  Each
case's ``err`` and headroom are printed, one line per case, before the
result, which is the last line of standard output as one JSON object.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

MIN_RUNS = 3
SETUPS_PER_RUN = 1
CHILD_TIMEOUT_S = 150.0
# Stop starting runs once this much time has gone, so the whole benchmark
# exits well inside its 180 s limit.
HARD_BUDGET_S = 120.0
# BLAS and OpenMP threads of every child (at most nproc).  On a two-core
# x86_64 VM one thread built the default 384x192 annulus solver in 9.3 ms and
# solved in 4.8 ms, against 14.6 ms and 6.7 ms with two; the registry took
# 6.6-8.3 s against 8.3-10.6 s.  Workers stay at 1.
THREADS = "1"

CLI = "import sys; from shapelab.cli import main; sys.exit(main())"


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), PERFBENCH_SRC=str(SRC),
                PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS=THREADS,
                OMP_NUM_THREADS=THREADS, MKL_NUM_THREADS=THREADS)


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str


def run_child(argv: list[str], log: Path, env: dict) -> Child:
    """Run one child to its end; wall and CPU time, peak RSS."""
    with open(log, "w") as out, open(log.with_suffix(".err"), "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, log.read_text())


def case_headroom(case: dict) -> float:
    """log10(tol/err), or log10(err/tol) for ``>=`` cases, in [-99, 300]."""
    err, tol = float(case["err"]), float(case["tolerance"])
    if not math.isfinite(err):
        return -99.0
    err = max(err, 1e-300)
    value = math.log10(err / tol) if case["mode"] == "ge" else math.log10(tol / err)
    return min(300.0, max(-99.0, value))


@dataclass
class Check:
    """Correctness bookkeeping over every run of one config and seed."""

    expected: int
    first_bytes: bytes | None = None
    first_cases: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def run(self, code: int, out_dir: Path) -> None:
        self.attempted += self.expected
        path = out_dir / "report.json"
        if code != 0:
            self.problems.append(f"exit code {code}")
        if not path.exists():
            self.failed += self.expected
            self.problems.append("no report.json")
            return
        raw = path.read_bytes()
        cases = {c["case_id"]: c for c in json.loads(raw)["cases"]}
        if self.first_bytes is None:
            self.first_bytes, self.first_cases = raw, cases
        elif raw != self.first_bytes:
            self.problems.append("report.json differs from the first run's")
        if len(cases) != self.expected:
            self.problems.append(f"{len(cases)} cases reported, {self.expected} resolved")
        bad = [cid for cid, c in cases.items()
               if not c["passed"] or c["error"] or c != self.first_cases.get(cid)]
        self.failed += len(bad) + max(0, self.expected - len(cases))
        self.problems += [f"case {cid} failed" for cid in bad]

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and not self.problems


class Bench:
    def __init__(self, workdir: Path, cfg: dict):
        self.workdir = workdir
        self.env = child_env()
        self.config = workdir / "config.json"
        self.config.write_text(workloads.dumps(cfg))
        self.runs = 0
        # Unmeasured first probe: fills the bytecode cache, gives the count.
        first = self._setup_child()
        if first.code != 0 or not first.stdout.strip():
            raise SystemExit(f"set-up probe failed with exit code {first.code}:\n"
                             + (workdir / "setup.err").read_text())
        self.check = Check(int(first.stdout.split()[-1]))

    def _setup_child(self) -> Child:
        return run_child([sys.executable, str(HERE / "probe.py"), "setup", str(self.config)],
                         self.workdir / "setup.log", self.env)

    def setup(self) -> Child:
        child = self._setup_child()
        if child.code != 0 or child.stdout.split()[-1:] != [str(self.check.expected)]:
            self.check.problems.append(f"set-up probe: exit {child.code}, output {child.stdout!r}")
        return child

    def cli(self, traced: bool = False) -> Child:
        out_dir = self.workdir / f"run-{self.runs}"
        if traced:
            argv = [sys.executable, str(HERE / "probe.py"), "trace", str(self.config),
                    str(out_dir), str(self.workdir / "spans.json")]
        else:
            argv = [sys.executable, "-c", CLI, "run", "--config", str(self.config),
                    "--out-dir", str(out_dir)]
        child = run_child(argv, self.workdir / f"run-{self.runs}.log", self.env)
        self.check.run(child.code, out_dir)
        if self.runs:
            shutil.rmtree(out_dir, ignore_errors=True)
        self.runs += 1
        return child


def _keep_going(start: float, n: int, budget: float, min_runs: int) -> bool:
    """Start another run while that ends nearer to ``budget`` than stopping."""
    elapsed = time.perf_counter() - start
    per_run = elapsed / max(n, 1)
    if n and elapsed + per_run > HARD_BUDGET_S:
        return False
    return n < min_runs or elapsed + 0.5 * per_run < budget


def trimmed_mean(values: list[float]) -> float:
    """Mean without the lowest and the highest value, once there are four.

    A fresh process runs on whichever vCPU it lands on, and on a shared host
    the two can differ in speed by a quarter for seconds at a time, so the
    run times of one run fall into two groups; a median of four or five of
    them jumps from one group to the other, a trimmed mean does not.
    """
    kept = sorted(values)[1:-1] if len(values) >= 4 else values
    return statistics.fmean(kept)


def measure_end_to_end(bench: Bench, seconds: float) -> dict:
    setups, runs = [], []
    start = time.perf_counter()
    while _keep_going(start, len(runs), seconds, MIN_RUNS):
        setups += [bench.setup() for _ in range(SETUPS_PER_RUN)]
        runs.append(bench.cli())
    headrooms = [case_headroom(c) for c in bench.check.first_cases.values()]
    median = statistics.median
    samples = {
        "cpu_s": ([r.cpu_s for r in runs], "s", trimmed_mean),
        "setup_s": ([s.cpu_s for s in setups], "s", median),
        "peak_rss_mb": ([r.rss_mb for r in runs], "MB", median),
        "min_headroom_decades": ([min(headrooms, default=-99.0)], "decades", median),
    }
    walls = {"run_wall_s": ([r.wall_s for r in runs], "s", median),
             "setup_wall_s": ([s.wall_s for s in setups], "s", median)}
    for name, (values, unit, stat) in {**samples, **walls}.items():
        print(f"samples {name} n={len(values)} {stat.__name__}={stat(values):.6g} "
              f"{unit} all=" + ",".join(f"{v:.4g}" for v in values))
    return {name: {"value": stat(values), "unit": unit}
            for name, (values, unit, stat) in samples.items()}


def measure_layers(bench: Bench, seconds: float) -> dict:
    walls = []
    start = time.perf_counter()
    while _keep_going(start, len(walls), seconds / 2.0, 2):
        walls.append(bench.cli().wall_s)
    traced = bench.cli(traced=True)
    data = json.loads((bench.workdir / "spans.json").read_text())
    recorded = [spans.Span.from_list(row) for row in data["spans"]]
    metrics = spans.layer_metrics(recorded, data["import_s"])
    untraced = statistics.median(walls)
    metrics.update({"trace.wall_s": traced.wall_s, "trace.untraced_wall_s": untraced,
                    "trace.overhead_s": traced.wall_s - untraced})
    if data["missing"]:
        print("untraced targets (absent in this version): " + ", ".join(data["missing"]))
    own = spans.bucket_self_times(recorded)
    total = sum(own.values())
    for bucket, value in sorted(own.items(), key=lambda kv: -kv[1]):
        print(f"self-time {bucket:32s} {value:9.4f} s  {value / total:6.1%}")
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in spans.LAYER_UNITS.items()}


def machine_facts() -> dict:
    import numpy as np

    def blas(config) -> str:
        try:
            deps = config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{deps.get('name')} {deps.get('version')}"
        except Exception as exc:  # facts are informational; never fail on them
            return f"unknown ({type(exc).__name__})"

    import scipy
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            **{pkg: importlib.metadata.version(pkg) for pkg in ("numpy", "scipy", "sympy")},
            "blas_numpy": blas(np.show_config), "blas_scipy": blas(scipy.show_config),
            "blas_threads": THREADS, "workers": 1}


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              workdir: Path, cfg: dict | None = None) -> dict:
    """Measure one workload; ``cfg`` replaces the generated config (tests)."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    machine = machine_facts()
    print("machine " + json.dumps(machine, sort_keys=True))
    bench = Bench(workdir, cfg if cfg is not None else workloads.generate(workload, seed))
    metrics = measure_layers(bench, seconds) if trace else measure_end_to_end(bench, seconds)
    for cid, case in sorted(bench.check.first_cases.items()):
        print(f"case {cid} err={float(case['err']):.6e} tol={case['tolerance']:g} "
              f"mode={case['mode']} headroom={case_headroom(case):.4f}")
    for problem in bench.check.problems:
        print(f"problem: {problem}")
    print(f"cases attempted={bench.check.attempted} failed={bench.check.failed} "
          f"failed_share={bench.check.failed / max(bench.check.attempted, 1):.4f}")
    result = {"correct": bench.check.correct, "attempted": bench.check.attempted,
              "failed": bench.check.failed, "metrics": metrics}
    (workdir / "result.json").write_text(json.dumps(
        {**result, "workload": workload, "seed": seed, "machine": machine,
         "cases": {cid: {"err": c["err"], "headroom_decades": case_headroom(c)}
                   for cid, c in sorted(bench.check.first_cases.items())}},
        indent=1, sort_keys=True))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "shapelab" / "cli.py").is_file():
        print(f"no shapelab sources under {SRC}", file=sys.stderr)
        return 2
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
