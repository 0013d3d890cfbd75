"""Regenerate named rows of the drift baseline ``registry_err_seed7.json``.

Runs ``shapelab run --suite all --seed 7`` under each of the ten BLAS
settings that ``test_acceptance.py`` names (one and two threads on each of
five OpenBLAS CPU kernels), one subprocess at a time.  Every run must pass.
Each setting's line gives the OpenBLAS build string and CPU core name that
the run's own LAPACK handle reports (``shapelab._linalg.OpenBLAS.build``), so
the baseline's "tested with" line is read off the runs.
Only the rows named on the command line are rewritten, each with the smaller
of its baseline and its largest err over the ten runs, so a baseline only
tightens; every other row keeps its baseline.  Every row, named or not, is
printed with its largest err as a multiple of the drift gate's reference
max(baseline, 1e-15); a row above WARN_RATIO (30x) of it is flagged, since
the gate fails at 100x.

    python tests/regen_err_baseline.py [CASE_ID ...]

With no CASE_ID it rewrites nothing and only prints.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
BASELINE = TESTS / "registry_err_seed7.json"
SRC = TESTS.parent / "src"
CORETYPES = ("SkylakeX", "Haswell", "SandyBridge", "Nehalem", "Prescott")
THREADS = (1, 2)
# test_acceptance.py's drift gate fails a row above 100 * max(baseline, FLOOR)
FLOOR = 1e-15
WARN_RATIO = 30.0
# one registry run, whose last line of output is its LAPACK library's build
RUN = ("import sys; from shapelab.cli import main; from shapelab import greens; "
       "code = main(sys.argv[1:]); "
       "print(getattr(greens._lapack, 'build', lambda: greens._lapack.__name__)()); "
       "sys.exit(code)")


def registry_errs(coretype: str, threads: int, out_dir: str) -> tuple[dict, str]:
    """Case id -> err of one registry run under one BLAS setting, and the
    build its LAPACK routines came from."""
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype,
               OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                        os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", RUN, "run", "--suite", "all",
                           "--seed", "7", "--out-dir", out_dir],
                          env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{coretype}, {threads} thread(s): exit {done.returncode}\n"
                 f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    rows = json.loads(Path(out_dir, "report.json").read_text())["cases"]
    return ({row["case_id"]: float(row["err"]) for row in rows},
            done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("case_ids", nargs="*", help="baseline rows to rewrite")
    args = parser.parse_args(argv)
    baseline = json.loads(BASELINE.read_text())
    unknown = sorted(set(args.case_ids) - set(baseline))
    if unknown:
        parser.error(f"not rows of the baseline: {unknown}")
    largest = dict.fromkeys(baseline, 0.0)
    with tempfile.TemporaryDirectory() as tmp:
        for coretype in CORETYPES:
            for threads in THREADS:
                errs, build = registry_errs(coretype, threads,
                                            os.path.join(tmp, coretype + str(threads)))
                for case_id in largest:
                    largest[case_id] = max(largest[case_id], errs[case_id])
                print(f"{coretype:<11s} {threads} thread(s): {build}"
                      + "".join(f"  {errs[c]:.3e}" for c in args.case_ids))
    for case_id, err in sorted(largest.items()):
        ratio = err / max(baseline[case_id], FLOOR)
        flag = f"  ABOVE {WARN_RATIO:g}x" if ratio > WARN_RATIO else ""
        print(f"{case_id:<42s} largest err {err:.3e} = {ratio:6.2f}x of "
              f"max(baseline {baseline[case_id]:.3e}, {FLOOR:g}){flag}")
    for case_id in args.case_ids:
        tightened = min(baseline[case_id], largest[case_id])
        print(f"{case_id}: {baseline[case_id]!r} -> {tightened!r}")
        baseline[case_id] = tightened
    BASELINE.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
