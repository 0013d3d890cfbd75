"""Regenerate named rows of the drift baseline ``registry_err_seed7.json``.

Runs ``shapelab run --suite all --seed 7`` under each of the ten BLAS
settings that ``test_acceptance.py`` names (one and two threads on each of
five OpenBLAS CPU kernels), one subprocess at a time.  Every run must pass.
Only the rows named on the command line are rewritten, each with the smaller
of its baseline and its largest err over the ten runs, so a baseline only
tightens; every other row keeps its baseline.  Every row, named or not, whose
largest err exceeds its baseline is printed.

    python tests/regen_err_baseline.py CASE_ID [CASE_ID ...]
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


def registry_errs(coretype: str, threads: int, out_dir: str) -> dict:
    """Case id -> err of one registry run under one BLAS setting."""
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype,
               OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                        os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "shapelab", "run", "--suite", "all",
                           "--seed", "7", "--out-dir", out_dir],
                          env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{coretype}, {threads} thread(s): exit {done.returncode}\n"
                 f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    rows = json.loads(Path(out_dir, "report.json").read_text())["cases"]
    return {row["case_id"]: float(row["err"]) for row in rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("case_ids", nargs="+", help="baseline rows to rewrite")
    args = parser.parse_args(argv)
    baseline = json.loads(BASELINE.read_text())
    unknown = sorted(set(args.case_ids) - set(baseline))
    if unknown:
        parser.error(f"not rows of the baseline: {unknown}")
    largest = dict.fromkeys(baseline, 0.0)
    with tempfile.TemporaryDirectory() as tmp:
        for coretype in CORETYPES:
            for threads in THREADS:
                errs = registry_errs(coretype, threads, os.path.join(tmp, coretype + str(threads)))
                for case_id in largest:
                    largest[case_id] = max(largest[case_id], errs[case_id])
                print(f"{coretype:<11s} {threads} thread(s): "
                      + "  ".join(f"{errs[c]:.3e}" for c in args.case_ids))
    for case_id, err in largest.items():
        if err > baseline[case_id]:
            print(f"{case_id}: largest err {err!r} exceeds its baseline {baseline[case_id]!r}")
    for case_id in args.case_ids:
        tightened = min(baseline[case_id], largest[case_id])
        print(f"{case_id}: {baseline[case_id]!r} -> {tightened!r}")
        baseline[case_id] = tightened
    BASELINE.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
