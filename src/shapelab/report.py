"""Report rows and deterministic artifact writers.

report.json is the determinism artifact: identical (config, seed) runs must
produce byte-identical files, so wall times live only in report.csv, which
also gives each row's headroom in decades between err and its tolerance.  All
files are written atomically (temp file + rename) and fully overwritten.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from dataclasses import dataclass, field


@dataclass
class ReportRow:
    case_id: str
    suite: str
    quantity: str
    formula_value: float
    oracles: dict
    err: float
    tolerance: float
    passed: bool           # err <= tolerance
    details: dict = field(default_factory=dict)
    wall_time_s: float = 0.0
    error: str | None = None
    solver_failed: bool = False  # GreensAccuracyError: CLI exit 3, not in report.json

    def json_payload(self) -> dict:
        def clean(v):
            if isinstance(v, float) and v != v:  # NaN is not valid strict JSON
                return "nan"
            if isinstance(v, float) and v in (float("inf"), float("-inf")):
                return "inf" if v > 0 else "-inf"
            if isinstance(v, dict):
                return {k: clean(x) for k, x in v.items()}
            if isinstance(v, (list, tuple)):
                return [clean(x) for x in v]
            return v

        return clean({
            "case_id": self.case_id,
            "suite": self.suite,
            "quantity": self.quantity,
            "formula_value": self.formula_value,
            "oracles": self.oracles,
            "err": self.err,
            "tolerance": self.tolerance,
            # every row is judged err <= tolerance; the key stays for readers
            # of report.json that branch on it
            "mode": "le",
            "passed": self.passed,
            "details": self.details,
            "error": self.error,
        })


def headroom_decades(err: float, tolerance: float) -> float | None:
    """Decades log10(tol/err) between err and its tolerance, positive when
    the row passes; None when err is 0, negative or not finite."""
    if not (math.isfinite(err) and err > 0.0):
        return None
    return math.log10(tolerance / err)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_reports(rows: list[ReportRow], out_dir: str, seed: int,
                  overrides: dict | None = None) -> dict:
    rows = sorted(rows, key=lambda r: r.case_id)
    payload = {
        "seed": seed,
        "overrides": overrides or {},
        "all_passed": all(r.passed for r in rows),
        "cases": [r.json_payload() for r in rows],
    }
    json_path = os.path.join(out_dir, "report.json")
    _atomic_write(json_path, json.dumps(payload, indent=2, sort_keys=True) + "\n")

    csv_path = os.path.join(out_dir, "report.csv")
    import io
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["case_id", "suite", "quantity", "formula_value",
                     "primary_oracle", "err", "tolerance", "passed",
                     "headroom_decades", "wall_time_s", "error"])
    for r in rows:
        primary = next(iter(r.oracles.values())) if r.oracles else ""
        headroom = headroom_decades(r.err, r.tolerance)
        writer.writerow([r.case_id, r.suite, r.quantity, repr(r.formula_value),
                         primary, repr(r.err), repr(r.tolerance), r.passed,
                         "" if headroom is None else repr(headroom),
                         f"{r.wall_time_s:.4f}", r.error or ""])
    _atomic_write(csv_path, buf.getvalue())

    for r in rows:
        ladder = r.details.get("ladder")
        estimates = r.details.get("estimates")
        if ladder and estimates:
            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerow(["step", "estimate"])
            for h, e in zip(ladder, estimates):
                writer.writerow([repr(h), repr(e)])
            _atomic_write(os.path.join(out_dir, "convergence", f"{r.case_id}.csv"),
                          buf.getvalue())
    return payload
