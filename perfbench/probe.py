"""Child-process entry points of the benchmark.

``python3 perfbench/probe.py setup CONFIG``
    Import shapelab and resolve CONFIG into its case list the way ``shapelab
    run`` does (``load_config``, ``build_registry``, the custom-case assembly
    and ``resolve_cases``) without running a case; print the case count.

``python3 perfbench/probe.py trace CONFIG OUT_DIR SPANS_JSON``
    Run ``shapelab run --config CONFIG --out-dir OUT_DIR`` in this process
    with every layer wrapped by ``spans.install``, then write the spans,
    the import time and any target this version lacks to SPANS_JSON.  Exits
    with the CLI's exit code.

The parent points ``PYTHONPATH`` at the checkout's ``src`` directory; both
modes refuse a shapelab imported from anywhere else.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _import_cli(src: str):
    import shapelab.cli as cli

    here = os.path.realpath(os.path.dirname(cli.__file__))
    if os.path.commonpath([here, os.path.realpath(src)]) != os.path.realpath(src):
        raise SystemExit(f"shapelab imported from {here}, not from {src}")
    return cli


def setup(config: str) -> int:
    cli = _import_cli(os.environ["PERFBENCH_SRC"])
    cfg = cli.load_config(config)
    registry = cli.build_registry()
    registry += cli._custom_liouville_cases(cfg.get("custom_liouville", []))
    registry += cli._custom_hadamard_cases(cfg.get("custom_hadamard", []))
    cases = cli.resolve_cases(registry, cfg.get("suite"), list(cfg.get("cases", [])))
    print(len(cases))
    return 0


def trace(config: str, out_dir: str, spans_path: str) -> int:
    import spans

    start = time.perf_counter()
    cli = _import_cli(os.environ["PERFBENCH_SRC"])
    import_s = time.perf_counter() - start
    tracer = spans.Tracer()
    missing = spans.install(tracer)
    root = tracer.open("main", spans.ROOT, "")
    try:
        code = cli.main(["run", "--config", config, "--out-dir", out_dir])
    finally:
        tracer.close(root)
    with open(spans_path, "w") as handle:
        json.dump({"import_s": import_s, "missing": missing,
                   "spans": [s.as_list() for s in tracer.spans]}, handle)
    return code


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    sys.exit({"setup": setup, "trace": trace}[mode](*rest))
