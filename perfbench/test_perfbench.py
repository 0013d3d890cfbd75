"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads
from spans import Span


# ---------------------------------------------------------------------------
# workload generator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", ["moving-integrals", "green-variations"])
def test_generator_is_deterministic_in_the_seed(workload):
    first = workloads.dumps(workloads.generate(workload, 3))
    assert workloads.dumps(workloads.generate(workload, 3)) == first
    assert workloads.dumps(workloads.generate(workload, 4)) != first


def test_registry_is_the_north_star_run_for_every_seed():
    assert workloads.generate("registry", 1) == workloads.generate("registry", 2)
    assert workloads.generate("registry", 1)["suite"] == "all"


def test_moving_integrals_structure_is_seed_independent():
    for seed in range(5):
        cfg = workloads.generate("moving-integrals", seed)
        cases = cfg["custom_liouville"]
        assert cfg["cases"] == workloads.case_ids(cfg)
        assert len(cases) == 36
        assert {(c["kind"], c["domain"]["name"], c["family"]["kind"]) for c in cases} == {
            (k, d["name"], f) for k in workloads.MI_KINDS
            for d, _ in workloads.MI_DOMAINS.values() for f in ("flow", "taylor")}
        expressions = [json.dumps(c["integrand"]) for c in cases]
        assert len(set(expressions)) == workloads.N_SCALAR_POOL + workloads.N_VECTOR_POOL


def _terms(field):
    return {tuple(int(v) for v in k.split(",")): c for k, c in field["terms"].items()}


def test_taylor_families_cannot_fold_on_the_ladder():
    t = workloads.T_LADDER["second"]
    radii = {d["name"]: r for d, r in workloads.MI_DOMAINS.values()}
    for seed in range(20):
        for case in workloads.generate("moving-integrals", seed)["custom_liouville"]:
            family = case["family"]
            if family["kind"] != "taylor":
                continue
            radius = radii[case["domain"]["name"]]
            growth = (t * workloads._jacobian_bound(_terms(family["field"]), radius)
                      + 0.5 * t * t * workloads._jacobian_bound(_terms(family["r_field"]), radius))
            assert growth <= 0.5 + 1e-9


def test_green_probes_keep_their_margins_on_every_deformed_domain():
    for seed in range(20):
        cfg = workloads.generate("green-variations", seed)
        assert cfg["overrides"] == {"m": 256, "n_charges": 192}
        assert len(cfg["custom_hadamard"]) == 12
        for case in cfg["custom_hadamard"]:
            x, y = case["probes"]
            assert math.dist(x, y) >= workloads.PROBE_SEPARATION
            field = case["family"]["field"]
            shift = workloads._boundary_shift(field, case["variation"])
            domain = case["domain"]
            for p in (x, y):
                r = math.hypot(*p)
                outer = domain.get("r_out", domain.get("r"))
                assert outer - r - shift >= workloads.PROBE_MARGIN - 1e-12
                if "r_in" in domain:
                    assert r - domain["r_in"] - shift >= workloads.PROBE_MARGIN - 1e-12


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def _tree():
    # main [0, 10] > case [1, 9] > flow [2, 5], ladder [5, 8] > evaluate [6, 7]
    return [
        Span("main", spans.ROOT, 0.0, 10.0, -1, ""),
        Span("Case.run", spans.CASE, 1.0, 9.0, 0, "c1"),
        Span("FlowFamily.map", "perturbation.flow", 2.0, 5.0, 1, "c1",
             {"points": 10, "steps": 4, "t": 0.1, "key": "a"}),
        Span("derivative_ladder", "fd", 5.0, 8.0, 1, "c1"),
        Span("fd.evaluate", "liouville.oracle", 6.0, 7.0, 3, "c1"),
    ]


def test_self_time_subtracts_children():
    assert spans.self_times(_tree()) == [2.0, 2.0, 3.0, 2.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    tree = [Span("p", "greens.solve", 0.0, 5.0, -1),
            Span("a", "greens.eval", 1.0, 3.0, 0),
            Span("b", "greens.eval", 2.0, 4.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(2.0)


def test_layer_metrics_on_a_synthetic_tree():
    tree = _tree() + [Span("FlowFamily.map_jacobian", "perturbation.flow", 8.0, 8.5, 1, "c1",
                           {"points": 10, "steps": 4, "t": 0.1, "key": "a"})]
    metrics = spans.layer_metrics(tree, import_s=0.5)
    assert metrics["perturbation.flow_s"] == pytest.approx(3.5)
    assert metrics["perturbation.flow_calls"] == 2
    assert metrics["perturbation.flow_point_steps"] == 80
    assert metrics["perturbation.flow_repeat_share"] == pytest.approx(0.5)
    assert metrics["fd.self_s"] == pytest.approx(2.0)
    assert metrics["fd.evaluations"] == 1
    assert metrics["liouville.oracle_s"] == pytest.approx(1.0)
    assert metrics["cases.self_s"] == pytest.approx(1.5)
    assert metrics["trace.run_s"] == pytest.approx(10.0)
    # layer spans cover [2, 8.5] of the 10 s run
    assert metrics["trace.uncovered_share"] == pytest.approx(0.35)
    assert metrics["greens.solves_per_factorization"] == 0.0
    assert set(metrics) == set(spans.LAYER_UNITS) - {
        "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"}


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def test_case_headroom():
    assert run.case_headroom({"err": 1e-6, "tolerance": 1e-4, "mode": "le"}) == pytest.approx(2.0)
    assert run.case_headroom({"err": 5.0, "tolerance": 2.5, "mode": "ge"}) == pytest.approx(math.log10(2))
    assert run.case_headroom({"err": 0.0, "tolerance": 1e-4, "mode": "le"}) == 296.0
    assert run.case_headroom({"err": "nan", "tolerance": 1e-4, "mode": "le"}) == -99.0


def test_trimmed_mean_drops_the_extremes_from_four_samples_on():
    assert run.trimmed_mean([9.0, 7.0, 10.0, 7.5, 30.0]) == pytest.approx(26.5 / 3)
    assert run.trimmed_mean([7.0, 9.0, 9.5, 8.0]) == pytest.approx(8.5)
    assert run.trimmed_mean([7.0, 9.0, 9.5]) == pytest.approx(25.5 / 3)


def _report(path, err):
    path.mkdir(parents=True, exist_ok=True)
    case = {"case_id": "c", "passed": err <= 1e-3, "error": None, "err": err,
            "tolerance": 1e-3, "mode": "le"}
    (path / "report.json").write_text(json.dumps({"cases": [case]}))


def test_check_fails_a_case_whose_report_changes(tmp_path):
    check = run.Check(expected=1)
    _report(tmp_path / "a", 1e-5)
    check.run(0, tmp_path / "a")
    assert check.correct and check.attempted == 1
    _report(tmp_path / "b", 2e-5)
    check.run(0, tmp_path / "b")
    assert (check.attempted, check.failed, check.correct) == (2, 1, False)


def test_check_fails_every_case_of_a_run_without_report(tmp_path):
    check = run.Check(expected=4)
    check.run(3, tmp_path)
    assert (check.attempted, check.failed, check.correct) == (4, 4, False)


# ---------------------------------------------------------------------------
# smoke runs through the real CLI
# ---------------------------------------------------------------------------

SMOKE_REGISTRY = {"cases": ["jacobian-dilation-det", "greens-annulus-flux"],
                  "seed": 7, "workers": 1, "overrides": {"m": 128, "n_charges": 96}}


def _small(workload: str, n: int) -> dict:
    if workload == "registry":
        return dict(SMOKE_REGISTRY)
    cfg = workloads.generate(workload, 11)
    key = "custom_liouville" if workload == "moving-integrals" else "custom_hadamard"
    cfg[key] = cfg[key][:n]
    cfg["cases"] = workloads.case_ids(cfg)
    return cfg


@pytest.fixture
def workdir():
    path = run.OUT / "test"
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_end_to_end(workload, workdir):
    result = run.benchmark(workload, 11, 0.0, False, workdir, cfg=_small(workload, 2))
    assert result["correct"], (workdir / "result.json").read_text()
    assert (result["attempted"], result["failed"]) == (run.MIN_RUNS * 2, 0)
    assert set(result["metrics"]) == {"cpu_s", "setup_s", "peak_rss_mb",
                                      "min_headroom_decades"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload,flows,factorizations", [
    ("moving-integrals", True, False), ("green-variations", False, True)])
def test_smoke_traced(workload, flows, factorizations, workdir):
    result = run.benchmark(workload, 11, 0.0, True, workdir, cfg=_small(workload, 1))
    assert result["correct"], (workdir / "result.json").read_text()
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(spans.LAYER_UNITS)
    assert (metrics["perturbation.flow_calls"] > 0) == flows
    assert (metrics["greens.factorizations"] > 0) == factorizations
    assert 0.0 <= metrics["trace.uncovered_share"] < 0.5


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "registry",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
