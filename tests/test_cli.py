import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shapelab import cli
from shapelab import greens as gr
from shapelab import hadamard as hd
from shapelab import perturbation as pert
from shapelab._fd import DEFAULT_SECOND_LADDER
from shapelab.cases import GREENS_BOUNDARIES, Case, CaseSettings, _domain, build_registry
from shapelab.integrands import IntegrandSpec
from shapelab.report import ReportRow, write_reports

STAR_SHEAR = {
    "id": "custom-star-shear",
    "kind": "second_volume",
    "domain": {"name": "star", "r0": 1.0, "eps": 0.15, "k": 3},
    "family": {"kind": "flow", "field": {"name": "shear", "a": 0.5}},
    "integrand": "x1*x2 + t*x2",
    "tolerance": 1e-4,
}

DISK_DILATION = {
    "id": "custom-disk-dilation",
    "domain": {"name": "circle", "r": 1.0},
    "mixed": ["dirichlet"],
    "family": {"kind": "taylor", "field": {"name": "dilation"}},
    "probes": [[0.3, 0.0], [0.0, 0.4]],
}


class TestRegistry:
    def test_at_least_25_cases(self):
        assert len(build_registry()) >= 25

    def test_ids_unique(self):
        ids = [c.case_id for c in build_registry()]
        assert len(ids) == len(set(ids))

    def test_every_case_has_formula_and_tolerance(self):
        for case in build_registry():
            assert case.formula and case.tolerance > 0
            assert case.suite in ("jacobian", "liouville", "greens", "hadamard")

    def test_poly_inverse_fd_integrates_each_abscissa_once(self, monkeypatch):
        calls = []
        integrate = pert.FlowFamily._integrate

        def counted(self, points, t):
            calls.append((t, points.tobytes()))
            return integrate(self, points, t)

        monkeypatch.setattr(pert.FlowFamily, "_integrate", counted)
        registry = {c.case_id: c for c in build_registry()}
        assert registry["jacobian-poly-inverse-fd"].run(CaseSettings(seed=7)).passed
        # 3 families x 17 distinct abscissae: +-h and +-2h over the default first
        # ladder (8) and 0, +-h and +-2h over the default second ladder (9)
        assert len(calls) == len(set(calls)) == 51

    def test_poly_det_fd_integrates_each_abscissa_once(self, monkeypatch):
        calls = []
        integrate = pert.FlowFamily._integrate

        def counted(self, points, t):
            calls.append((t, points.tobytes()))
            return integrate(self, points, t)

        monkeypatch.setattr(pert.FlowFamily, "_integrate", counted)
        registry = {c.case_id: c for c in build_registry()}
        assert registry["jacobian-poly-det-fd"].run(CaseSettings(seed=7)).passed
        # 3 families x 17 distinct abscissae: +-h and +-2h over the default first
        # ladder (8) and 0, +-h and +-2h over the default second ladder (9)
        assert len(calls) == len(set(calls)) == 51

    def test_single_case_runs(self):
        registry = {c.case_id: c for c in build_registry()}
        row = registry["liouville-disk-dilation-second-volume"].run(CaseSettings(seed=0))
        assert row.passed
        assert abs(row.formula_value - 2 * 3.141592653589793) < 1e-12


class TestCli:
    def test_list_cases(self, capsys):
        assert cli.main(["list-cases"]) == 0
        out = capsys.readouterr().out
        assert "jacobian-minor-expansion" in out
        assert "first variational formula" in out

    def test_describe_case(self, capsys):
        assert cli.main(["describe-case", "greens-disk-analytic"]) == 0
        out = capsys.readouterr().out
        assert "tolerance" in out and "greens" in out

    def test_describe_unknown_case_is_config_error(self, capsys):
        assert cli.main(["describe-case", "no-such-case"]) == cli.EXIT_CONFIG

    def test_unknown_suite_is_config_error(self, tmp_path):
        assert cli.main(["run", "--suite", "jacobian", "--case", "bogus",
                         "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suite": "jacobian", "bogus": 1}))
        assert cli.main(["run", "--config", str(cfg),
                         "--out-dir", str(tmp_path / "out")]) == cli.EXIT_CONFIG

    def test_bad_override_rejected(self, tmp_path):
        assert cli.main(["run", "--case", "jacobian-dilation-det",
                         "--override", "granularity=2",
                         "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("override", ["m=abc", "n_charges=1.5"])
    def test_non_integer_override_is_config_error(self, tmp_path, capsys, override):
        assert cli.main(["run", "--case", "jacobian-dilation-det",
                         "--override", override,
                         "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG
        assert "must be an integer" in capsys.readouterr().err

    def test_non_integer_config_seed_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cases": ["jacobian-dilation-det"], "seed": "x"}))
        assert cli.main(["run", "--config", str(cfg),
                         "--out-dir", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        assert "seed must be an integer, not 'x'" in capsys.readouterr().err

    def test_non_integer_config_override_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cases": ["jacobian-dilation-det"],
                                   "overrides": {"m": "abc"}}))
        assert cli.main(["run", "--config", str(cfg),
                         "--out-dir", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        assert "m must be an integer, not 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,message", [
        ("overrides", ["m"], "overrides must be an object, not ['m']"),
        ("overrides", 5, "overrides must be an object, not 5"),
        ("cases", "jacobian-dilation-det",
         "cases must be a list, not 'jacobian-dilation-det'"),
        ("custom_liouville", {"id": "x"}, "custom_liouville must be a list, not {'id': 'x'}"),
    ])
    def test_config_value_of_wrong_type_is_config_error(self, tmp_path, capsys, key,
                                                        value, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cases": ["jacobian-dilation-det"], key: value}))
        assert cli.main(["run", "--config", str(cfg),
                         "--out-dir", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_writes_reports(self, tmp_path, capsys):
        code = cli.main(["run", "--case", "jacobian-dilation-det",
                         "--case", "jacobian-rotation-det-zero",
                         "--out-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["all_passed"] is True
        assert len(payload["cases"]) == 2
        assert (tmp_path / "report.csv").exists()
        out = capsys.readouterr().out
        assert "PASS" in out and "2/2" in out

    def test_convergence_table_written(self, tmp_path):
        cli.main(["run", "--case", "liouville-disk-dilation-second-volume",
                  "--out-dir", str(tmp_path)])
        table = tmp_path / "convergence" / "liouville-disk-dilation-second-volume.csv"
        assert table.exists()
        assert "step,estimate" in table.read_text().splitlines()[0]

    def test_failing_case_sets_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"custom_liouville": [{
            "id": "custom-impossible",
            "kind": "first_volume",
            "domain": {"name": "circle", "r": 1.0},
            "family": {"kind": "flow", "field": {"name": "dilation"}},
            "integrand": "x1**2 + 1",
            "tolerance": 1e-30,
        }]}))
        code = cli.main(["run", "--case", "custom-impossible",
                         "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == cli.EXIT_CASE_FAILED

    def test_custom_case_passes_with_sane_tolerance(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"custom_liouville": [STAR_SHEAR]}))
        code = cli.main(["run", "--case", "custom-star-shear",
                         "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == 0

    @pytest.mark.parametrize("path, value, message", [
        (("family", "kind"), "taylr", "unknown family kind 'taylr'"),
        (("family", "field", "name"), "sheer", "unknown velocity field 'sheer'"),
        (("domain", "name"), "starr", "unknown curve 'starr'"),
        (("kind",), "second_volumes", "unknown kind 'second_volumes'"),
        (("family", "field"), {"name": "polynomial", "terms": {"0,1,0": math.nan}},
         "non-finite coefficient nan of monomial (0, 1, 0)"),
        (("family", "field"), {"name": "polynomial", "terms": [1]},
         "cannot convert dictionary update sequence"),
    ])
    def test_bad_custom_spec_is_config_error(self, tmp_path, capsys, path, value, message):
        spec = json.loads(json.dumps(STAR_SHEAR))
        node = spec
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"custom_liouville": [spec]}))
        code = cli.main(["run", "--case", "custom-star-shear",
                         "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("kind, integrand, message", [
        ("second_volume", "x1**", "does not parse"),
        ("flux_first", ["x1*x2", "x2**"], "does not parse"),
        ("flux_first", ["x1", "x2", "x1*x2"], "list of 2 expressions"),
        ("second_volume", "x1*y", "symbols other than x1, x2, t: ['y']"),
        # an undefined function has only x1, x2, t as symbols, and failed at run
        ("first_volume", "f(x1)", "calls undefined functions: ['f']"),
        ("flux_first", ["x1", "g(x2, t)*x1"], "calls undefined functions: ['g']"),
        # a complex integrand ran as its real part
        ("first_volume", "x1*I", "is not real: it uses I"),
        ("second_volume", ["x1", "x2"], "a second_volume integrand is one expression"),
        ("flux_first", {"x1": 1, "x2": 2}, "list of 2 expressions"),
    ])
    def test_unparsable_integrand_is_config_error(self, tmp_path, capsys, kind,
                                                  integrand, message):
        spec = dict(STAR_SHEAR, kind=kind, integrand=integrand)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"custom_liouville": [spec]}))
        code = cli.main(["run", "--case", "custom-star-shear",
                         "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, value, message", [
        ("custom_liouville", "ladder", [0.01], "ladder must be a decreasing sequence"),
        # custom route rows re-solve nothing, so they take no ladder
        ("custom_hadamard", "ladder", [0.01, 0.005], "unknown custom_hadamard keys: ['ladder']"),
        ("custom_hadamard", "probes", [[0.3, 0.0, 1.0], [0.0, 0.4]],
         "probes must be two points of two finite coordinates"),
        ("custom_liouville", "tolerance", "nan", "tolerance must be a finite positive number"),
        # a boolean is not a number
        ("custom_liouville", "tolerance", True, "tolerance must be a finite positive number"),
        ("custom_hadamard", "probes", [[True, 0], [0.0, 0.4]],
         "probes must be two points of two finite coordinates"),
    ])
    def test_bad_value_is_a_config_error_at_load(self, tmp_path, capsys, section, key,
                                                  value, message):
        spec = dict(STAR_SHEAR if section == "custom_liouville" else DISK_DILATION,
                    **{key: value})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: [spec]}))
        code = cli.main(["run", "--case", spec["id"], "--config", str(cfg),
                         "--out-dir", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # rejected before any case ran

    def test_an_empty_ladder_is_the_default_ladder(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"custom_liouville": [dict(STAR_SHEAR, ladder=[])]}))
        assert cli.main(["run", "--case", STAR_SHEAR["id"], "--config", str(cfg),
                         "--out-dir", str(tmp_path / "out")]) == cli.EXIT_OK
        row = json.loads((tmp_path / "out" / "report.json").read_text())["cases"][0]
        assert row["details"]["ladder"] == list(DEFAULT_SECOND_LADDER)

    def test_python_dash_m_runs_the_cli(self):
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-m", "shapelab", "list-cases"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "hadamard-pole-symmetry" in done.stdout

    def test_custom_hadamard_case(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"custom_hadamard": [{
            "id": "custom-annulus-shear",
            "domain": {"name": "annulus", "r_in": 0.5, "r_out": 1.0},
            "mixed": ["dirichlet", "neumann"],
            "family": {"kind": "taylor", "field": {"name": "shear", "a": 0.5}},
            "probes": [[0.0, 0.75], [-0.74, -0.1]],
            "variation": "first",
            "tolerance": 1e-3,
        }]}))
        code = cli.main(["run", "--case", "custom-annulus-shear",
                         "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == 0

    def test_route_rows_report_their_solve_diagnostics(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"custom_hadamard": [dict(DISK_DILATION,
                                                            variation="second")]}))
        ids = ["custom-disk-dilation", "hadamard-delta-n-triangle-annulus",
               "hadamard-delta2-n-triangle-disk", "hadamard-delta2-rotation-zero"]
        code = cli.main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out"),
                         *[arg for case_id in ids for arg in ("--case", case_id)]])
        assert code == 0
        rows = json.loads((tmp_path / "out" / "report.json").read_text())["cases"]
        assert sorted(row["case_id"] for row in rows) == sorted(ids)
        for row in rows:
            details = row["details"]
            assert 0.0 < details["solve_residual"] < 1e-4
            assert details["n_unknowns"] > 0 and "solve_rank" not in details

    @pytest.mark.parametrize("key, value, message", [
        ("variation", "sceond", "unknown variation 'sceond'"),
        ("mixed", ["dirichlet"], "mixed needs 2 entries, one per boundary component, not 1"),
    ])
    def test_bad_hadamard_spec_is_config_error(self, tmp_path, capsys, key, value, message):
        spec = {"id": "custom-annulus", "mixed": ["dirichlet", "neumann"],
                "domain": {"name": "annulus", "r_in": 0.5, "r_out": 1.0},
                "family": {"kind": "taylor", "field": {"name": "shear", "a": 0.5}},
                "probes": [[0.0, 0.75], [-0.74, -0.1]], key: value}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"custom_hadamard": [spec]}))
        code = cli.main(["run", "--case", "custom-annulus",
                         "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_non_object_custom_spec_is_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"custom_hadamard": [3]}))
        assert cli.main(["run", "--config", str(cfg),
                         "--out-dir", str(tmp_path / "out")]) == cli.EXIT_CONFIG

    def test_solver_diagnostic_exit_code(self, tmp_path):
        code = cli.main(["run", "--case", "greens-disk-analytic",
                         "--override", "n_charges=8",
                         "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_SOLVER
        payload = json.loads((tmp_path / "report.json").read_text())
        assert "GreensAccuracyError" in payload["cases"][0]["error"]

    def test_exit_code_comes_from_the_exception_type(self, tmp_path, monkeypatch):
        def runner(st, case):
            raise RuntimeError("not a GreensAccuracyError")

        case = Case("named-but-not-raised", "greens", "exit code", 1.0, runner)
        monkeypatch.setattr(cli, "build_registry", lambda: [case])
        code = cli.main(["run", "--case", case.case_id, "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_CASE_FAILED

    def test_seeded_subset_is_deterministic(self, tmp_path):
        args = ["run", "--suite", "jacobian", "--seed", "11"]
        cli.main(args + ["--out-dir", str(tmp_path / "a")])
        cli.main(args + ["--out-dir", str(tmp_path / "b")])
        a = (tmp_path / "a" / "report.json").read_bytes()
        b = (tmp_path / "b" / "report.json").read_bytes()
        assert a == b

    def test_cases_run_in_one_process_loop(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workers": 2}))
        code = cli.main(["run", "--case", "jacobian-dilation-det", "--config", str(cfg),
                         "--out-dir", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert "workers must be 1" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--suite", "jacobian", "--workers", "1"])
        assert exc.value.code == 2
        cfg.write_text(json.dumps({"workers": 1}))
        assert cli.main(["run", "--case", "jacobian-dilation-det", "--config", str(cfg),
                         "--out-dir", str(tmp_path / "out")]) == cli.EXIT_OK

    def test_report_json_has_no_timing(self, tmp_path):
        cli.main(["run", "--case", "jacobian-dilation-det",
                  "--out-dir", str(tmp_path)])
        assert "wall_time" not in (tmp_path / "report.json").read_text()


class TestReportCsv:
    def test_headroom_column_in_decades(self, tmp_path):
        rows = [ReportRow("a-pass", "s", "q", 1.0, {}, 1e-9, 1e-6, True),
                ReportRow("c-zero", "s", "q", 1.0, {}, 0.0, 1e-6, True),
                ReportRow("d-nan", "s", "q", 1.0, {}, float("nan"), 1e-6, False),
                ReportRow("e-fail", "s", "q", 1.0, {}, 1e-3, 1e-6, False)]
        write_reports(rows, str(tmp_path), seed=0)
        with open(tmp_path / "report.csv") as handle:
            table = {row["case_id"]: row["headroom_decades"] for row in csv.DictReader(handle)}
        assert math.isclose(float(table["a-pass"]), 3.0)
        assert table["c-zero"] == "" and table["d-nan"] == ""
        assert math.isclose(float(table["e-fail"]), -3.0)
        assert "headroom" not in (tmp_path / "report.json").read_text()


class TestOptionalSympy:
    def test_expression_without_sympy_is_a_config_error_naming_the_extra(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(sys.modules, "sympy", None)  # import sympy now fails
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"custom_liouville": [STAR_SHEAR]}))
        code = cli.main(["run", "--case", STAR_SHEAR["id"], "--config", str(cfg),
                         "--out-dir", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert "shapelab[expressions]" in capsys.readouterr().err
        with pytest.raises(ImportError, match=r"shapelab\[expressions\]"):
            IntegrandSpec.from_expression("x1 * x2")


# two first-variation cases on one mixed annulus, declared separately
SHARED_ANNULUS = [
    {"id": f"shared-annulus-{name}", "domain": {"name": "annulus", "r_in": 0.5, "r_out": 1.0},
     "mixed": ["dirichlet", "neumann"], "family": {"kind": "taylor", "field": field},
     "probes": [[0.0, 0.75], [-0.74, -0.1]], "variation": "first"}
    for name, field in (("dilation", {"name": "dilation"}),
                        ("translation", {"name": "translation", "dx": 0.6, "dy": 0.8}))]


class TestSharedBaseSolver:
    def test_cases_on_one_boundary_share_its_solver_and_keep_their_rows(
            self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"custom_hadamard": SHARED_ANNULUS}))
        built, init = [], gr.GreensSolver.__init__

        def counted(self, domain, mixed, config=None, family=None, t=0.0, charges=None):
            # a base solver takes the domain's charge rings; moved() passes charges
            built.append((family, charges is None))
            init(self, domain, mixed, config, family, t, charges)

        monkeypatch.setattr(gr.GreensSolver, "__init__", counted)
        ids = [spec["id"] for spec in SHARED_ANNULUS]
        rows = {}
        for name, order in (("both", ids), ("reversed", ids[::-1]),
                            ("first", ids[:1]), ("second", ids[1:])):
            args = [arg for cid in order for arg in ("--case", cid)]
            built.clear()
            assert cli.main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / name),
                             *args]) == cli.EXIT_OK
            assert built.count((None, True)) == 1  # one base solver per run
            payload = json.loads((tmp_path / name / "report.json").read_text())
            rows[name] = {case["case_id"]: case for case in payload["cases"]}
        for cid, alone in zip(ids, ("first", "second")):
            assert rows["both"][cid] == rows["reversed"][cid] == rows[alone][cid]


# one object of each config kind: a fourier domain and a Taylor family with
# r_field in the Liouville spec; a circle and a Taylor family in the Hadamard one
FOURIER_TAYLOR = dict(
    STAR_SHEAR, id="custom-fourier-taylor",
    domain={"name": "fourier",
            "components": [{"cos": [[0, 0], [1, 0]], "sin": [[0, 0], [0, 1]]}]},
    family={"kind": "taylor", "field": {"name": "shear", "a": 0.5},
            "r_field": {"name": "dilation"}})
EVERY_OBJECT = {"cases": [FOURIER_TAYLOR["id"], DISK_DILATION["id"]],
                "overrides": {"m": 128}, "custom_liouville": [FOURIER_TAYLOR],
                "custom_hadamard": [DISK_DILATION]}


def _write(tmp_path, cfg) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfigReader:
    def test_every_config_object_resolves(self, tmp_path):
        cfg = cli.load_config(_write(tmp_path, EVERY_OBJECT))
        cases = (cli._custom_liouville_cases(cfg["custom_liouville"])
                 + cli._custom_hadamard_cases(cfg["custom_hadamard"]))
        assert [c.case_id for c in cli.resolve_cases(build_registry() + cases, None,
                                                     cfg["cases"])] == cfg["cases"]

    @pytest.mark.parametrize("path, key", [
        ((), "sede"),
        (("overrides",), "nn"),
        (("custom_liouville", 0), "tolerence"),
        (("custom_hadamard", 0), "varation"),
        (("custom_hadamard", 0, "family"), "knd"),
        (("custom_liouville", 0, "family", "field"), "aa"),
        (("custom_liouville", 0, "family", "r_field"), "scale"),
        (("custom_hadamard", 0, "domain"), "radius"),
        (("custom_liouville", 0, "domain", "components", 0), "tan"),
    ], ids=["top-level", "overrides", "custom_liouville", "custom_hadamard", "family",
            "field", "r_field", "domain", "fourier-component"])
    def test_a_misspelled_key_fails_at_load_and_is_named(self, tmp_path, capsys, path, key):
        cfg = json.loads(json.dumps(EVERY_OBJECT))
        node = cfg
        for step in path:
            node = node[step]
        node[key] = 1.0
        code = cli.main(["run", "--config", _write(tmp_path, cfg),
                         "--out-dir", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # rejected before any case ran

    def test_readme_config_example_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("```json\n", 1)[1].split("```", 1)[0]
        cfg = cli.load_config(_write(tmp_path, json.loads(example)))
        cases = (cli._custom_liouville_cases(cfg["custom_liouville"])
                 + cli._custom_hadamard_cases(cfg["custom_hadamard"]))
        assert len(cases) == len(cfg["custom_liouville"]) + len(cfg["custom_hadamard"]) > 0
        cli.resolve_cases(build_registry() + cases, cfg["suite"], cfg["cases"])

    @pytest.mark.parametrize("cfg, message", [
        ({"overrides": {"n_charges": 96.9}}, "n_charges must be an integer, not 96.9"),
        ({"seed": True}, "seed must be an integer, not True"),
    ])
    def test_an_integer_key_takes_integers_only(self, tmp_path, capsys, cfg, message):
        code = cli.main(["run", "--case", "jacobian-dilation-det",
                         "--config", _write(tmp_path, cfg),
                         "--out-dir", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_an_integral_number_is_an_integer(self, tmp_path):
        cfg = {"seed": 3.0, "overrides": {"n_charges": 64.0}}
        assert cli.main(["run", "--case", "jacobian-dilation-det",
                         "--config", _write(tmp_path, cfg),
                         "--out-dir", str(tmp_path / "out")]) == cli.EXIT_OK
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert (payload["seed"], payload["overrides"]) == (3, {"n_charges": 64})

    @pytest.mark.parametrize("override, message", [
        ("m=100", "m must be a power of two >= 16, not 100"),
        ("n_charges=0", "n_charges must be at least 1, not 0"),
        ("seed=3", "unknown override keys: ['seed']"),
    ])
    def test_a_bad_override_fails_at_load(self, tmp_path, capsys, override, message):
        code = cli.main(["run", "--case", "greens-disk-analytic", "--override", override,
                         "--out-dir", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("cfg, message", [
        ({"custom_liouville": [dict(STAR_SHEAR, id=5)]},
         "custom case id must be a string, not 5"),
        ({"custom_hadamard": [dict(DISK_DILATION, id="jacobian-dilation-det")]},
         "case id 'jacobian-dilation-det' is declared twice"),
        ({"custom_liouville": [STAR_SHEAR, STAR_SHEAR]},
         "case id 'custom-star-shear' is declared twice"),
        ({"out_dir": 5}, "out_dir must be a string, not 5"),
        # an id names its case's csv under the report directory
        *(({"custom_liouville": [dict(STAR_SHEAR, id=case_id)]},
           f"custom case id {case_id!r} is not a file name")
          for case_id in ("../escaped", "nested/dir/case", "", ".", "..", "a\\b", "a\0b")),
    ])
    def test_case_ids_and_out_dir_are_checked_at_load(self, tmp_path, capsys, cfg,
                                                       message):
        code = cli.main(["run", "--case", "jacobian-dilation-det",
                         "--config", _write(tmp_path, cfg)])
        assert code == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("domain, message", [
        ({"name": "circle", "r": -1}, "circle radius must be a finite positive number, not -1"),
        ({"name": "circle", "r": 0}, "circle radius must be a finite positive number, not 0"),
        ({"name": "circle", "center": [0.5, 0, 7]},
         "center must be two finite numbers, not [0.5, 0, 7]"),
        ({"name": "annulus", "r_in": 0.5, "r_out": 1.0, "center": [0, 0, 1]},
         "center must be two finite numbers, not [0, 0, 1]"),
        ({"name": "star", "k": True}, "star frequency k must be an integer >= 1, not True"),
        ({"name": "star", "eps": 1.5}, "star eps must be a number with |eps| < 1, not 1.5"),
        ({"name": "ellipse", "a": 2.0, "b": 1.0, "center": [0.5]},
         "center must be two finite numbers, not [0.5]"),
    ], ids=["circle-r-negative", "circle-r-zero", "circle-center", "annulus-center",
            "star-k-boolean", "star-eps", "ellipse-center"])
    def test_a_geometry_precondition_fails_at_load_and_is_named(self, tmp_path, capsys,
                                                                 domain, message):
        mixed = ["dirichlet", "neumann"] if domain["name"] == "annulus" else ["dirichlet"]
        cfg = {"custom_hadamard": [dict(DISK_DILATION, domain=domain, mixed=mixed)]}
        code = cli.main(["run", "--config", _write(tmp_path, cfg),
                         "--out-dir", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # rejected before any case ran

    def test_a_flow_family_takes_no_r_field(self, tmp_path, capsys):
        family = dict(STAR_SHEAR["family"], r_field={"name": "dilation"})
        cfg = {"custom_liouville": [dict(STAR_SHEAR, family=family)]}
        assert cli.main(["run", "--config", _write(tmp_path, cfg),
                         "--out-dir", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        assert "a flow family takes no r_field" in capsys.readouterr().err


@pytest.mark.parametrize("case_id, count", [
    ("greens-disk-analytic", "analytic_probes"), ("greens-symmetry", "pairs"),
    ("greens-harmonicity", "circles"), ("greens-representation", "manufactured"),
    ("hadamard-chi-sigma-three-form", "forms")])
def test_a_count_is_a_detail_not_an_oracle(case_id, count):
    registry = {c.case_id: c for c in build_registry()}
    row = registry[case_id].run(CaseSettings(seed=7))
    assert row.passed and row.oracles == {} and row.details[count] > 0


@pytest.mark.parametrize("case_id", [
    "hadamard-delta-n-triangle-disk", "hadamard-delta-n-triangle-annulus",
    "hadamard-delta2-n-triangle-disk", "hadamard-delta2-n-triangle-annulus"])
def test_a_registry_route_row_re_solves_nothing(case_id, monkeypatch):
    # the annulus rows check the routes against the translation transport,
    # which solves on the base factors only
    def refuse(self, family, t):
        raise AssertionError("a registry route row re-solved")

    monkeypatch.setattr(gr.GreensSolver, "moved", refuse)
    registry = {c.case_id: c for c in build_registry()}
    row = registry[case_id].run(CaseSettings(seed=7))
    assert row.passed and row.error is None and "fd" not in row.oracles


@pytest.mark.parametrize("order, n_abscissae", [(1, 8), (2, 9)])
def test_fd_re_solves_on_the_registry_annulus_keep_every_column(order, n_abscissae,
                                                                 monkeypatch):
    columns, moved = [], gr.GreensSolver.moved

    def recorded(self, family, t):
        re_solver = moved(self, family, t)
        columns.append(re_solver.solver.matrix.shape[1])
        return re_solver

    monkeypatch.setattr(gr.GreensSolver, "moved", recorded)
    mixed, (x, y), family = GREENS_BOUNDARIES["annulus"]
    settings = CaseSettings(seed=7)
    solver = gr.base_solver(_domain(settings, "annulus"), mixed, settings.greens_config())
    fd = (hd.delta_n_fd if order == 1 else hd.delta2_n_fd)(solver, family, x, y)
    assert np.isfinite(fd.value)
    # every ring column, at the base and at each abscissa of the ladder
    assert columns == [solver.solver.matrix.shape[1]] * n_abscissae == [192] * n_abscissae


def test_the_registry_run_counts_its_re_solves_factorizations_and_flows(monkeypatch):
    # --suite all --seed 7 made 18 moved calls and 22 factorizations while its
    # two mixed-annulus route rows re-solved along FD ladders; 160 flow
    # integrations before and after
    counts = dict.fromkeys(["moved", "factorizations", "flows"], 0)

    def counted(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(gr.GreensSolver, "moved", counted("moved", gr.GreensSolver.moved))
    monkeypatch.setattr(gr._QRFactors, "__init__",
                        counted("factorizations", gr._QRFactors.__init__))
    monkeypatch.setattr(pert.FlowFamily, "_integrate",
                        counted("flows", pert.FlowFamily._integrate))
    settings = CaseSettings(seed=7)
    assert all(case.run(settings).passed for case in build_registry())
    # the one re-solve is greens-perturbed-scaling's; one factorization per
    # base boundary and configuration, and the re-solve's
    assert counts == {"moved": 1, "factorizations": 5, "flows": 160}
