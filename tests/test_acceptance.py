"""Acceptance gate: every criterion at its declared tolerance.

Each test prints one PASS line (visible with ``pytest -s``) after its
assertions; a failure surfaces through pytest as usual.  Tolerances are
fixed here, not configurable.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from shapelab import cli
from shapelab import geometry as geo
from shapelab import hadamard as hd
from shapelab import liouville as lv
from shapelab import perturbation as pert
from shapelab.cases import CaseSettings, build_registry
from shapelab._fd import derivative_ladder
from shapelab.greens import (GreensConfig, GreensSolver, disk_greens, disk_poisson_kernel,
                             representation_check)
from shapelab.integrands import IntegrandSpec, random_polynomial_integrand

TWO_PI = 2.0 * np.pi


def _stamp(number, description, start, bound):
    elapsed = time.perf_counter() - start
    assert elapsed < bound, f"criterion {number} exceeded {bound}s ({elapsed:.1f}s)"
    print(f"\nACCEPTANCE {number}: PASS ({elapsed:.1f}s < {bound}s) {description}")


def _rel_err(value, fd):
    """Gap between a formula value and its FD oracle, normalized by 1 + |value|."""
    return abs(value - fd.value) / (1.0 + abs(value))


def test_criterion_1_jacobian_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    families = [pert.FlowFamily(pert.dilation(), step=2e-3),
                pert.FlowFamily(pert.rotation(), step=2e-3)]
    families += [pert.FlowFamily(pert.random_polynomial_field(rng, 2, 0.3), step=2e-3)
                 for _ in range(3)]
    for fam in families:
        x0 = rng.uniform(-0.5, 0.5, size=(1, 2))
        a1, a2 = pert.det_derivatives(fam, x0)
        j1, j2 = pert.inverse_jacobian_derivatives(fam, x0)

        def det(t):
            j = fam.map_jacobian(x0, t)[0]
            return j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]

        assert abs(a1[0] - derivative_ladder(det, 1, (0.02, 0.01)).value) <= 1e-7
        assert abs(a2[0] - derivative_ladder(det, 2, (0.02, 0.01)).value) <= 1e-7
        for i in range(2):
            for j in range(2):
                def entry(t):
                    return np.linalg.inv(fam.map_jacobian(x0, t)[0])[i, j]
                assert abs(j1[0, i, j] - derivative_ladder(entry, 1, (0.02, 0.01)).value) <= 1e-7
                assert abs(j2[0, i, j] - derivative_ladder(entry, 2, (0.02, 0.01)).value) <= 1e-7

    rotation = pert.FlowFamily(pert.rotation())
    pts = rng.uniform(-0.7, 0.7, size=(8, 2))
    _, second = pert.det_derivatives(rotation, pts)
    assert np.max(np.abs(second)) <= 1e-10
    _stamp(1, "Jacobian derivative formulas vs 5-point differences", start, 5.0)


def test_criterion_2_first_formulas():
    start = time.perf_counter()
    disk = geo.Domain(geo.disk(1.0), m=128)
    dil = pert.TaylorFamily(pert.dilation())
    one = IntegrandSpec.constant(1.0)
    assert abs(lv.first_volume(disk, dil, one) - TWO_PI) <= 1e-8
    assert abs(lv.first_area(disk, dil, one) - TWO_PI) <= 1e-8

    domains = [geo.Domain(geo.disk(1.0), m=128),
               geo.Domain(geo.elliptical_domain(2.0, 1.0), m=128),
               geo.Domain(geo.star_domain(1.0, 0.15, 3), m=128)]
    rng = np.random.default_rng(2024)
    checked = 0
    for k in range(10):
        dom = domains[k % 3]
        if k % 2 == 0:
            fam = pert.FlowFamily(pert.random_polynomial_field(rng, 2, 0.25))
        else:
            fam = pert.TaylorFamily(pert.random_polynomial_field(rng, 2, 0.3),
                                    pert.random_polynomial_field(rng, 2, 0.3))
        c = random_polynomial_integrand(rng, degree=2, time_degree=1)
        op, kind = (lv.first_volume, "volume") if k % 3 != 2 else (lv.first_area, "area")
        err = _rel_err(op(dom, fam, c), lv.fd_reference(kind, dom, fam, c, order=1))
        assert err <= 1e-4, f"case {k}: rel err {err}"
        checked += 1
    assert checked == 10
    _stamp(2, "first volume/area formulas: anchors and 10 randomized cases",
           start, 30.0)


def test_criterion_3_second_formulas():
    start = time.perf_counter()
    disk = geo.Domain(geo.disk(1.0), m=128)
    dil = pert.TaylorFamily(pert.dilation())
    one = IntegrandSpec.constant(1.0)
    assert abs(lv.second_volume(disk, dil, one) - TWO_PI) <= 1e-6
    assert abs(lv.second_area(disk, dil, one)) <= 1e-6

    domains = [geo.Domain(geo.disk(1.0), m=128),
               geo.Domain(geo.elliptical_domain(1.5, 1.0), m=128),
               geo.Domain(geo.star_domain(1.0, 0.15, 3), m=128)]
    rng = np.random.default_rng(77)
    for k in range(6):
        dom = domains[k % 3]
        if k % 2 == 0:
            fam = pert.FlowFamily(pert.random_polynomial_field(rng, 2, 0.25))
        else:
            fam = pert.TaylorFamily(pert.random_polynomial_field(rng, 2, 0.3),
                                    pert.random_polynomial_field(rng, 2, 0.3))
        c = random_polynomial_integrand(rng, degree=2, time_degree=2)
        op, kind = (lv.second_volume, "volume") if k % 2 == 0 else (lv.second_area, "area")
        err = _rel_err(op(dom, fam, c), lv.fd_reference(kind, dom, fam, c, order=2))
        assert err <= 1e-2, f"case {k}: rel err {err}"

    # flow families: the normal acceleration equals the advective component,
    # with the acceleration extracted kinematically from the flow map
    ellipse = geo.Domain(geo.elliptical_domain(2.0, 1.0), m=64)
    fam = pert.FlowFamily(pert.PolynomialField({(0, 2, 0): 1.0, (1, 1, 1): 1.0}),
                          step=1e-3)
    grid = ellipse.grids[0]
    data = pert.boundary_data(fam, grid)
    analytic = pert.advective_normal_component(data, grid)

    def velocity_along(t):
        return fam.field(fam.map(grid.nodes, t))

    h = 1e-2
    estimates = []
    for step in (h, h / 2):
        d = (-velocity_along(2 * step) + 8 * velocity_along(step)
             - 8 * velocity_along(-step) + velocity_along(-2 * step)) / (12 * step)
        estimates.append(d)
    rich = estimates[1] + (estimates[1] - estimates[0]) / 15.0
    kinematic = np.einsum("ni,ni->n", rich, grid.normal)
    assert np.max(np.abs(kinematic - analytic)) <= 1e-8
    _stamp(3, "second volume/area formulas: anchors, randomized cases, "
              "flow acceleration identity", start, 60.0)


def test_criterion_4_minor_expansion():
    start = time.perf_counter()
    case = next(c for c in build_registry() if c.case_id == "jacobian-minor-expansion")
    row = case.run(CaseSettings(seed=7))
    assert row.passed and row.err <= 1e-12, row
    _stamp(4, "minor-determinant quadratic model equals the exact minor polynomial "
              "to t^2 over the registry's 20 draws", start, 5.0)


def test_criterion_5_greens_solver():
    start = time.perf_counter()
    disk = geo.Domain(geo.disk(1.0), m=128)
    solver = GreensSolver(disk, geo.all_dirichlet(1))
    y = np.array([0.3, 0.0])
    ev = solver.solve(y)

    rng = np.random.default_rng(5)
    probes = 0
    while probes < 20:
        r, a = 0.85 * np.sqrt(rng.uniform()), rng.uniform(0, TWO_PI)
        x = np.array([r * np.cos(a), r * np.sin(a)])
        if np.linalg.norm(x - y) < 0.1:
            continue
        assert abs(ev.value(x)[0] - disk_greens(x, y)) <= 1e-8
        probes += 1

    kernel = disk_poisson_kernel(disk.grids[0].thetas, y)
    assert np.max(np.abs(-ev.normal_trace(0) - kernel) / kernel) <= 1e-7

    x = np.array([-0.2, 0.5])
    assert abs(ev.value(x)[0] - solver.solve(x).value(y)[0]) <= 1e-7

    annulus = geo.Domain(geo.annulus(0.5, 1.0), m=128)
    mixed = geo.MixedBoundary(("dirichlet", "neumann"))
    asolver = GreensSolver(annulus, mixed)
    aev = asolver.solve(np.array([0.0, 0.72]))
    flux = np.dot(asolver.components[0].grid.weights, aev.normal_trace(0))
    assert abs(flux + 1.0) <= 1e-6

    for dom, mb, z, pts in (
            (disk, geo.all_dirichlet(1), "(x1**2 + x2**2)/4",
             np.array([[0.3, 0.2], [-0.4, 0.1]])),
            (annulus, mixed, "1", np.array([[0.0, 0.7], [0.6, 0.3]]))):
        rep = representation_check(dom, mb, IntegrandSpec.from_expression(z), pts)
        assert rep.max_error <= 1e-5
    _stamp(5, "Green's solver: analytic disk, Poisson kernel, symmetry, "
              "flux balance, representation", start, 30.0)


def test_criterion_6_first_variation():
    start = time.perf_counter()
    disk = geo.Domain(geo.disk(1.0), m=128)
    x, y = np.array([0.3, 0.0]), np.array([0.0, 0.4])

    solver = GreensSolver(disk, geo.all_dirichlet(1))
    value = hd.delta_n_formula(solver, pert.TaylorFamily(pert.dilation()),
                               solver.solve(np.stack([x, y])))
    oracle = hd.disk_dilation_delta_n(x, y, order=1)
    assert abs(value - oracle) / (1 + abs(oracle)) <= 1e-4

    tri = hd.delta_n_routes(disk, geo.all_dirichlet(1),
                            pert.TaylorFamily(pert.dilation()), x, y)
    assert tri.err() <= 1e-3

    annulus = geo.Domain(geo.annulus(0.5, 1.0), m=128)
    mixed = geo.MixedBoundary(("dirichlet", "neumann"))
    tri = hd.delta_n_routes(annulus, mixed,
                            pert.TaylorFamily(pert.translation(1.0, 0.0)),
                            np.array([0.0, 0.75]), np.array([-0.74, -0.1]))
    assert tri.err() <= 1e-3

    rotation = hd.delta_n_formula(solver, pert.FlowFamily(pert.rotation()),
                                  solver.solve(np.stack([x, y])))
    assert abs(rotation) <= 1e-8
    _stamp(6, "first variation: scaling oracle, route triangles, rotation null",
           start, 60.0)


def test_criterion_7_second_variation():
    start = time.perf_counter()
    ellipse = geo.Domain(geo.elliptical_domain(2.0, 1.0), m=256)
    flow = pert.FlowFamily(pert.PolynomialField({(0, 2, 0): 1.0, (1, 1, 1): 1.0}))
    assert hd.chi_sigma(ellipse, flow).max_discrepancy <= 1e-10

    disk = geo.Domain(geo.disk(1.0), m=128)
    co = hd.chi_sigma(disk, pert.TaylorFamily(pert.dilation()))
    assert np.max(np.abs(co.chi[0] + 1.0)) <= 1e-10
    assert np.max(np.abs(co.sigma[0])) <= 1e-10

    x, y = np.array([0.3, 0.0]), np.array([0.0, 0.4])
    tri = hd.delta2_n_routes(disk, geo.all_dirichlet(1),
                             pert.TaylorFamily(pert.dilation()), x, y)
    assert tri.err() <= 1e-2

    annulus = geo.Domain(geo.annulus(0.5, 1.0), m=128)
    mixed = geo.MixedBoundary(("dirichlet", "neumann"))
    xa, ya = np.array([0.0, 0.75]), np.array([-0.74, -0.1])
    fam = pert.TaylorFamily(pert.translation(1.0, 0.0))
    tri = hd.delta2_n_routes(annulus, mixed, fam, xa, ya)
    assert tri.err() <= 1e-2

    solver = GreensSolver(annulus, mixed)
    ev = solver.solve(np.stack([xa, ya]))
    udot, _ = hd.delta_n_bvp(solver, fam, ev)
    _, _, residual = hd.gradient_pairing_residual(solver, fam, ev, udot)
    assert residual <= 1e-3
    _stamp(7, "second variation: coefficient forms, anchors, route triangles, "
              "gradient pairing", start, 300.0)


@pytest.fixture(scope="module")
def registry_run(tmp_path_factory):
    """One ``run --suite all --seed 7``, shared by the gates below.

    Returns its report.json and its wall time, so criterion 8 can time both
    of its runs.
    """
    out = tmp_path_factory.mktemp("registry")
    start = time.perf_counter()
    assert cli.main(["run", "--suite", "all", "--seed", "7", "--out-dir", str(out)]) == 0
    return out / "report.json", time.perf_counter() - start


def test_criterion_8_determinism(registry_run, tmp_path):
    first_report, first_seconds = registry_run
    # the clock starts as far back as the fixture's run took, so both runs count
    start = time.perf_counter() - first_seconds
    code = cli.main(["run", "--suite", "all", "--seed", "7", "--out-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "report.json").read_bytes() == first_report.read_bytes()
    _stamp(8, "full suite twice with one seed: byte-identical report.json",
           start, 120.0)


def test_rows_with_an_fd_oracle_carry_the_fd_record(registry_run):
    """Every row with an FD oracle (a key fd, fd_* or *_fd: an FD value, or
    the gap to one as nu-dot's fd_max_gap) carries the ladder and its
    observed order, or null and the reason, in details."""
    rows = json.loads(registry_run[0].read_text())["cases"]
    fd_rows = [row for row in rows
               if any(key == "fd" or key.startswith("fd_") or key.endswith("_fd")
                      for key in row["oracles"])]
    # 23 at --seed 7: the selector is not empty.  The two mixed-annulus route
    # rows left it when they took the translation transport in place of FD
    # re-solves (25 before)
    assert len(fd_rows) >= 23
    assert "liouville-nu-dot-translation" in [row["case_id"] for row in fd_rows]
    for row in fd_rows:
        details = row["details"]
        assert details["ladder"] and "fd_observed_order" in details, row["case_id"]
        assert (details["fd_observed_order"] is None) == ("fd_observed_order_reason"
                                                          in details), row["case_id"]


# The err of every row of ``run --suite all --seed 7``: the largest over
# one and two BLAS threads and over five OpenBLAS CPU kernels (SkylakeX,
# Haswell, SandyBridge, Nehalem, Prescott, chosen by OPENBLAS_CORETYPE) of
# the scipy-openblas 0.3.31 build the project was tested with.  Rows near
# rounding move up to 17x between these settings (liouville-random-first-5
# reads 7.4e-16 to 1.3e-14).  A different
# BLAS library or build may round further from these values than that; the
# baseline holds only for the settings above.  No row is raised, so a row
# that a change moved up keeps its older value and may read above it within
# the 100x gate (greens-disk-poisson-kernel up to 2.5x,
# liouville-random-second-2 1.1x, liouville-random-first-5 and
# hadamard-delta2-rotation-zero 1.08x); ``regen_err_baseline.py`` keeps it so
# and prints such rows.
# Regenerate the baseline only with a change that means to move a row, and
# list the moved rows in CHANGES.md.
ERR_BASELINE = Path(__file__).with_name("registry_err_seed7.json")


def test_registry_err_drift(registry_run):
    """No row's err exceeds 100 x max(baseline, 1e-15).

    It runs beside the tolerance gates, not instead of them: a row can pass
    this and still fail its tolerance.  The floor keeps rounding-level rows
    (err 0 or near 1e-17) from tripping it on noise.
    """
    baseline = json.loads(ERR_BASELINE.read_text())
    errs = {row["case_id"]: float(row["err"])
            for row in json.loads(registry_run[0].read_text())["cases"]}
    assert sorted(errs) == sorted(baseline)
    drifted = {case_id: (err, baseline[case_id]) for case_id, err in errs.items()
               if not err <= 100.0 * max(baseline[case_id], 1e-15)}
    assert drifted == {}, f"err grew more than 100x over its baseline: {drifted}"


def test_a_truncated_ellipse_re_solves_on_its_kept_columns(monkeypatch):
    """The 1 x 0.5 ellipse at m=128 and 96 charges keeps 82 of its 96
    columns; every re-solve of the FD ladders of both variations, under a
    dilation and a translation, assembles and factors exactly those 82."""
    domain = geo.Domain(geo.elliptical_domain(1.0, 0.5), m=128)
    solver = GreensSolver(domain, geo.all_dirichlet(1), GreensConfig(n_charges=96))
    assert solver.solver.matrix.shape == (192, 82)
    shapes, moved = [], GreensSolver.moved

    def recorded(self, family, t):
        re_solver = moved(self, family, t)
        shapes.append(re_solver.solver.matrix.shape)
        return re_solver

    monkeypatch.setattr(GreensSolver, "moved", recorded)
    x, y = np.array([0.3, 0.0]), np.array([0.0, 0.2])
    for family in (pert.TaylorFamily(pert.dilation()),
                   pert.TaylorFamily(pert.translation(1.0, 0.0))):
        for fd in (hd.delta_n_fd, hd.delta2_n_fd):
            shapes.clear()
            assert np.isfinite(fd(solver, family, x, y).value)
            assert shapes == [(192, 82)] * (8 if fd is hd.delta_n_fd else 9)


# two boundaries beside the registry's disk and annulus: the 1 x 0.5
# ellipse, which keeps fewer columns than its ring holds, and the eps = 0.2 star
ELLIPSE_AND_STAR = {
    "ellipse": ({"name": "ellipse", "a": 1, "b": 0.5}, [[0.3, 0.0], [0.0, 0.2]]),
    "star": ({"name": "star", "r0": 1, "eps": 0.2, "k": 3}, [[0.3, 0.0], [0.0, 0.4]]),
}


def test_hadamard_rows_on_an_ellipse_and_a_star_pass_at_192_charges(tmp_path):
    """At m=256 and 192 charges the 1 x 0.5 ellipse keeps 166 of 192
    columns.  Every route row passes, the star's second variation included,
    whose BVP failed the 1e-4 check-node gate (residual 9.4e-4) on the
    former fixed 1.6 ring with gelsy's truncation."""
    cases = [{"id": f"{kind}-{variation}", "domain": domain, "mixed": ["dirichlet"],
              "family": {"kind": "taylor", "field": {"name": "dilation"}},
              "probes": probes, "variation": variation}
             for kind, (domain, probes) in ELLIPSE_AND_STAR.items()
             for variation in ("first", "second")]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"overrides": {"m": 256, "n_charges": 192},
                               "custom_hadamard": cases,
                               "cases": [case["id"] for case in cases]}))
    assert cli.main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    rows = json.loads((tmp_path / "out" / "report.json").read_text())["cases"]
    assert sorted(row["case_id"] for row in rows) == sorted(case["id"] for case in cases)
    assert all(row["passed"] and row["err"] <= 1e-11 for row in rows), rows
    assert {row["details"]["n_unknowns"] for row in rows
            if row["case_id"].startswith("ellipse")} == {166}


def test_a_mixed_annulus_second_variation_passes_at_the_default_charges(tmp_path):
    """At the CLI defaults (m=128, 96 charges) the second-variation BVP of
    the mixed annulus (Neumann outer curve, Dirichlet hole) under a dilation
    reads check residual 8.9e-5 on the 1.6 outer ring.  A ring of
    10 ** (16 / 96) = 1.47 read 1.5e-4 and failed the 1e-4 gate."""
    case = {"id": "annulus-nd-dilation-second", "domain": {"name": "annulus", "r_in": 0.5,
                                                           "r_out": 1.0},
            "mixed": ["neumann", "dirichlet"],
            "family": {"kind": "taylor", "field": {"name": "dilation"}},
            "probes": [[0.0, 0.75], [-0.74, -0.1]], "variation": "second"}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"custom_hadamard": [case], "cases": [case["id"]]}))
    assert cli.main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    [row] = json.loads((tmp_path / "out" / "report.json").read_text())["cases"]
    assert row["passed"] and row["err"] <= 1e-8, row
    assert row["details"]["n_unknowns"] == 192


@pytest.mark.parametrize("variation", [hd.delta_n_routes, hd.delta2_n_routes])
@pytest.mark.parametrize("family", [pert.TaylorFamily(pert.dilation()),
                                    pert.TaylorFamily(pert.translation(1.0, 0.0)),
                                    pert.TaylorFamily(pert.shear()),
                                    pert.FlowFamily(pert.rotation())])
def test_truncated_ellipse_routes_at_128_charges_agree_to_1e_8(variation, family):
    """At m=256 and 128 charges the 1 x 0.5 ellipse keeps 108 of 128
    columns, and each route row on three probe pairs reads err at most
    1.5e-9 (2.9e-9 on the former fixed rings with gelsy).  A ring of
    10 ** (16 / 128) = 1.33 read 6.3e-6: the tangent's least-squares term
    amplified the larger fit residual of that ring."""
    domain = geo.Domain(geo.elliptical_domain(1.0, 0.5), m=256)
    for x, y in [((0.3, 0.0), (0.0, 0.2)), ((0.6, 0.1), (-0.5, -0.2)),
                 ((-0.2, 0.3), (0.7, -0.1))]:
        tri = variation(domain, geo.all_dirichlet(1), family, x, y,
                        GreensConfig(n_charges=128))
        assert tri.n_unknowns == 108
        assert tri.err() <= 1e-8, (x, y, tri.formula, tri.bvp, tri.tangent)
