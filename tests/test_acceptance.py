"""Acceptance gate: every criterion at its declared tolerance.

Each test prints one PASS line (visible with ``pytest -s``) after its
assertions; a failure surfaces through pytest as usual.  Tolerances are
fixed here, not configurable.
"""

import importlib.util
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
    flux = np.dot(asolver.components[0].weights, aev.normal_trace(0))
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
    assert tri.max_pairwise <= 1e-3

    annulus = geo.Domain(geo.annulus(0.5, 1.0), m=128)
    mixed = geo.MixedBoundary(("dirichlet", "neumann"))
    tri = hd.delta_n_routes(annulus, mixed,
                            pert.TaylorFamily(pert.translation(1.0, 0.0)),
                            np.array([0.0, 0.75]), np.array([-0.74, -0.1]))
    assert tri.max_pairwise <= 1e-3

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
    assert tri.max_pairwise <= 1e-2

    annulus = geo.Domain(geo.annulus(0.5, 1.0), m=128)
    mixed = geo.MixedBoundary(("dirichlet", "neumann"))
    xa, ya = np.array([0.0, 0.75]), np.array([-0.74, -0.1])
    fam = pert.TaylorFamily(pert.translation(1.0, 0.0))
    tri = hd.delta2_n_routes(annulus, mixed, fam, xa, ya)
    assert tri.max_pairwise <= 1e-2

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
    assert len(fd_rows) >= 25  # 25 at --seed 7: the selector is not empty
    assert "liouville-nu-dot-translation" in [row["case_id"] for row in fd_rows]
    for row in fd_rows:
        details = row["details"]
        assert details["ladder"] and "fd_observed_order" in details, row["case_id"]
        assert (details["fd_observed_order"] is None) == ("fd_observed_order_reason"
                                                          in details), row["case_id"]


# The err of every row of ``run --suite all --seed 7``: the largest over
# one and two BLAS threads and over five OpenBLAS CPU kernels (SkylakeX,
# Haswell, SandyBridge, Nehalem, Prescott, chosen by OPENBLAS_CORETYPE) of
# the scipy-openblas 0.3.31 build the project was tested with.  Some annulus
# rows move up to 33x between these settings.  A different BLAS library or
# build may round further from these values than that; the baseline holds
# only for the settings above, with one exception:
# hadamard-delta2-n-triangle-annulus, whose err is the worst gap of four
# values (the FD ladder beside the three routes), reads up to 2.58e-9 with
# Nehalem and two threads against its 2.36e-9.  Its baseline stays, since no
# row is loosened, and the 100x gate covers it.  Regenerate the baseline
# only with a change that means to move a row, and list the moved rows in
# CHANGES.md.
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


def _route_rows(report: Path) -> list[dict]:
    """The rows of ``report`` that re-solve along an FD ladder."""
    return [row for row in json.loads(report.read_text())["cases"]
            if "re_solve_ranks" in row["details"]]


def test_registry_re_solves_keep_the_base_rank_at_every_t(registry_run):
    """The discretization is continuous in t: every re-solve of every FD
    ladder of a route row (the two mixed-annulus triangles, where FD
    re-solves are the tangent's oracle) has the rank its base solve decided
    at t = 0."""
    rows = _route_rows(registry_run[0])
    assert len(rows) == 2
    for row in rows:
        details = row["details"]
        assert details["re_solve_ranks"] == [details["solve_rank"]] * len(
            details["re_solve_ranks"]), row["case_id"]


WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def test_a_truncated_annulus_re_solves_at_its_base_rank():
    """The green-variations benchmark's seed-3 mixed annulus (m=256,
    n_charges=192) keeps 226 of 384 columns at t = 0; the FD re-solves of its
    four cases, which gelsy truncated to 223-225 columns at some t, keep all
    226."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    cfg = workloads.generate("green-variations", 3)
    cases = [case for case in cfg["custom_hadamard"] if "-annulus-dn-" in case["id"]]
    assert len(cases) == 4
    domain = geo.Domain(geo.annulus(0.5, 1.0), m=cfg["overrides"]["m"])
    config = GreensConfig(n_charges=cfg["overrides"]["n_charges"])
    solver = GreensSolver(domain, geo.MixedBoundary(("dirichlet", "neumann")), config)
    for case in cases:
        field = dict(case["family"]["field"])
        family = pert.TaylorFamily(getattr(pert, field.pop("name"))(**field))
        x, y = np.asarray(case["probes"], dtype=float)
        solver.solve(np.stack([x, y]))
        fd = hd.delta_n_fd if case["variation"] == "first" else hd.delta2_n_fd
        ranks = fd(solver, family, x, y).re_solve_ranks
        assert solver.solver.rank < solver.solver.matrix.shape[1] == 384, case["id"]
        assert ranks == (solver.solver.rank,) * len(ranks), case["id"]
