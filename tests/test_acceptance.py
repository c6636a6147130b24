"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with `pytest tests/test_acceptance.py -v -s`.

Heavy per-point pipeline data is computed once per chart in module fixtures
and shared across criteria; the wall-clock budget assertions charge the
fixture build to the first criterion that needs it.
"""

import time

import numpy as np
import pytest

from qclab import twistor as tw
from qclab.algebra import (QuaternionTriple, endo_inner, four_part_decompose,
                           four_part_max_residual, project_P,
                           project_torsion_space, sp1_component,
                           standard_triple)
from qclab.catalog import conformal, heisenberg
from qclab.connection import torsion_reconstruction_check, torsion_tensors
from qclab.curvature import (FrozenPivotStage, curvature_at_point,
                             ricci_decomposition_residual)

SEED = 2026
N_POINTS = 20
N_SMOKE = 5

_timings = {}
_t_module_start = time.time()


def _record(num, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] criterion {num}: {description}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def _timed(key, builder):
    start = time.time()
    out = builder()
    _timings[key] = time.time() - start
    return out


@pytest.fixture(scope="module")
def h1():
    return heisenberg(1)


@pytest.fixture(scope="module")
def h1_deformed(h1):
    return conformal(h1, "exp(0.2*u1)")


@pytest.fixture(scope="module")
def h2():
    return heisenberg(2)


@pytest.fixture(scope="module")
def h1_points(h1):
    return list(h1.sample_points(N_POINTS, SEED))


@pytest.fixture(scope="module")
def fibres():
    return tw.fibonacci_sphere(N_POINTS)


@pytest.fixture(scope="module")
def h1_bundles(h1, h1_points):
    return _timed("h1", lambda: [tw.base_point_data(h1, u) for u in h1_points])


@pytest.fixture(scope="module")
def deformed_bundles(h1_deformed, h1_points):
    return _timed("deformed",
                  lambda: [tw.base_point_data(h1_deformed, u)
                           for u in h1_points])


@pytest.fixture(scope="module")
def h2_invariant_data(h2):
    def build():
        rows = []
        for u in h2.sample_points(N_POINTS, SEED):
            stage = FrozenPivotStage(h2, u)
            conn = stage.connection(u)
            tors = torsion_tensors(conn)
            curv = curvature_at_point(stage, u, pairs="horizontal")
            rows.append((conn, tors, curv))
        return rows
    return _timed("h2-invariants", build)


@pytest.fixture(scope="module")
def h2_bundles(h2):
    points = h2.sample_points(N_SMOKE, SEED)
    return _timed("h2-full",
                  lambda: [tw.base_point_data(h2, u) for u in points])


def _random_triple(n, seed):
    rng = np.random.default_rng(seed)
    base = standard_triple(n)
    q, _ = np.linalg.qr(rng.standard_normal((4 * n, 4 * n)))
    return QuaternionTriple(*(q @ I @ q.T for I in base))


def test_criterion_1_algebra_exactness():
    start = time.time()
    tol = 1e-12
    worst = 0.0
    for n in (1, 2):
        for seed in range(100):
            T = _random_triple(n, seed)
            worst = max(worst, T.max_relation_residual())
            rng = np.random.default_rng(seed + 10**6)
            psi = rng.standard_normal((4 * n, 4 * n))
            split = four_part_decompose(psi, T)
            worst = max(worst, np.abs(split.total() - psi).max())
            worst = max(worst, four_part_max_residual(split, T))
            p_part = project_P(psi, T)
            sp1_part = sp1_component(psi, T)
            rest = project_torsion_space(psi, T)
            worst = max(worst, np.abs(project_P(p_part, T) - p_part).max())
            worst = max(worst,
                        np.abs(project_torsion_space(rest, T) - rest).max())
            worst = max(worst, abs(endo_inner(p_part, sp1_part)),
                        abs(endo_inner(p_part, rest)),
                        abs(endo_inner(sp1_part, rest)))
    elapsed = time.time() - start
    _record(1, "algebra exactness (100 seeds x n in {1,2})",
            worst <= tol and elapsed < 5.0,
            f"max residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_flat_model_zero_set(h1_bundles, fibres):
    start = time.time()
    worst = {"reeb": 0.0, "t0": 0.0, "u": 0.0, "scal": 0.0, "slots": 0.0}
    verdicts = []
    for data, x in zip(h1_bundles, fibres):
        worst["reeb"] = max(worst["reeb"], data.frame.reeb_residual)
        worst["t0"] = max(worst["t0"], data.torsion.t0_norm)
        worst["u"] = max(worst["u"], data.torsion.u_norm)
        worst["scal"] = max(worst["scal"], abs(data.curv.Scal))
        rep = tw.report_from_base(data, x)
        worst["slots"] = max(worst["slots"], rep.normality_residual)
        verdicts.append(rep.verdict)
    elapsed = (time.time() - start) + _timings["h1"]
    ok = (worst["reeb"] <= 1e-9 and worst["t0"] <= 1e-6
          and worst["u"] <= 1e-6 and worst["scal"] <= 1e-6
          and worst["slots"] <= 1e-5
          and all(v == "normal" for v in verdicts)
          and elapsed < 30.0)
    _record(2, "flat-model zero set at 20 points",
            ok, f"reeb {worst['reeb']:.1e}, T0 {worst['t0']:.1e}, "
                f"U {worst['u']:.1e}, Scal {worst['scal']:.1e}, "
                f"slots {worst['slots']:.1e}, {elapsed:.1f}s")


def test_criterion_3_deformation_breaks_normality(h1_deformed,
                                                  deformed_bundles, fibres):
    large_t0 = sum(d.torsion.t0_norm >= 1e-4 for d in deformed_bundles)
    residual_ok = True
    two_path = 0.0
    for data, x in zip(deformed_bundles, fibres):
        rep_alg = tw.report_from_base(data, x)
        if data.torsion.t0_norm >= 1e-4:
            residual_ok &= rep_alg.normality_residual >= 1e-3
        rep_pipe = tw.lie_chi_G(h1_deformed, data.frame.point, x)
        two_path = max(two_path, np.abs(rep_pipe.hh - rep_alg.hh).max())
    ok = (large_t0 >= 0.9 * len(deformed_bundles) and residual_ok
          and two_path <= 1e-5)
    _record(3, "deformed chart: nonzero torsion and broken normality",
            ok, f"T0>=1e-4 at {large_t0}/{len(deformed_bundles)} points, "
                f"two-path slot agreement {two_path:.1e}")


def test_criterion_4_independent_oracle(h1_bundles, deformed_bundles, fibres):
    worst = 0.0
    for bundles in (h1_bundles, deformed_bundles):
        data = bundles[0]
        x = fibres[0]
        rep = tw.report_from_base(data, x)
        out = tw.normality_direct_oracle(data.stage, x, sample_pairs=20,
                                         seed=3, report=rep)
        worst = max(worst, out["max_deviation"])
    _record(4, "finite-difference Lie-derivative oracle vs closed forms",
            worst <= 1e-4, f"max deviation {worst:.1e}")


def test_criterion_5_ricci_decomposition(h1_bundles, deformed_bundles,
                                         h2_invariant_data):
    worst = 0.0
    for bundles in (h1_bundles, deformed_bundles):
        for data in bundles:
            worst = max(worst, ricci_decomposition_residual(
                data.curv, data.torsion, data.frame.fourn))
    for conn, tors, curv in h2_invariant_data:
        worst = max(worst, ricci_decomposition_residual(curv, tors, 8))
    _record(5, "Ricci decomposition on all catalog charts at 20 points",
            worst <= 1e-4, f"max slot residual {worst:.1e}")


def test_criterion_6_torsion_structure(h1_bundles, deformed_bundles):
    worst_sum = worst_rec = worst_trace = worst_u = 0.0
    for bundles in (h1_bundles, deformed_bundles):
        for data in bundles:
            d = data.torsion.diagnostics
            worst_sum = max(worst_sum, d["t0_quaternion_sum"],
                            d["u_quaternion_invariance"])
            worst_rec = max(worst_rec,
                            torsion_reconstruction_check(data.conn, data.torsion))
            worst_trace = max(worst_trace, d["form_traces"],
                              data.conn.diagnostics["torsion_trace"],
                              data.conn.diagnostics["torsion_trace_I"])
            worst_u = max(worst_u, data.torsion.u_norm)
    ok = (worst_sum <= 1e-7 and worst_rec <= 1e-7 and worst_trace <= 1e-7
          and worst_u <= 1e-8)
    _record(6, "structural torsion identities",
            ok, f"quaternion-sum {worst_sum:.1e}, reconstruction "
                f"{worst_rec:.1e}, traces {worst_trace:.1e}, "
                f"u (n=1) {worst_u:.1e}")


def test_criterion_7_contact_metric_identities(h1_bundles, deformed_bundles,
                                               fibres):
    worst_phi = worst_compat = worst_diff = 0.0
    rng = np.random.default_rng(7)
    for bundles in (h1_bundles, deformed_bundles):
        for data, x in list(zip(bundles, fibres))[:5]:
            ctx = tw.TwistorContext(chart=bundles[0].chart,
                                    tp=tw.TwistorPoint(data.frame.point, x),
                                    frame=data.frame, tau=data.curv.tau)
            for _ in range(10):
                t1 = tw.TwistorTangent(rng.standard_normal(4),
                                       rng.standard_normal(3),
                                       np.cross(x, rng.standard_normal(3)))
                t2 = tw.TwistorTangent(rng.standard_normal(4),
                                       rng.standard_normal(3),
                                       np.cross(x, rng.standard_normal(3)))
                p2 = tw.phi(ctx, tw.phi(ctx, t1))
                eta1 = tw.eta_Z(ctx, t1)
                worst_phi = max(
                    worst_phi,
                    np.abs(p2.baseH + t1.baseH).max(),
                    np.abs(p2.baseV + t1.baseV - eta1 * np.asarray(x)).max(),
                    np.abs(p2.vert + t1.vert).max())
                g12 = tw.metric_G(ctx, t1, t2)
                worst_compat = max(worst_compat, abs(
                    tw.metric_G(ctx, tw.phi(ctx, t1), tw.phi(ctx, t2))
                    - g12 + eta1 * tw.eta_Z(ctx, t2)))
                worst_diff = max(worst_diff, abs(
                    tw.d_eta_Z(ctx, t1, t2)
                    - 2.0 * tw.metric_G(ctx, tw.phi(ctx, t1), t2)))
    fd_flat = tw.d_eta_Z_fd_oracle(h1_bundles[0].stage, fibres[0])
    fd_def = tw.d_eta_Z_fd_oracle(deformed_bundles[0].stage, fibres[0])
    ok = (worst_phi <= 1e-12 and worst_compat <= 1e-8 and worst_diff <= 1e-8
          and fd_flat <= 1e-5 and fd_def <= 1e-5)
    _record(7, "twistor contact-metric identities",
            ok, f"phi^2 {worst_phi:.1e}, compat {worst_compat:.1e}, "
                f"differential {worst_diff:.1e}, FD oracle "
                f"{max(fd_flat, fd_def):.1e}")


def test_criterion_8_cr_integrability(h1_bundles, deformed_bundles, fibres):
    worst_n = worst_l = 0.0
    for bundles in (h1_bundles, deformed_bundles):
        out = tw.cr_nijenhuis_residual(bundles[0].stage, fibres[0],
                                       sample_pairs=8, seed=5)
        worst_n = max(worst_n, out["nijenhuis"])
        worst_l = max(worst_l, out["levi"])
    _record(8, "CR integrability spot check on both charts",
            worst_n <= 1e-4 and worst_l <= 1e-5,
            f"nijenhuis {worst_n:.1e}, levi {worst_l:.1e}")


def test_criterion_9_zero_torsion_system(h1_bundles, fibres):
    worst = 0.0
    for data, x in zip(h1_bundles, fibres):
        rep = tw.report_from_base(data, x)
        worst = max(worst, rep.mixed_residual, rep.vertical_trace_residual,
                    rep.vertical_cross_residual)
    _record(9, "zero-torsion twistor system at 20 fibre points",
            worst <= 1e-4, f"max residual {worst:.1e}")


def test_criterion_10_ricci_commutation(h1_bundles, deformed_bundles):
    worst_flat = 0.0
    for data in h1_bundles:
        for s in range(3):
            I = data.frame.I[s]
            comm = I.T @ data.curv.Ric @ I - data.curv.Ric
            worst_flat = max(worst_flat, np.abs(comm).max())
    violation = np.inf
    worst_identity = 0.0
    n = 1
    for data in deformed_bundles:
        point_worst = 0.0
        for s in range(3):
            I = data.frame.I[s]
            comm = I.T @ data.curv.Ric @ I - data.curv.Ric
            expected = (2 * n + 2) * (I.T @ data.torsion.T0 @ I
                                      - data.torsion.T0)
            worst_identity = max(worst_identity,
                                 np.abs(comm - expected).max())
            point_worst = max(point_worst, np.abs(comm).max())
        violation = min(violation, point_worst)
    ok = worst_flat <= 1e-4 and violation >= 1e-3 and worst_identity <= 1e-4
    _record(10, "Ricci commutes with the triple iff torsion vanishes",
            ok, f"flat {worst_flat:.1e}, deformed violation >= "
                f"{violation:.1e}, identity {worst_identity:.1e}")


def test_criterion_11_n2_smoke(h2_invariant_data, h2_bundles):
    worst = {"reeb": 0.0, "t0": 0.0, "u": 0.0, "scal": 0.0, "slots": 0.0,
             "ric": 0.0, "sum": 0.0, "rec": 0.0, "trace": 0.0}
    fibres = tw.fibonacci_sphere(N_SMOKE)
    verdicts = []
    for data, x in zip(h2_bundles, fibres):
        worst["reeb"] = max(worst["reeb"], data.frame.reeb_residual)
        worst["t0"] = max(worst["t0"], data.torsion.t0_norm)
        worst["u"] = max(worst["u"], data.torsion.u_norm)
        worst["scal"] = max(worst["scal"], abs(data.curv.Scal))
        rep = tw.report_from_base(data, x)
        worst["slots"] = max(worst["slots"], rep.normality_residual)
        verdicts.append(rep.verdict)
        d = data.torsion.diagnostics
        worst["sum"] = max(worst["sum"], d["t0_quaternion_sum"],
                           d["u_quaternion_invariance"])
        worst["rec"] = max(worst["rec"], torsion_reconstruction_check(data.conn, data.torsion))
        worst["trace"] = max(worst["trace"], d["form_traces"])
        worst["ric"] = max(worst["ric"], ricci_decomposition_residual(
            data.curv, data.torsion, 8))
    ok = (worst["reeb"] <= 1e-9 and worst["t0"] <= 1e-6
          and worst["u"] <= 1e-6 and worst["scal"] <= 1e-6
          and worst["slots"] <= 1e-5 and worst["ric"] <= 1e-4
          and worst["sum"] <= 1e-7 and worst["rec"] <= 1e-7
          and worst["trace"] <= 1e-7
          and all(v == "normal" for v in verdicts))
    _record(11, "n = 2 smoke of the flat-model, Ricci and torsion criteria",
            ok, ", ".join(f"{k} {v:.1e}" for k, v in worst.items()))


def test_total_suite_runtime_budget():
    elapsed = time.time() - _t_module_start
    _record("11b", "acceptance suite wall time under five minutes",
            elapsed < 300.0, f"{elapsed:.0f}s")
