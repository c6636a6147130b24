"""Per-point check suites shared by the command-line front end and the
tests: frame invariants, connection and torsion structure, curvature
identities, and the twistor-level checks, each with its tolerance."""

from dataclasses import dataclass

import numpy as np

from . import twistor as tw
from .connection import torsion_reconstruction_check, torsion_tensors
from .curvature import (FrozenPivotStage, alpha_identity_check,
                        curvature_at_point, ricci_decomposition_residual)
from .tolerances import DEFAULT_STEPS, DEFAULT_TOLERANCES


@dataclass
class CheckResult:
    name: str
    residual: float
    tolerance: float
    status: str   # pass | fail | n/a

    @classmethod
    def from_value(cls, name, residual, tolerance):
        status = "pass" if residual <= tolerance else "fail"
        return cls(name, float(residual), float(tolerance), status)


def frame_checks(frame, tol=DEFAULT_TOLERANCES):
    res = frame.validate(tol)
    mapping = {
        "frame-annihilation": (max(res["eta_on_H"], res["duality"]),
                               tol.frame_annihilation),
        "frame-orthonormality": (max(res["gram_H"], res["gram_V"],
                                     res["gram_cross"]), tol.frame_gram),
        "frame-compatibility": (res["compat"], tol.frame_compat),
        "frame-quaternion-relations": (res["quaternion"], tol.recovery),
        "reeb-compatibility": (res["reeb"], tol.reeb),
    }
    return [CheckResult.from_value(k, v, t) for k, (v, t) in mapping.items()]


def connection_checks(conn, torsion, tol=DEFAULT_TOLERANCES):
    d = conn.diagnostics
    split = torsion.diagnostics
    out = [
        CheckResult.from_value("connection-metricity",
                               max(d["metricity_H"], d["V_metricity"]),
                               tol.connection),
        CheckResult.from_value("connection-horizontal-torsion",
                               d["torsion_H"], tol.connection),
        CheckResult.from_value("quaternion-bundle-preservation",
                               d["q_preservation"], tol.connection),
        CheckResult.from_value("torsion-orthogonality",
                               d["torsion_direction"], tol.connection),
        CheckResult.from_value("torsion-trace-free",
                               max(d["torsion_trace"], d["torsion_trace_I"]),
                               tol.connection),
        CheckResult.from_value("torsion-symmetric-structure",
                               max(split["t0_anticommute"],
                                   split["t0_cross_relations"]),
                               tol.connection),
        CheckResult.from_value("torsion-skew-structure",
                               max(split["u_spread"], split["u_symmetry"],
                                   split["u_trace"], split["u_commute"]),
                               tol.u_tensor),
    ]
    if "u_norm_dim7" in split:
        out.append(CheckResult.from_value("u-vanishes-dim7",
                                          split["u_norm_dim7"],
                                          tol.u_vanish_dim7))
    return out


def torsion_tensor_checks(torsion, tol=DEFAULT_TOLERANCES):
    d = torsion.diagnostics
    return [
        CheckResult.from_value("t0-quaternion-sum", d["t0_quaternion_sum"],
                               tol.connection),
        CheckResult.from_value("u-quaternion-invariance",
                               d["u_quaternion_invariance"], tol.connection),
        CheckResult.from_value("torsion-form-traces", d["form_traces"],
                               tol.connection),
        CheckResult.from_value("torsion-form-symmetry", d["form_symmetry"],
                               tol.connection),
        CheckResult.from_value("t0-endomorphism-equivalence",
                               d["t0_endo_equivalence"], tol.connection),
    ]


def curvature_checks(conn, curv, torsion, tol=DEFAULT_TOLERANCES):
    ric_sym = float(np.abs(curv.Ric - curv.Ric.T).max())
    return [
        CheckResult.from_value("curvature-metricity",
                               curv.diagnostics["curvature_metricity"],
                               tol.curvature_skew),
        CheckResult.from_value("ricci-symmetry", ric_sym, tol.ricci_symmetry),
        CheckResult.from_value(
            "ricci-decomposition",
            ricci_decomposition_residual(curv, torsion, conn.fourn),
            tol.ricci_decomposition),
        CheckResult.from_value(
            "vertical-connection-forms",
            alpha_identity_check(conn, curv),
            tol.vertical_forms),
        CheckResult.from_value(
            "torsion-reconstruction", torsion_reconstruction_check(conn, torsion),
            tol.connection),
    ]


def twistor_pointwise_checks(ctx, seed=0, tol=DEFAULT_TOLERANCES):
    """Algebraic identities of the contact-metric structure at one twistor
    point, on seeded random tangent vectors."""
    rng = np.random.default_rng(seed)
    fourn = ctx.fourn
    x = ctx.x
    phi_sq = 0.0
    def_res = 0.0
    compat = 0.0
    diff_compat = 0.0
    chi = ctx.chi()
    for _ in range(20):
        t1 = tw.TwistorTangent(rng.standard_normal(fourn),
                               rng.standard_normal(3),
                               np.cross(x, rng.standard_normal(3)))
        t2 = tw.TwistorTangent(rng.standard_normal(fourn),
                               rng.standard_normal(3),
                               np.cross(x, rng.standard_normal(3)))
        p2 = tw.phi(ctx, tw.phi(ctx, t1))
        phi_sq = max(
            phi_sq,
            np.abs(p2.baseH + t1.baseH).max(),
            np.abs(p2.baseV + t1.baseV - tw.eta_Z(ctx, t1) * x).max(),
            np.abs(p2.vert + t1.vert).max())
        g12 = tw.metric_G(ctx, t1, t2)
        def_res = max(def_res,
                      abs(g12 - tw.metric_G_from_definition(ctx, t1, t2)))
        compat = max(compat, abs(
            tw.metric_G(ctx, tw.phi(ctx, t1), tw.phi(ctx, t2))
            - g12 + tw.eta_Z(ctx, t1) * tw.eta_Z(ctx, t2)))
        diff_compat = max(diff_compat, abs(
            tw.d_eta_Z(ctx, t1, t2)
            - 2.0 * tw.metric_G(ctx, tw.phi(ctx, t1), t2)))
    reeb_pair = abs(tw.metric_G(ctx, chi, chi) - 1.0)
    return [
        CheckResult.from_value("contact-endomorphism-square", phi_sq,
                               tol.algebra),
        CheckResult.from_value("metric-definition-consistency", def_res,
                               1e-8),
        CheckResult.from_value("metric-contact-compatibility", compat, 1e-8),
        CheckResult.from_value("differential-metric-compatibility",
                               diff_compat, 1e-8),
        CheckResult.from_value("reeb-unit-norm", reeb_pair, tol.algebra),
    ]


def zero_torsion_system_checks(report, tol=DEFAULT_TOLERANCES):
    """Residuals of the system that must vanish when the symmetric torsion
    tensor is zero; evaluated only in that regime."""
    if report.t0_norm > 10.0 * tol.t0:
        return [CheckResult("zero-torsion-system", float(report.t0_norm),
                            tol.normal, "n/a")]
    return [
        CheckResult.from_value("zero-torsion-mixed-slots",
                               report.mixed_residual, tol.normal),
        CheckResult.from_value("zero-torsion-vertical-trace",
                               report.vertical_trace_residual, tol.normal),
        CheckResult.from_value("zero-torsion-vertical-cross",
                               report.vertical_cross_residual, tol.normal),
    ]


def identity_suite(chart, u, x, steps=DEFAULT_STEPS, tol=DEFAULT_TOLERANCES,
                   seed=0, cr_pairs=6):
    """The full identity suite at one base point and one fibre point.
    Returns a list of CheckResult."""
    u = np.asarray(u, dtype=float)
    base = tw.base_point_data(chart, u, steps=steps, tol=tol)
    checks = frame_checks(base.frame, tol)
    checks += connection_checks(base.conn, base.torsion, tol)
    checks += torsion_tensor_checks(base.torsion, tol)
    checks += curvature_checks(base.conn, base.curv, base.torsion, tol)

    ctx = tw.TwistorContext(chart=chart, tp=tw.TwistorPoint(u, x),
                            frame=base.frame, tau=base.tau)
    checks += twistor_pointwise_checks(ctx, seed=seed, tol=tol)
    checks.append(CheckResult.from_value(
        "contact-differential-oracle",
        tw.d_eta_Z_fd_oracle(base.stage, x), tol.vertical_forms))
    cr = tw.cr_nijenhuis_residual(base.stage, x, sample_pairs=cr_pairs,
                                  seed=seed)
    checks.append(CheckResult.from_value("cr-integrability",
                                         cr["nijenhuis"], tol.normal))
    checks.append(CheckResult.from_value("cr-levi-invariance", cr["levi"],
                                         tol.vertical_forms))

    report = tw.report_from_base(base, x, tol=tol)
    checks += zero_torsion_system_checks(report, tol)
    return checks


def invariants_row(chart, u, steps=DEFAULT_STEPS, tol=DEFAULT_TOLERANCES):
    """One report row: torsion invariants, scalar curvature, tau, and the
    Ricci-decomposition residual at a point."""
    stage = FrozenPivotStage(chart, u, steps, tol)
    conn = stage.connection(stage.u)
    torsion = torsion_tensors(conn, tol)
    curv = curvature_at_point(stage, stage.u, pairs="horizontal")
    return {
        "t0_norm": torsion.t0_norm,
        "u_norm": torsion.u_norm,
        "scal": curv.Scal,
        "tau": curv.tau,
        "ricci_residual": ricci_decomposition_residual(curv, torsion,
                                                       conn.fourn),
    }
