"""Twistor-space structures at a point (p, I) of the unit sphere bundle of
the quaternionic bundle.

A fibre point is I = x1 I_1 + x2 I_2 + x3 I_3 with |x| = 1.  Tangent vectors
split into the horizontal lift of T_pM (base part, itself split into H and V
components) and the vertical directions tangent to the fibre sphere.  The
module provides the contact form, the almost-contact endomorphism, the
associated (indefinite) metric and its differential in closed form; the
Lie-derivative slots of the metric along the Reeb lift, whose vanishing on
the contact distribution is the normality condition; an independent
finite-difference oracle computing the same Lie derivative directly on the
sphere-bundle coordinates; and a Nijenhuis-tensor spot check of the CR
structure.

All closed-form slots are evaluated in the rotated gauge in which the first
triple member equals I; the rotation is applied either to the whole chart
(so every downstream quantity is recomputed in the rotated gauge) or
algebraically to tensors computed once in the catalog gauge.  The two routes
are independent implementations of the same tensors and are compared by the
test suite.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import v_cross
from .chart import PointFrame
from .connection import torsion_tensors
from .curvature import FrozenPivotStage, curvature_at_point
from .tolerances import DEFAULT_STEPS, DEFAULT_TOLERANCES


# --- fibre geometry ---------------------------------------------------------

def rotation_from_x(x):
    """SO(3) matrix whose first row is x: the minimal rotation about the
    axis (1,0,0) x x, with the fixed half-turn diag(-1,-1,1) at x = -e1."""
    x = np.asarray(x, dtype=float)
    c = x[0]
    if 1.0 + c < 1e-12:
        return np.diag([-1.0, -1.0, 1.0])
    v = np.array([0.0, -x[2], x[1]])  # e1 x x
    K = np.array([[0.0, -v[2], v[1]],
                  [v[2], 0.0, -v[0]],
                  [-v[1], v[0], 0.0]])
    Q = np.eye(3) + K + K @ K / (1.0 + c)
    return Q.T


def fibonacci_sphere(count):
    """Deterministic, roughly uniform points on the unit 2-sphere."""
    golden = np.pi * (3.0 - np.sqrt(5.0))
    pts = np.empty((count, 3))
    for i in range(count):
        z = 1.0 - (2.0 * i + 1.0) / count
        r = np.sqrt(max(0.0, 1.0 - z * z))
        phi = golden * i
        pts[i] = (r * np.cos(phi), r * np.sin(phi), z)
    return pts


@dataclass(frozen=True)
class TwistorPoint:
    u: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if abs(np.linalg.norm(x) - 1.0) > 1e-12:
            raise ValueError("fibre coordinate must be a unit 3-vector")
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        object.__setattr__(self, "x", x)


@dataclass
class TwistorTangent:
    """Tangent vector at (p, I) in components: ``baseH`` in the adapted
    H-frame, ``baseV`` in the catalog-gauge Reeb frame, ``vert`` as fibre
    coefficients (constrained to x . vert = 0)."""

    baseH: np.ndarray
    baseV: np.ndarray
    vert: np.ndarray

    def __post_init__(self):
        self.baseH = np.asarray(self.baseH, dtype=float)
        self.baseV = np.asarray(self.baseV, dtype=float)
        self.vert = np.asarray(self.vert, dtype=float)

    @classmethod
    def zero(cls, fourn):
        return cls(np.zeros(fourn), np.zeros(3), np.zeros(3))


def gauge_rotate(fr, x):
    """PointFrame with the admissible triple rotated so that the first
    member of the rotated triple equals x1 I_1 + x2 I_2 + x3 I_3.  The
    H-frame, the metric and the compatibility residual are unchanged."""
    rot = rotation_from_x(x)
    return PointFrame(
        point=fr.point,
        eH=fr.eH,
        xi=fr.xi @ rot.T,
        I=fr.I.rotated(rot),
        reeb_residual=fr.reeb_residual,
        coframe=rot @ fr.coframe,
        dcoframe=np.einsum("st,trq->srq", rot, fr.dcoframe),
        g_coord=fr.g_coord,
        pivot_order=fr.pivot_order,
    )


# --- pointwise contact-metric structure --------------------------------------

@dataclass
class TwistorContext:
    """Everything needed to evaluate the contact-metric structure at one
    twistor point: the catalog-gauge frame, tau, and the combined structure
    I = sum_s x_s I_s in the H-frame."""

    chart: object
    tp: TwistorPoint
    frame: PointFrame
    tau: float

    @property
    def x(self):
        return self.tp.x

    @property
    def fourn(self):
        return self.frame.fourn

    @property
    def i_matrix(self):
        return self.frame.I.combine(self.x)

    def chi(self):
        return TwistorTangent(np.zeros(self.fourn), self.x.copy(), np.zeros(3))


def twistor_context(chart, u, x, steps=DEFAULT_STEPS, tol=DEFAULT_TOLERANCES):
    tp = TwistorPoint(np.asarray(u, dtype=float), np.asarray(x, dtype=float))
    stage = FrozenPivotStage(chart, tp.u, steps, tol)
    return TwistorContext(chart=chart, tp=tp, frame=stage.frame(tp.u),
                          tau=stage.tau(tp.u))


def eta_Z(ctx, t):
    """Contact form: vanishes on the horizontal H-lift and on the fibre."""
    return float(ctx.x @ t.baseV)


def phi(ctx, t):
    """Almost-contact endomorphism: I on the H-lift, the cross product with
    x on the complement of the Reeb lift and on the fibre."""
    return TwistorTangent(
        ctx.i_matrix @ t.baseH,
        v_cross(ctx.x, t.baseV),
        v_cross(ctx.x, t.vert),
    )


def d_eta_Z(ctx, t1, t2):
    """Differential of the contact form (closed form)."""
    x = ctx.x
    out = 2.0 * float((ctx.i_matrix @ t1.baseH) @ t2.baseH)
    out -= 2.0 * ctx.tau * float(v_cross(x, t1.baseV) @ t2.baseV)
    out -= float(t1.baseV @ t2.vert)
    out += float(t2.baseV @ t1.vert)
    return out


def metric_G(ctx, t1, t2):
    """Associated metric (closed form); agrees with
    (1/2) d eta_Z(., Phi .) + eta_Z (x) eta_Z."""
    x = ctx.x
    out = float(t1.baseH @ t2.baseH)
    out -= ctx.tau * float(t1.baseV @ t2.baseV)
    out += (ctx.tau + 1.0) * float(x @ t1.baseV) * float(x @ t2.baseV)
    out += 0.5 * float(v_cross(x, t1.baseV) @ t2.vert)
    out += 0.5 * float(v_cross(x, t2.baseV) @ t1.vert)
    return out


def metric_G_from_definition(ctx, t1, t2):
    return 0.5 * d_eta_Z(ctx, t1, phi(ctx, t2)) + eta_Z(ctx, t1) * eta_Z(ctx, t2)


def tangent_basis(ctx):
    """Basis of the full tangent space at the twistor point: H-lifts, Reeb
    lifts, and the two fibre directions orthogonal to x (rows 2, 3 of the
    gauge rotation)."""
    fourn = ctx.fourn
    rot = rotation_from_x(ctx.x)
    basis = []
    for a in range(fourn):
        t = TwistorTangent.zero(fourn)
        t.baseH[a] = 1.0
        basis.append(t)
    for s in range(3):
        t = TwistorTangent.zero(fourn)
        t.baseV[s] = 1.0
        basis.append(t)
    for s in (1, 2):
        basis.append(TwistorTangent(np.zeros(fourn), np.zeros(3),
                                    rot[s].copy()))
    return basis


def g_signature(ctx):
    """Eigenvalue sign counts (positive, negative, zero) of the Gram matrix
    of the metric over the full tangent basis."""
    basis = tangent_basis(ctx)
    k = len(basis)
    gram = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            gram[i, j] = gram[j, i] = metric_G(ctx, basis[i], basis[j])
    eig = np.linalg.eigvalsh(gram)
    scale = max(np.abs(eig).max(), 1.0)
    pos = int((eig > 1e-10 * scale).sum())
    neg = int((eig < -1e-10 * scale).sum())
    return pos, neg, k - pos - neg


# --- normality report --------------------------------------------------------

@dataclass
class TwistorReport:
    """Lie-derivative slots of the metric along the Reeb lift, evaluated on
    the contact distribution in the rotated gauge.

    ``hh`` is the H x H block 2 g(T0_{xi'_1} X, Y); ``hv`` the two mixed rows
    against the Reeb lifts xi'_2, xi'_3; ``vv`` the 2 x 2 block among those
    lifts.  Slots against fibre directions vanish in closed form and are
    checked by the finite-difference oracle instead."""

    u: np.ndarray
    x: np.ndarray
    hh: np.ndarray            # (4n, 4n)
    hv: np.ndarray            # (2, 4n)
    vv: np.ndarray            # (2, 2)
    normality_residual: float
    t0_norm: float
    verdict: str
    tau: float
    dtau_xi1: float
    method: str

    @property
    def mixed_residual(self):
        """Mixed slots: rho_s(X, xi_1) + g([xi_s, xi_1], X), s = 2, 3."""
        return float(np.abs(self.hv).max())

    @property
    def vertical_trace_residual(self):
        """Diagonal vertical slots: 2 rho_s(xi_s, xi_1) - dtau(xi_1)."""
        return float(max(abs(self.vv[0, 0]), abs(self.vv[1, 1])))

    @property
    def vertical_cross_residual(self):
        """Off-diagonal vertical slot: rho_2(xi_3, xi_1) + rho_3(xi_2, xi_1)."""
        return float(abs(self.vv[0, 1]))


def _verdict(residual, t0_norm, tol):
    if residual <= tol.normal and t0_norm <= tol.t0:
        return "normal"
    if residual > 10.0 * tol.normal or t0_norm > 10.0 * tol.t0:
        return "not_normal"
    return "inconclusive"


def _report_from_slots(u, x, hh, hv, vv, t0_norm, tau, dtau_xi1, method, tol):
    residual = float(max(np.abs(hh).max(), np.abs(hv).max(), np.abs(vv).max()))
    return TwistorReport(u=np.asarray(u, float), x=np.asarray(x, float),
                         hh=hh, hv=hv, vv=vv,
                         normality_residual=residual, t0_norm=float(t0_norm),
                         verdict=_verdict(residual, t0_norm, tol),
                         tau=float(tau), dtau_xi1=float(dtau_xi1),
                         method=method)


def lie_chi_G(chart, u, x, steps=DEFAULT_STEPS, tol=DEFAULT_TOLERANCES):
    """Closed-form Lie-derivative slots through the rotated-chart pipeline:
    the whole chart is rotated by the constant gauge rotation, and the
    connection, curvature and tau-derivative are recomputed in that gauge."""
    tp = TwistorPoint(u, x)
    rot = rotation_from_x(tp.x)
    stage = FrozenPivotStage(chart.rotated(rot), tp.u, steps, tol)
    conn = stage.connection(tp.u)
    tors = torsion_tensors(conn, tol)
    curv = curvature_at_point(stage, tp.u, dtau_dirs=(0,))
    fourn = conn.frame.fourn
    jet = conn.jet

    hh = 2.0 * tors.T0_xi[0]
    hv = np.empty((2, fourn))
    for row, s in enumerate((1, 2)):
        bracket = jet.bracket(fourn + s, fourn + 0)
        hv[row] = curv.rho[s, :fourn, fourn] \
            + conn.frame.h_components(bracket)
    dtau1 = curv.dtau_xi[0]
    vv = np.empty((2, 2))
    for i, s in enumerate((1, 2)):
        for j, t in enumerate((1, 2)):
            vv[i, j] = -dtau1 * (1.0 if s == t else 0.0) \
                + curv.rho[s, fourn + t, fourn] + curv.rho[t, fourn + s, fourn]

    return _report_from_slots(tp.u, tp.x, hh, hv, vv, tors.t0_norm,
                              curv.tau, dtau1, "rotated-pipeline", tol)


@dataclass
class BasePointData:
    """Connection and curvature data computed once per base point in the
    catalog gauge; fibre reports rotate it algebraically.  The stage that
    built it serves the sphere-bundle oracles at the same base point."""

    chart: object
    stage: FrozenPivotStage
    frame: PointFrame
    conn: object
    torsion: object
    curv: object
    bracket_vv_h: np.ndarray   # (3, 3, 4n): g([xi_q, xi_r]_H, e_a)

    @property
    def tau(self):
        return self.curv.tau


def base_point_data(chart, u, steps=DEFAULT_STEPS, tol=DEFAULT_TOLERANCES):
    stage = FrozenPivotStage(chart, u, steps, tol)
    conn = stage.connection(stage.u)
    tors = torsion_tensors(conn, tol)
    curv = curvature_at_point(stage, stage.u)
    fourn = conn.frame.fourn
    br = np.zeros((3, 3, fourn))
    for q in range(3):
        for r in range(3):
            if q == r:
                continue
            br[q, r] = conn.frame.h_components(
                conn.jet.bracket(fourn + q, fourn + r))
    return BasePointData(chart=chart, stage=stage, frame=conn.frame,
                         conn=conn, torsion=tors, curv=curv, bracket_vv_h=br)


def report_from_base(data, x, tol=DEFAULT_TOLERANCES):
    """Algebraic gauge rotation of base-point tensors into the fibre-point
    report (independent of the rotated-chart pipeline)."""
    x = np.asarray(x, dtype=float)
    rot = rotation_from_x(x)
    curv = data.curv
    fourn = data.frame.fourn

    hh = 2.0 * np.einsum("s,sab->ab", x, data.torsion.T0_xi)

    rho_hv = curv.rho[:, :fourn, fourn:]       # (3, 4n, 3)
    rho_vv = curv.rho[:, fourn:, fourn:]       # (3, 3, 3)
    hv = np.empty((2, fourn))
    for row, s in enumerate((1, 2)):
        rho_term = np.einsum("p,par,r->a", rot[s], rho_hv, x)
        br_term = np.einsum("q,r,qra->a", rot[s], x, data.bracket_vv_h)
        hv[row] = rho_term + br_term

    dtau1 = float(x @ curv.dtau_xi)
    vv = np.empty((2, 2))
    for i, s in enumerate((1, 2)):
        for j, t in enumerate((1, 2)):
            first = np.einsum("p,q,r,pqr->", rot[s], rot[t], x, rho_vv)
            second = np.einsum("p,q,r,pqr->", rot[t], rot[s], x, rho_vv)
            vv[i, j] = -dtau1 * (1.0 if s == t else 0.0) + first + second

    return _report_from_slots(data.frame.point, x, hh, hv, vv,
                              data.torsion.t0_norm, curv.tau, dtau1,
                              "algebraic-rotation", tol)


# --- sphere-bundle realization and finite-difference oracles -----------------

class _BundleCalculus:
    """Local realization of the sphere bundle with coordinates (u, x) in
    R^{m+3}: horizontal lifts through the quaternion-bundle connection form,
    vertical fields, the contact form and metric as functions, and
    finite-difference brackets.  Frames, connections and tau at the center
    and at displaced base points come from the base point's frozen-pivot
    stage; the check is independent through the differencing on the bundle
    coordinates, not through rebuilding the same frames."""

    def __init__(self, stage, x):
        self.chart = stage.chart
        self.stage = stage
        self.tp = TwistorPoint(stage.u, x)
        self.fourn = stage.frame(stage.u).fourn
        self.z0 = np.concatenate([self.tp.u, self.tp.x])

    @property
    def m(self):
        return self.chart.m

    def q_connection_form(self, conn, v):
        """gamma[s, t] = <grad_v I_s, I_t> for a coordinate vector v."""
        frame = conn.frame
        hc = frame.h_components(v)
        vc = frame.v_components(v)
        Gam = np.tensordot(hc, conn.gamma, axes=(0, 0)) \
            + np.tensordot(vc, conn.C, axes=(0, 0))
        out = np.empty((3, 3))
        for s in range(3):
            D = conn.jet.directional_I(s, v) + Gam @ frame.I[s] - frame.I[s] @ Gam
            for t in range(3):
                out[s, t] = np.tensordot(frame.I[t], D) / (4.0 * self.chart.n)
        return out

    # vector fields on the bundle, as functions z -> R^{m+3}

    def _lift_from_conn(self, pick):
        """Horizontal lift of the base field ``pick(connection)``."""
        def fn(z):
            u, x = z[:self.m], z[self.m:]
            conn = self.stage.connection(u)
            v = pick(conn, x)
            gam = self.q_connection_form(conn, v)
            return np.concatenate([v, -(x @ gam)])
        return fn

    def chi_field(self):
        return self._lift_from_conn(lambda conn, x: conn.frame.xi @ x)

    def vertical_field(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        def fn(z):
            x = z[self.m:]
            return np.concatenate([np.zeros(self.m),
                                   coeffs - (coeffs @ x) * x])
        return fn

    def frame_lift_fields(self):
        """Horizontal lifts of the adapted frame fields and of the rotated
        Reeb fields xi'_2, xi'_3, plus the two vertical basis fields: the
        contact-distribution basis at the center point."""
        rot = rotation_from_x(self.tp.x)
        fields = []
        for a in range(self.fourn):
            fields.append(self._lift_from_conn(
                lambda conn, x, a=a: conn.frame.eH[:, a]))
        for s in (1, 2):
            fields.append(self._lift_from_conn(
                lambda conn, x, s=s: conn.frame.xi @ rot[s]))
        for s in (1, 2):
            fields.append(self.vertical_field(rot[s]))
        return fields

    def chi_value(self, z):
        return self.chi_field()(z)

    def to_tangent(self, z, w):
        """Convert a coordinate vector w in R^{m+3} at bundle point z into
        TwistorTangent components."""
        u, x = z[:self.m], z[self.m:]
        conn = self.stage.connection(u)
        frame = conn.frame
        v = w[:self.m]
        fibre = w[self.m:]
        gam = self.q_connection_form(conn, v)
        vert = fibre + x @ gam
        vert = vert - (vert @ x) * x / max(x @ x, 1e-30)
        return TwistorTangent(frame.h_components(v), frame.v_components(v),
                              vert)

    def from_tangent(self, z, t):
        u, x = z[:self.m], z[self.m:]
        conn = self.stage.connection(u)
        frame = conn.frame
        v = frame.eH @ t.baseH + frame.xi @ t.baseV
        gam = self.q_connection_form(conn, v)
        return np.concatenate([v, t.vert - (x @ gam)])

    def context_at(self, z, with_tau=True):
        u, x = z[:self.m], z[self.m:]
        xn = x / np.linalg.norm(x)
        return TwistorContext(chart=self.chart,
                              tp=TwistorPoint(u, xn),
                              frame=self.stage.connection(u).frame,
                              tau=self.stage.tau(u) if with_tau else 0.0)

    def metric_fn(self, z, w1, w2):
        ctx = self.context_at(z)
        return metric_G(ctx, self.to_tangent(z, w1), self.to_tangent(z, w2))

    def eta_fn(self, z, w):
        u, x = z[:self.m], z[self.m:]
        return float(x @ (self.stage.frame(u).coframe @ w[:self.m]))

    def phi_value(self, z, w, flip_vertical=False):
        """Coordinate representation of Phi applied to a tangent vector.
        (Phi does not involve tau, so no curvature evaluation happens here.)"""
        t = self.to_tangent(z, w)
        ctx = self.context_at(z, with_tau=False)
        image = phi(ctx, t)
        if flip_vertical:
            image = TwistorTangent(image.baseH, image.baseV, -image.vert)
        return self.from_tangent(z, image)

    def jacobians(self, field_fns, h):
        """Coordinate Jacobians of bundle vector fields at the center, by
        central differences; one displaced evaluation batch per coordinate."""
        dim = self.m + 3
        jacs = [np.empty((dim, dim)) for _ in field_fns]
        for r in range(dim):
            step = np.zeros(dim)
            step[r] = h
            plus = [fn(self.z0 + step) for fn in field_fns]
            minus = [fn(self.z0 - step) for fn in field_fns]
            for k in range(len(field_fns)):
                jacs[k][:, r] = (plus[k] - minus[k]) / (2.0 * h)
        return jacs


def _closed_form_gram(report, fourn):
    """Lie-derivative slot matrix over the contact-distribution basis
    (H-lifts, xi'_2, xi'_3 lifts, two fibre directions)."""
    k = fourn + 4
    gram = np.zeros((k, k))
    gram[:fourn, :fourn] = report.hh
    for row in range(2):
        gram[fourn + row, :fourn] = report.hv[row]
        gram[:fourn, fourn + row] = report.hv[row]
    gram[fourn:fourn + 2, fourn:fourn + 2] = report.vv
    return gram


def normality_direct_oracle(stage, x, sample_pairs=20, seed=0, report=None):
    """Compute the Lie derivative of the metric along the Reeb lift at the
    stage's base point and fibre point x by direct finite differencing on
    the sphere-bundle coordinates and compare with the closed-form slots
    (``report``, by default through ``lie_chi_G``).

    Returns a dict with the sampled deviations and their maximum."""
    calc = _BundleCalculus(stage, x)
    tp = calc.tp
    h = stage.steps.curv
    z0 = calc.z0

    basis_fields = calc.frame_lift_fields()
    nb = len(basis_fields)
    chi_fn = calc.chi_field()

    jacs = calc.jacobians(basis_fields + [chi_fn], h)
    basis_jacs, chi_jac = jacs[:nb], jacs[nb]
    basis_vals = [fn(z0) for fn in basis_fields]
    chi_val = chi_fn(z0)

    # brackets [chi, b_i] at the center
    brackets = [basis_jacs[i] @ chi_val - chi_jac @ basis_vals[i]
                for i in range(nb)]

    # Gram matrices of the basis values at z +- h chi (for the chi-derivative
    # of G(A, B)) and of value/bracket pairs at the center
    zp = z0 + h * chi_val
    zm = z0 - h * chi_val
    vals_p = [fn(zp) for fn in basis_fields]
    vals_m = [fn(zm) for fn in basis_fields]
    gram_p = np.empty((nb, nb))
    gram_m = np.empty((nb, nb))
    for i in range(nb):
        for j in range(i, nb):
            gram_p[i, j] = gram_p[j, i] = calc.metric_fn(zp, vals_p[i], vals_p[j])
            gram_m[i, j] = gram_m[j, i] = calc.metric_fn(zm, vals_m[i], vals_m[j])
    dgram = (gram_p - gram_m) / (2.0 * h)

    cross = np.empty((nb, nb))
    for i in range(nb):
        for j in range(nb):
            cross[i, j] = calc.metric_fn(z0, brackets[i], basis_vals[j])
    direct = dgram - cross - cross.T

    if report is None:
        report = lie_chi_G(stage.chart, tp.u, tp.x, steps=stage.steps,
                           tol=stage.tol)
    closed = _closed_form_gram(report, calc.fourn)

    rng = np.random.default_rng(seed)
    deviations = []
    values = []
    for _ in range(sample_pairs):
        a = rng.standard_normal(nb)
        b = rng.standard_normal(nb)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        direct_val = float(a @ direct @ b)
        closed_val = float(a @ closed @ b)
        values.append((direct_val, closed_val))
        deviations.append(abs(direct_val - closed_val))

    return {
        "max_deviation": float(max(deviations)) if deviations else 0.0,
        "slot_deviation": float(np.abs(direct - closed).max()),
        "pairs": values,
        "direct": direct,
        "closed": closed,
        "report": report,
    }


def d_eta_Z_fd_oracle(stage, x):
    """Compare the closed-form differential of the contact form with a
    finite-difference exterior derivative on the sphere-bundle coordinates:

        d eta(A, B) = A(eta(B)) - B(eta(A)) - eta([A, B])

    over the contact-distribution basis fields together with the Reeb lift.
    On charts with nonzero tau this recovers the -2 tau term in the slot of
    the two rotated Reeb lifts.  Returns the worst deviation at the stage's
    base point and fibre point x."""
    calc = _BundleCalculus(stage, x)
    h = stage.steps.curv
    z0 = calc.z0

    fields = calc.frame_lift_fields() + [calc.chi_field()]
    nf = len(fields)
    jacs = calc.jacobians(fields, h)
    vals = [fn(z0) for fn in fields]
    ctx0 = calc.context_at(z0)
    tangents = [calc.to_tangent(z0, v) for v in vals]

    # directional derivatives A(eta(B)): eta evaluated along the flow of A
    deta_dir = np.empty((nf, nf))
    for i in range(nf):
        zp = z0 + h * vals[i]
        zm = z0 - h * vals[i]
        for j in range(nf):
            fp = calc.eta_fn(zp, fields[j](zp))
            fm = calc.eta_fn(zm, fields[j](zm))
            deta_dir[i, j] = (fp - fm) / (2.0 * h)

    worst = 0.0
    for i in range(nf):
        for j in range(i + 1, nf):
            br = jacs[j] @ vals[i] - jacs[i] @ vals[j]
            fd = deta_dir[i, j] - deta_dir[j, i] - calc.eta_fn(z0, br)
            closed = d_eta_Z(ctx0, tangents[i], tangents[j])
            worst = max(worst, abs(fd - closed))
    return float(worst)


def cr_nijenhuis_residual(stage, x, sample_pairs=10, seed=0,
                          flip_vertical=False):
    """Nijenhuis tensor of the CR structure on sampled pairs of
    contact-distribution sections, by finite-difference brackets on the
    sphere-bundle coordinates; also checks the J-invariance of the Levi form
    through the closed-form differential.

    Returns a dict with the Nijenhuis residual and the Levi-form residual
    at the stage's base point and fibre point x."""
    calc = _BundleCalculus(stage, x)
    h = stage.steps.curv
    z0 = calc.z0

    basis_fields = calc.frame_lift_fields()
    nb = len(basis_fields)
    jfield_fns = [
        (lambda z, fn=fn: calc.phi_value(z, fn(z), flip_vertical=flip_vertical))
        for fn in basis_fields]

    jacs = calc.jacobians(basis_fields + jfield_fns, h)
    basis_jacs, j_jacs = jacs[:nb], jacs[nb:]
    basis_vals = [fn(z0) for fn in basis_fields]
    j_vals = [fn(z0) for fn in jfield_fns]

    def bracket(jac_a, val_a, jac_b, val_b):
        return jac_b @ val_a - jac_a @ val_b

    chi_val = calc.chi_value(z0)
    ctx0 = calc.context_at(z0)

    def project_D(w):
        return w - calc.eta_fn(z0, w) * chi_val

    def tangent_norm(w):
        t = calc.to_tangent(z0, w)
        return float(np.sqrt(t.baseH @ t.baseH + t.baseV @ t.baseV
                             + t.vert @ t.vert))

    rng = np.random.default_rng(seed)
    worst = 0.0
    levi_worst = 0.0
    for _ in range(sample_pairs):
        a = rng.standard_normal(nb)
        b = rng.standard_normal(nb)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)

        jac_x = sum(ai * J for ai, J in zip(a, basis_jacs))
        jac_y = sum(bi * J for bi, J in zip(b, basis_jacs))
        jac_jx = sum(ai * J for ai, J in zip(a, j_jacs))
        jac_jy = sum(bi * J for bi, J in zip(b, j_jacs))
        val_x = sum(ai * v for ai, v in zip(a, basis_vals))
        val_y = sum(bi * v for bi, v in zip(b, basis_vals))
        val_jx = sum(ai * v for ai, v in zip(a, j_vals))
        val_jy = sum(bi * v for bi, v in zip(b, j_vals))

        br_xy = bracket(jac_x, val_x, jac_y, val_y)
        br_jxjy = bracket(jac_jx, val_jx, jac_jy, val_jy)
        br_jx_y = bracket(jac_jx, val_jx, jac_y, val_y)
        br_x_jy = bracket(jac_x, val_x, jac_jy, val_jy)

        nij = -br_xy + br_jxjy - calc.phi_value(
            z0, br_jx_y + br_x_jy, flip_vertical=flip_vertical)
        worst = max(worst, tangent_norm(project_D(nij)))

        tx = calc.to_tangent(z0, val_x)
        ty = calc.to_tangent(z0, val_y)
        jtx = phi(ctx0, tx)
        jty = phi(ctx0, ty)
        if flip_vertical:
            jtx = TwistorTangent(jtx.baseH, jtx.baseV, -jtx.vert)
            jty = TwistorTangent(jty.baseH, jty.baseV, -jty.vert)
        levi_worst = max(levi_worst, abs(d_eta_Z(ctx0, jtx, jty)
                                         - d_eta_Z(ctx0, tx, ty)))

    return {"nijenhuis": float(worst), "levi": float(levi_worst)}
