"""Curvature of the Biquard connection by differencing the connection field.

R(A, B) = [grad_A, grad_B] - grad_{[A,B]} acting on H, in the adapted moving
frame: directional derivatives of the connection-coefficient field along the
frame directions (central differences of step ``curv``), coefficient
commutators, and the structure-function term.  From the curvature slots:
Ricci, the three curvature 2-forms paired with the triple, the scalar
curvature and its normalization tau = Scal / (16 n (n+2)).  The full slot
set and the tau-derivative are Richardson-extrapolated from the steps h and
h/2, which cancels their O(h^2) truncation; the horizontal path is
single-step.  Every stencil takes its displaced points from a
``FrozenPivotStage``.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import endo_inner
from .chart import FrameJet, frame_field, jet_points
from .connection import connection_at_point
from .errors import ChartError, EvalDomainError, StepTooSmall
from .tolerances import DEFAULT_STEPS, DEFAULT_TOLERANCES


class FrozenPivotStage:
    """Frame -> frame jet -> connection -> Scal at one base point and at the
    displaced points of its stencils, with the frame pivots frozen to the
    base point's.  Frames and connections depend only on the point (and the
    ``fd`` step), so stencils of every curvature step share them; Scal is
    memoised per step.

    This is the only way into the pipeline.  The base frame is built once
    with free pivots; its pivot order is frozen for every other point, and
    it seeds the cache (a frozen-pivot rebuild reproduces it bit for bit),
    so ``connection(u)`` serves the base point and the displaced points
    alike.  ``connections(points)`` builds the points not yet built from one
    stacked frame evaluation (each point's centre frame and its 2m jet
    frames), and the curvature stencils ask for both ends of a central
    difference together.  Results are memoised by the exact point (its
    bytes), so a point reached by two stencils is built once and a cache
    hit returns the floats a recomputation would.  One stage serves one
    base point's work and is dropped with it.

    The layer functions are called through their module-global names, never
    through stored references, so wrappers installed on them (profilers,
    tracers) see every call."""

    def __init__(self, chart, u, steps=DEFAULT_STEPS, tol=DEFAULT_TOLERANCES):
        self.chart = chart
        self.u = np.asarray(u, dtype=float)
        self.steps = steps
        self.tol = tol
        frame = frame_field(chart, self.u, tol=tol)
        self.pivots = frame.pivot_order
        self._cache = {("frame", self.u.tobytes()): frame}

    def _memo(self, kind, p, build):
        p = np.asarray(p, dtype=float)
        key = (kind, p.tobytes())
        if key not in self._cache:
            self._cache[key] = build(p)
        return self._cache[key]

    def frame(self, p):
        return self._memo("frame", p, lambda p: frame_field(
            self.chart, p, pivot_order=self.pivots, tol=self.tol))

    def connection(self, p):
        return self.connections([p])[0]

    def connections(self, points):
        """Connections at a list of points, memoised like every result.
        The points not yet built get their frames, each one's centre frame
        (unless cached) followed by its 2m jet frames, from one stacked
        ``frame_field`` call, and raise what building them one by one, in
        order, would raise first."""
        points = [np.asarray(p, dtype=float) for p in points]
        todo = {}
        for p in points:
            if ("connection", p.tobytes()) not in self._cache:
                todo.setdefault(p.tobytes(), p)
        if todo:
            self._build(list(todo.values()))
        return [self._cache[("connection", p.tobytes())] for p in points]

    def _build(self, points):
        """Frames and connections at distinct points, none of them built."""
        fd = self.steps.fd
        jet_rows = 2 * self.chart.m
        # per point: its centre unless the frame is cached, then its jet
        blocks = [jet_points(p, fd) if ("frame", p.tobytes()) in self._cache
                  else np.vstack([p, jet_points(p, fd)]) for p in points]
        rows = np.concatenate(blocks)
        try:
            frames = frame_field(self.chart, rows, pivot_order=self.pivots,
                                 tol=self.tol)
        except (ChartError, EvalDomainError) as exc:
            # the points before the failing row's point have sound frames;
            # their connections may fail first
            match = np.flatnonzero((rows == np.asarray(exc.point)).all(axis=1))
            ends = np.cumsum([len(block) for block in blocks])
            before = np.searchsorted(ends, match[0], side="right") \
                if len(match) else 0
            if before:
                self._build(points[:before])
            raise
        frames = iter(frames)
        for p, block in zip(points, blocks):
            key = p.tobytes()
            if len(block) > jet_rows:
                self._cache[("frame", key)] = next(frames)
            displaced = [next(frames) for _ in range(jet_rows)]
            self._cache[("connection", key)] = connection_at_point(
                FrameJet(self.chart, self._cache[("frame", key)], displaced,
                         fd), self.tol)

    def scal(self, p, h):
        return self._memo(("scal", h), p, lambda p: scal_at(self, p, h))

    def tau(self, p):
        """tau at p from the horizontal slots at the step ``curv``."""
        return _tau(self.chart, self.scal(p, self.steps.curv))


def _tau(chart, scal):
    return scal / (16.0 * chart.n * (chart.n + 2))


@dataclass
class CurvatureAtPoint:
    """Curvature slots R[alpha, beta] = matrix of R(f_alpha, f_beta)|H, the
    Ricci form on H, rho[s, alpha, beta], Scal, tau and the tau-derivatives
    along the Reeb directions."""

    frame: object
    conn: object
    R: np.ndarray            # (m, m, 4n, 4n)
    Ric: np.ndarray          # (4n, 4n)
    rho: np.ndarray          # (3, m, m)
    Scal: float
    tau: float
    dtau_xi: np.ndarray      # (3,) or None
    diagnostics: dict

    @property
    def fourn(self):
        return self.Ric.shape[0]


def _richardson(coarse, fine):
    """Combine results at steps h and h/2 so that their O(h^2) truncation
    cancels."""
    return (4.0 * fine - coarse) / 3.0


def _ricci(R, fourn):
    return np.einsum("babc->ac", R[:fourn, :fourn, :, :])


def _curvature_slots(stage, u, conn, directions, h):
    """R[alpha, beta] for the ordered pairs alpha < beta of ``directions``:
    the connection field differenced along each direction (step ``h``) at
    the stage's displaced points, the coefficient commutator, and the
    structure-function term."""
    jet = conn.jet
    Gam0 = conn.stacked_matrices()
    m, fourn = Gam0.shape[0], Gam0.shape[1]
    dGam = {}
    for a in directions:
        v = jet.field_value(a)
        plus, minus = stage.connections([u + h * v, u - h * v])
        dGam[a] = (plus.stacked_matrices() - minus.stacked_matrices()) \
            / (2.0 * h)

    R = np.zeros((m, m, fourn, fourn))
    for a in directions:
        for b in directions:
            if b <= a:
                continue
            kappa = np.concatenate(jet.decompose(jet.bracket(a, b)))
            M = dGam[a][b] - dGam[b][a] \
                + Gam0[a] @ Gam0[b] - Gam0[b] @ Gam0[a] \
                - np.tensordot(kappa, Gam0, axes=(0, 0))
            R[a, b] = M
            R[b, a] = -M
    return R


def _dtau(stage, u, v, h):
    """tau differenced along v with step h; the Scal at each end uses the
    same step, so the truncation of the pair stays O(h^2) in h."""
    return _tau(stage.chart,
                (stage.scal(u + h * v, h) - stage.scal(u - h * v, h))
                / (2.0 * h))


def curvature_at_point(stage, u, pairs="all", dtau_dirs=None):
    """Curvature data at a point, with the connection and the displaced
    points from ``stage`` (its steps and tolerances apply).

    ``pairs="horizontal"`` restricts to horizontal index pairs (enough for
    Ric, Scal, tau) and is the cheap single-step path.  With the full slot
    set, R (and with it Ric, rho, Scal, tau) and the tau-derivatives are
    extrapolated from the steps h = ``curv`` and h/2.  ``dtau_dirs`` selects
    which Reeb directions tau is differenced along (default: all three when
    the full slot set is computed).
    """
    u = np.asarray(u, dtype=float)
    chart = stage.chart
    conn = stage.connection(u)
    h = stage.steps.curv
    frame = conn.frame
    fourn = frame.fourn
    m = chart.m

    if pairs == "horizontal":
        directions = range(fourn)
        steps = (h,)
    else:
        directions = range(m)
        steps = (h, h / 2)

    def extrapolated(results):
        return results[0] if len(results) == 1 else _richardson(*results)

    R = extrapolated([_curvature_slots(stage, u, conn, directions, step)
                      for step in steps])

    Ric = _ricci(R, fourn)
    Scal = float(np.trace(Ric))
    tau = _tau(chart, Scal)

    rho = np.zeros((3, m, m))
    for s in range(3):
        for a in directions:
            for b in directions:
                if b <= a:
                    continue
                val = endo_inner(frame.I[s], R[a, b])
                rho[s, a, b] = val
                rho[s, b, a] = -val

    skew_res = 0.0
    for a in directions:
        for b in directions:
            if b <= a:
                continue
            skew_res = max(skew_res, np.abs(R[a, b] + R[a, b].T).max())

    if dtau_dirs is None:
        dtau_dirs = (0, 1, 2) if pairs == "all" else ()
    dtau_xi = None
    if dtau_dirs:
        dtau_xi = np.zeros(3)
        for s in dtau_dirs:
            dtau_xi[s] = extrapolated([_dtau(stage, u, frame.xi[:, s], step)
                                       for step in steps])

    diagnostics = {"curvature_metricity": float(skew_res)}
    return CurvatureAtPoint(frame=frame, conn=conn, R=R, Ric=Ric, rho=rho,
                            Scal=Scal, tau=tau, dtau_xi=dtau_xi,
                            diagnostics=diagnostics)


def scal_at(stage, u, h):
    """Scalar curvature at a (displaced) point from the horizontal slots at
    step ``h``; used for differencing tau along the Reeb directions.
    Callers go through ``FrozenPivotStage.scal``, which memoises it."""
    conn = stage.connection(u)
    R = _curvature_slots(stage, u, conn, range(conn.fourn), h)
    return float(np.trace(_ricci(R, conn.fourn)))


def _pair_slot(stage, a_index, b_index, h):
    """Single-step matrix of R(f_a, f_b)|H at the stage's base point."""
    a, b = sorted((a_index, b_index))
    M = _curvature_slots(stage, stage.u, stage.connection(stage.u), (a, b),
                         h)[a, b]
    return M if a_index < b_index else -M


def curvature_endo(stage, a_index, b_index):
    """Matrix of R(f_a, f_b)|H at the stage's base point for a single
    ordered pair of frame directions, extrapolated from the steps h and h/2
    like the full slot set."""
    if a_index == b_index:
        return np.zeros_like(stage.connection(stage.u).gamma[0])
    h = stage.steps.curv
    return _richardson(_pair_slot(stage, a_index, b_index, h),
                       _pair_slot(stage, a_index, b_index, h / 2))


def step_diagnostic(chart, u, a_index, b_index, steps=DEFAULT_STEPS,
                    tol=DEFAULT_TOLERANCES, raise_on_noise=False):
    """Step-halving consistency of the curvature differencing.

    Returns (delta_h, delta_half, ratio): the change of the single-step slot
    between steps h and h/2 and between h/2 and h/4, with h = ``steps.curv``.
    Second-order differencing shrinks the change about fourfold; a ratio
    collapsing towards (or below) one signals that rounding noise dominates."""
    stage = FrozenPivotStage(chart, u, steps, tol)
    r_h, r_h2, r_h4 = (_pair_slot(stage, a_index, b_index, steps.curv / 2 ** k)
                       for k in range(3))
    delta1 = float(np.abs(r_h - r_h2).max())
    delta2 = float(np.abs(r_h2 - r_h4).max())
    ratio = delta1 / delta2 if delta2 > 0 else np.inf
    if raise_on_noise and delta2 >= delta1 and delta1 > 0:
        raise StepTooSmall(
            f"curvature differencing noise-dominated: deltas {delta1:.2e} "
            f"-> {delta2:.2e} under step halving")
    return delta1, delta2, ratio


def vertical_form_identity_residual(alpha_vert, dxx, tau):
    """Residual of the cross-identity linking the vertical connection
    1-forms to the coframe differentials and tau:

        alpha_i(xi_s) = d eta_s(xi_j, xi_k)
                        - delta_is (tau + (1/2) sum_cyc d eta_1(xi_2, xi_3))

    ``alpha_vert[i, s]`` holds alpha_i(xi_s) and ``dxx[s, i, j]`` holds
    d eta_s(xi_i, xi_j)."""
    cyc = {0: (1, 2), 1: (2, 0), 2: (0, 1)}
    corr = tau + 0.5 * (dxx[0, 1, 2] + dxx[1, 2, 0] + dxx[2, 0, 1])
    worst = 0.0
    for i in range(3):
        j, k = cyc[i]
        for s in range(3):
            rhs = dxx[s, j, k] - (corr if i == s else 0.0)
            worst = max(worst, abs(alpha_vert[i, s] - rhs))
    return float(worst)


def alpha_identity_check(conn, curv):
    """Evaluate the vertical-form cross-identity at a point (connection alpha
    values against coframe differentials and tau)."""
    frame = conn.frame
    fourn = frame.fourn
    alpha_vert = conn.alpha[:, fourn:]
    dxx = np.einsum("ri,srq,qj->sij", frame.xi, frame.dcoframe, frame.xi)
    return vertical_form_identity_residual(alpha_vert, dxx, curv.tau)


def ricci_decomposition_residual(curv, torsion, fourn):
    """Slotwise residual of
    Ric = (2n+2) T0 + (4n+10) U + (Scal/4n) g on H."""
    n = fourn // 4
    expected = (2 * n + 2) * torsion.T0 + (4 * n + 10) * torsion.U \
        + (curv.Scal / fourn) * np.eye(fourn)
    return float(np.abs(curv.Ric - expected).max())
