"""Coordinate charts carrying a quaternionic contact structure.

A chart of dimension m = 4n+3 is described by the three coframe 1-forms
eta_s = sum_r coeffs[s][r] du^r with expression-valued coefficients.  From
the coframe alone the module recovers, pointwise:

  * the horizontal distribution H (kernel of the coframe),
  * the compatible metric g and quaternion triple on H fixed by
    d eta_s(X, Y) = 2 g(I_s X, Y),
  * the Reeb fields xi_s dual to the coframe and satisfying the shared
    vertical-space compatibility (i_{xi_s} d eta_t)|H = -(i_{xi_t} d eta_s)|H,
  * a deterministic adapted orthonormal frame of H.

The exterior-derivative convention carries no 1/2 factor:
d eta(X, Y) = X eta(Y) - Y eta(X) - eta([X, Y]), so in coordinates
(d eta_s)_{rq} = d_r c_{s,q} - d_q c_{s,r}.
"""

from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import exprlang
from .algebra import QuaternionTriple
from .errors import (BiquardConditionFail, ChartError, DegenerateCoframe,
                     DegenerateLevi, EvalDomainError, IllConditioned,
                     NotPositive, NotQuaternionic)
from .tolerances import DEFAULT_STEPS, DEFAULT_TOLERANCES

# GS pivots: relative tie snap for seed norms, and drop threshold for
# near-degenerate seed directions.
_PIVOT_TIE = 1e-6
_PIVOT_DROP = 1e-8


@dataclass(frozen=True)
class QCChart:
    """Immutable chart: quaternionic dimension n, coordinates u1..um with
    m = 4n+3, and the 3 x m coefficient expressions of the coframe, compiled
    once into one ``exprlang.Tape``."""

    n: int
    coeffs: tuple          # 3 tuples of m exprlang.Expr
    domain_box: tuple = None   # optional m pairs (lo, hi)
    name: str = ""

    tape: exprlang.Tape = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = self.m
        if len(self.coeffs) != 3 or any(len(row) != m for row in self.coeffs):
            raise ValueError(f"coefficient array must be 3 x {m}")
        if self.domain_box is not None and len(self.domain_box) != m:
            raise ValueError(f"domain box must have {m} entries")
        object.__setattr__(self, "tape", exprlang.Tape(
            [c for row in self.coeffs for c in row], m))

    @property
    def m(self):
        return 4 * self.n + 3

    def eval_coframe(self, u):
        """Component matrix of the coframe: shape (3, m) at a point, or
        (P, 3, m) at a (P, m) stack of points.  A domain error names the
        first failing point."""
        u = np.asarray(u, dtype=float)
        values = self.tape.values(u.reshape(-1, self.m))
        return values.reshape(u.shape[:-1] + (3, self.m))

    def eval_dcoframe(self, u):
        """Exterior derivatives as three m x m skew matrices, (3, m, m) at a
        point or (P, 3, m, m) at a stack (exact derivatives of the
        coefficients; skew by construction).  A domain error names the
        first failing point."""
        u = np.asarray(u, dtype=float)
        m = self.m
        _, grads = self.tape.values_and_grads(u.reshape(-1, m))
        G = grads.reshape(-1, 3, m, m)   # G[p, s, q, r] = d_r c_{s,q}
        return (G.transpose(0, 1, 3, 2) - G).reshape(u.shape[:-1] + (3, m, m))

    def rotated(self, rot):
        """Chart with the coframe triple replaced by a constant SO(3)
        rotation of it: eta'_s = sum_t rot[s,t] eta_t."""
        rot = np.asarray(rot, dtype=float)
        new_rows = []
        for s in range(3):
            row = []
            for r in range(self.m):
                terms = []
                for t in range(3):
                    c = rot[s, t]
                    if c == 0.0:
                        continue
                    base = self.coeffs[t][r]
                    terms.append(base if c == 1.0
                                 else exprlang.Mul(exprlang.Const(c), base))
                if not terms:
                    node = exprlang.Const(0.0)
                else:
                    node = terms[0]
                    for extra in terms[1:]:
                        node = exprlang.Add(node, extra)
                row.append(node)
            new_rows.append(tuple(row))
        return QCChart(self.n, tuple(new_rows), self.domain_box,
                       name=self.name + "+rot" if self.name else "")

    def sample_points(self, count, seed):
        """Deterministic sample of points in the domain box (defaults to
        [-1, 1]^m when no box is declared)."""
        rng = np.random.default_rng(seed)
        box = self.domain_box or tuple((-1.0, 1.0) for _ in range(self.m))
        lo = np.array([b[0] for b in box])
        hi = np.array([b[1] for b in box])
        return lo + (hi - lo) * rng.random((count, self.m))


def _swap(a):
    return np.swapaxes(a, -1, -2)


def _row_max(a):
    return np.abs(a).reshape(a.shape[0], -1).max(axis=1)


def _raise_first(points, *checks):
    """Raise for the first point of a stack failing any check; at that point
    the first failing check in the order given wins.  A check is (failure
    mask, error class, message, per-point residual or None)."""
    failing = np.logical_or.reduce([fail for fail, *_ in checks])
    rows = np.flatnonzero(failing)
    if not rows.size:
        return
    k = rows[0]
    for fail, error, message, residual in checks:
        if fail[k]:
            raise error(message, point=points[k],
                        residual=None if residual is None else float(residual[k]))


def _shaped(result, u):
    """A stacked result as given for a (P, m) stack, its only row for a
    point."""
    if u.ndim > 1:
        return result
    return replace(result, **{f.name: getattr(result, f.name)[0]
                              for f in fields(result)})


@dataclass
class Structure:
    """Recovered data on H: null-space basis of the coframe (columns of
    ``hbasis``), the restricted two-forms, the quaternion triple and the
    metric, all expressed in that basis.  At a stack of points every field
    carries a leading point axis."""

    coframe: np.ndarray        # (3, m)
    dcoframe: np.ndarray       # (3, m, m)
    hbasis: np.ndarray         # (m, 4n), orthonormal columns
    omega: np.ndarray          # (3, 4n, 4n): restriction of (1/2) d eta_s
    imatrices: np.ndarray      # (3, 4n, 4n): I_s in the hbasis
    gram: np.ndarray           # (4n, 4n): g in the hbasis
    residual: float

    def h_metric(self, v, w):
        """g on H for coordinate vectors lying in the kernel of the coframe
        (at a single point)."""
        yv = self.hbasis.T @ v
        yw = self.hbasis.T @ w
        return float(yv @ self.gram @ yw)


def recover_structure(chart, u, tol=DEFAULT_TOLERANCES):
    """Recover (H, g, I) at a point, or at each point of a (P, m) stack, from
    the coframe and its differential.

    H is the null space of the 3 x m coframe matrix; the quaternion triple is
    rebuilt from the restricted two-forms omega_s = (1/2) d eta_s by
    I3 = omega2^{-1} omega1, I1 = omega3^{-1} omega2, I2 = omega1^{-1} omega3,
    and the metric by g = -omega1(I1 ., .).  Everything is validated before
    returning; a failed check raises for the first failing point.
    """
    u = np.asarray(u, dtype=float)
    U = u.reshape(-1, chart.m)
    C = chart.eval_coframe(U)
    D = chart.eval_dcoframe(U)

    # rank-revealing null space
    _, sv, Vt = np.linalg.svd(C)
    _raise_first(U, (sv[:, 2] <= 1e-12 * np.maximum(sv[:, 0], 1.0),
                     DegenerateCoframe, "coframe matrix has rank < 3",
                     sv[:, 2]))
    N = _swap(Vt[:, 3:])  # (P, m, 4n)

    W = 0.5 * (_swap(N)[:, None] @ D @ N[:, None])

    conds = np.linalg.cond(W).max(axis=1)
    _raise_first(U, (conds > 1e12, DegenerateLevi,
                     "restricted two-form is numerically singular", conds))

    A = np.empty_like(W)
    A[:, 2] = np.linalg.solve(W[:, 1], W[:, 0])
    A[:, 0] = np.linalg.solve(W[:, 2], W[:, 1])
    A[:, 1] = np.linalg.solve(W[:, 0], W[:, 2])

    G = -_swap(A[:, 0]) @ W[:, 0]
    G = 0.5 * (G + _swap(G))

    # validation: quaternion relations w.r.t. the recovered metric,
    # positivity, and the defining compatibility d eta_s = 2 g(I_s ., .)
    eye = np.eye(G.shape[-1])
    At = _swap(A)
    residual = np.max([
        _row_max(A[:, 0] @ A[:, 0] + eye),
        _row_max(A[:, 1] @ A[:, 1] + eye),
        _row_max(A[:, 2] @ A[:, 2] + eye),
        _row_max(A[:, 0] @ A[:, 1] - A[:, 2]),
        _row_max(A[:, 1] @ A[:, 0] + A[:, 2]),
        _row_max(G[:, None] @ A + At @ G[:, None]),
        _row_max(W - At @ G[:, None]),
    ], axis=0)
    _raise_first(U, (residual > tol.recovery, NotQuaternionic,
                     "restricted two-forms do not define a quaternion triple",
                     residual))

    lowest = np.linalg.eigvalsh(G)[:, 0]
    _raise_first(U, (lowest <= 0.0, NotPositive,
                     "recovered metric is not positive definite", lowest))

    return _shaped(Structure(coframe=C, dcoframe=D, hbasis=N, omega=W,
                             imatrices=A, gram=G, residual=residual), u)


@dataclass
class ReebResult:
    """Reeb fields and the certificate of their compatibility system; at a
    stack of points every field carries a leading point axis."""

    xi: np.ndarray          # (m, 3) columns xi_1, xi_2, xi_3
    residual: float         # max-abs residual of the compatibility system
    min_singular: float     # smallest singular value of the constraint matrix
    cond: float


def reeb_solve(chart, u, structure, tol=DEFAULT_TOLERANCES):
    """Solve for the Reeb fields at a point, or at each point of a stack
    (``structure`` from ``recover_structure`` at the same ``u``):
    xi_s = xi0_s + h_s with eta_t(xi0_s) = delta_ts and h_s horizontal,
    subject to d eta_t(xi_s, X) + d eta_s(xi_t, X) = 0 for all s <= t and
    X in H.

    The system is linear least squares in the 12n horizontal unknowns,
    solved through the SVD; its residual certifies the compatibility
    condition at the point.
    """
    u = np.asarray(u, dtype=float)
    U = u.reshape(-1, chart.m)
    count, m = U.shape
    C = structure.coframe.reshape(count, 3, m)
    D = structure.dcoframe.reshape(count, 3, m, m)
    N = structure.hbasis.reshape(count, m, -1)
    fourn = N.shape[2]

    xi0 = np.linalg.pinv(C)  # (P, m, 3): minimal-norm duals

    # blocks M_t = N^T D_t^T N = -2 omega_t (D_t is skew), and
    # N^T D_t^T xi0 for the offsets
    M = -2.0 * structure.omega.reshape(count, 3, fourn, fourn)
    offsets = _swap(N)[:, None] @ _swap(D) @ xi0[:, None]   # [p, t, :, s]

    pairs = [(s, t) for s in range(3) for t in range(s, 3)]
    big = np.zeros((count, len(pairs) * fourn, 3 * fourn))
    b = np.empty((count, len(pairs) * fourn))
    for row, (s, t) in enumerate(pairs):
        rows = slice(row * fourn, (row + 1) * fourn)
        big[:, rows, s * fourn:(s + 1) * fourn] += M[:, t]
        big[:, rows, t * fourn:(t + 1) * fourn] += M[:, s]
        b[:, rows] = -(offsets[:, t, :, s] + offsets[:, s, :, t])

    # least squares through the SVD, with lstsq's default cutoff
    Ub, sv, Vbt = np.linalg.svd(big, full_matrices=False)
    cutoff = np.finfo(float).eps * max(big.shape[1:]) * sv[:, :1]
    with np.errstate(divide="ignore"):
        inv = np.where(sv > cutoff, 1.0 / sv, 0.0)
        cond = np.where(sv[:, -1] > 0, sv[:, 0] / sv[:, -1], np.inf)
    z = np.einsum("pij,pi->pj", Vbt,
                  inv * np.einsum("pki,pk->pi", Ub, b))
    residual = _row_max(np.einsum("pij,pj->pi", big, z) - b)

    _raise_first(
        U,
        (residual > tol.reeb, BiquardConditionFail,
         "vertical compatibility system is inconsistent "
         "(not a quaternionic contact coframe)", residual),
        (cond > tol.condition_number, IllConditioned,
         "Reeb system is ill conditioned", cond))

    xi = xi0 + N @ _swap(z.reshape(count, 3, fourn))
    return _shaped(ReebResult(xi=xi, residual=residual,
                              min_singular=sv[:, -1], cond=cond), u)


@dataclass
class PointFrame:
    """Adapted orthonormal frame at a point: columns of ``eH`` span H, the
    ``xi`` columns are the Reeb fields, ``I`` holds the triple in the eH
    frame, and ``g_coord`` is the full metric as a coordinate bilinear form."""

    point: np.ndarray          # (m,)
    eH: np.ndarray             # (m, 4n)
    xi: np.ndarray             # (m, 3)
    I: QuaternionTriple
    reeb_residual: float
    coframe: np.ndarray        # (3, m)
    dcoframe: np.ndarray       # (3, m, m)
    g_coord: np.ndarray        # (m, m)
    pivot_order: tuple

    @property
    def m(self):
        return self.point.shape[0]

    @property
    def fourn(self):
        return self.eH.shape[1]

    def h_components(self, v):
        """Coefficients of the horizontal part of v in the eH frame."""
        return self.eH.T @ self.g_coord @ v

    def v_components(self, v):
        return self.coframe @ v

    def validate(self, tol=DEFAULT_TOLERANCES):
        """Residuals of the frame invariants; raises nothing."""
        C = self.coframe
        D = self.dcoframe
        gram_h = self.eH.T @ self.g_coord @ self.eH
        gram_v = self.xi.T @ self.g_coord @ self.xi
        cross = self.eH.T @ self.g_coord @ self.xi
        compat = max(
            np.abs(self.eH.T @ D[s] @ self.eH - 2.0 * self.I[s].T).max()
            for s in range(3))
        return {
            "eta_on_H": float(np.abs(C @ self.eH).max()),
            "duality": float(np.abs(C @ self.xi - np.eye(3)).max()),
            "gram_H": float(np.abs(gram_h - np.eye(self.fourn)).max()),
            "gram_V": float(np.abs(gram_v - np.eye(3)).max()),
            "gram_cross": float(np.abs(cross).max()),
            "compat": float(compat),
            "quaternion": float(self.I.max_relation_residual()),
            "reeb": float(self.reeb_residual),
        }

    def check(self, tol=DEFAULT_TOLERANCES):
        res = self.validate(tol)
        names = {
            "eta_on_H": tol.frame_annihilation,
            "duality": tol.frame_annihilation,
            "gram_H": tol.frame_gram,
            "gram_V": tol.frame_gram,
            "gram_cross": tol.frame_gram,
            "compat": tol.frame_compat,
            "quaternion": tol.recovery,
            "reeb": tol.reeb,
        }
        bad = {k: v for k, v in res.items() if v > names[k]}
        return res, bad


def frame_field(chart, u, pivot_order=None, tol=DEFAULT_TOLERANCES):
    """Deterministic adapted frame at u, or one frame per row of a (P, m)
    stack (a list).

    Seeds are the coordinate axes projected to H along the vertical space;
    they are Gram-Schmidt orthonormalized under the recovered metric.  The
    pivot order takes seeds by descending metric norm (norms tied within a
    relative 1e-6 keep coordinate order), which makes the construction
    deterministic and smooth in u away from pivot switches.  Passing a
    precomputed ``pivot_order`` freezes the choice, which keeps the frame
    smooth across the small displacements used by finite differencing.

    A stack raises what building its frames one by one, in row order, would
    raise first: the error of the first failing point.
    """
    u = np.asarray(u, dtype=float)
    U = u.reshape(-1, chart.m)
    try:
        frames = _frames(chart, U, pivot_order, tol)
    except (ChartError, EvalDomainError) as exc:
        # each check raises for its own first failing point; an earlier
        # point may fail a later check, and that failure comes first
        rows = [] if exc.point is None else \
            np.flatnonzero((U == np.asarray(exc.point)).all(axis=1))
        if len(rows) and rows[0] > 0:
            frame_field(chart, U[:rows[0]], pivot_order, tol)
        raise
    return frames if u.ndim > 1 else frames[0]


def _frames(chart, U, pivot_order, tol):
    structure = recover_structure(chart, U, tol)
    reeb = reeb_solve(chart, U, structure, tol)

    count, m = U.shape
    fourn = 4 * chart.n
    N = structure.hbasis
    G = structure.gram
    C = structure.coframe

    # seeds in null-space coordinates: columns of N^T (Id - xi C)
    proj = np.eye(m) - reeb.xi @ C
    seeds = _swap(N) @ proj  # (P, 4n, m): column r = the r-th seed

    norms = np.sqrt(np.maximum(
        np.einsum("pir,pij,pjr->pr", seeds, G, seeds), 0.0))
    top = norms.max(axis=1)
    if pivot_order is None:
        _raise_first(U, (top <= 0.0, DegenerateCoframe,
                         "all seed projections vanish", None))
        keys = np.round(norms / (top[:, None] * _PIVOT_TIE))
        orders = np.argsort(-keys, axis=1, kind="stable")
    else:
        orders = np.broadcast_to(np.asarray(pivot_order, dtype=int),
                                 (count, len(pivot_order)))

    # Gram-Schmidt over the points at once; each point accepts its seeds
    # in its own pivot order until it holds 4n directions
    ordered = np.take_along_axis(seeds, orders[:, None, :], axis=2)
    Q = np.zeros((count, fourn, fourn))     # accepted directions (columns)
    QG = np.zeros((count, fourn, fourn))    # their rows q^T G
    accepted = np.zeros(count, dtype=int)
    used = np.zeros((count, fourn), dtype=int)
    points = np.arange(count)
    for j in range(orders.shape[1]):
        live = accepted < fourn
        if not live.any():
            break
        y = ordered[:, :, j].copy()
        for i in range(accepted.max()):
            y -= np.einsum("pi,pi->p", QG[:, i], y)[:, None] * Q[:, :, i]
        with np.errstate(invalid="ignore"):
            nrm = np.sqrt(np.einsum("pi,pij,pj->p", y, G, y))
        take = live & (nrm > _PIVOT_DROP * top)
        rows, slots = points[take], accepted[take]
        Q[rows, :, slots] = y[take] / nrm[take, None]
        QG[rows, slots] = np.einsum("pi,pij->pj", Q[rows, :, slots], G[take])
        used[rows, slots] = orders[take, j]
        accepted += take
    short = np.flatnonzero(accepted < fourn)
    if short.size:
        k = short[0]
        raise DegenerateCoframe(
            f"could only build {accepted[k]} of {fourn} frame directions",
            point=U[k])

    eH = N @ Q                             # (P, m, 4n)
    Imats = (_swap(Q) @ G)[:, None] @ structure.imatrices @ Q[:, None]
    g_coord = _swap(proj) @ (N @ G @ _swap(N)) @ proj + _swap(C) @ C

    return [PointFrame(point=U[k], eH=eH[k], xi=reeb.xi[k],
                       I=QuaternionTriple(*Imats[k]),
                       reeb_residual=float(reeb.residual[k]),
                       coframe=C[k], dcoframe=structure.dcoframe[k],
                       g_coord=g_coord[k],
                       pivot_order=tuple(used[k].tolist()))
            for k in range(count)]


def lie_bracket(chart, x_fn, y_fn, u, h=None):
    """[X, Y] at u for vector fields given as coordinate-component functions,
    with Jacobians by central differences of step h."""
    if h is None:
        h = DEFAULT_STEPS.fd
    u = np.asarray(u, dtype=float)
    m = len(u)
    jx = np.empty((m, m))
    jy = np.empty((m, m))
    for r in range(m):
        step = np.zeros(m)
        step[r] = h
        jx[:, r] = (np.asarray(x_fn(u + step)) - np.asarray(x_fn(u - step))) / (2 * h)
        jy[:, r] = (np.asarray(y_fn(u + step)) - np.asarray(y_fn(u - step))) / (2 * h)
    return jy @ np.asarray(x_fn(u)) - jx @ np.asarray(y_fn(u))


class FrameJet:
    """Frame at a point together with coordinate Jacobians of all frame
    fields and of the triple matrices, from central differences of step
    ``h`` with the frame's pivots frozen.  Everything downstream (brackets,
    vertical derivatives of the triple, structure functions) is algebraic in
    this data."""

    def __init__(self, chart, frame, h=DEFAULT_STEPS.fd,
                 tol=DEFAULT_TOLERANCES):
        self.chart = chart
        self.h = h
        self.frame = frame
        u = frame.point
        m = chart.m
        pivots = self.frame.pivot_order

        # displaced points in the order +e_1, -e_1, +e_2, ...: one stacked
        # frame evaluation
        step = h * np.eye(m)
        displaced = np.empty((2 * m, m))
        displaced[0::2] = u + step
        displaced[1::2] = u - step
        frames = frame_field(chart, displaced, pivot_order=pivots, tol=tol)

        def derivative(arrays):
            # d/du_r in the last slot
            stacked = np.array(arrays)
            return np.moveaxis((stacked[0::2] - stacked[1::2]) / (2 * h), 0, -1)

        self.d_eH = derivative([f.eH for f in frames])      # (m, 4n, m)
        self.d_xi = derivative([f.xi for f in frames])      # (m, 3, m)
        self.d_I = derivative([list(f.I) for f in frames])  # (3, 4n, 4n, m)

    @property
    def m(self):
        return self.chart.m

    @property
    def fourn(self):
        return self.frame.fourn

    def field_value(self, alpha):
        """Coordinate components of frame field alpha (e_1..e_4n, xi_1..3)."""
        fourn = self.fourn
        if alpha < fourn:
            return self.frame.eH[:, alpha]
        return self.frame.xi[:, alpha - fourn]

    def field_jacobian(self, alpha):
        fourn = self.fourn
        if alpha < fourn:
            return self.d_eH[:, alpha, :]
        return self.d_xi[:, alpha - fourn, :]

    def bracket(self, alpha, beta):
        """[f_alpha, f_beta] at the base point, as a coordinate vector."""
        va = self.field_value(alpha)
        vb = self.field_value(beta)
        return self.field_jacobian(beta) @ va - self.field_jacobian(alpha) @ vb

    def directional_I(self, s, vector):
        """Directional derivative of the frame matrix field of I_s along a
        coordinate vector."""
        return self.d_I[s] @ np.asarray(vector)

    def decompose(self, v):
        """(horizontal coefficients, vertical coefficients) of a coordinate
        vector at the base point."""
        fr = self.frame
        return fr.h_components(v), fr.v_components(v)
