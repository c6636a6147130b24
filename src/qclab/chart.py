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

# GS pivots: relative tie snap for residual norms, and drop threshold for
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
    pivot order takes, at each step, the remaining seed with the largest
    metric norm of its residual (column pivoting; residuals tied within a
    relative 1e-6 keep coordinate order), which makes the construction
    deterministic, well conditioned and smooth in u away from pivot
    switches.  Passing a precomputed ``pivot_order`` freezes the choice,
    which keeps the frame smooth across the small displacements used by
    finite differencing.

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
    residuals = _swap(N) @ proj  # (P, 4n, m): column r = the r-th seed

    def norms():
        return np.sqrt(np.maximum(
            np.einsum("pir,pij,pjr->pr", residuals, G, residuals), 0.0))

    nrm = norms()
    top = nrm.max(axis=1)
    if pivot_order is None:
        _raise_first(U, (top <= 0.0, DegenerateCoframe,
                         "all seed projections vanish", None))
    else:
        pivot_order = np.asarray(pivot_order, dtype=int)

    # Gram-Schmidt over the points at once, projecting every seed's
    # residual on each accepted direction; the free order takes the seed
    # with the largest residual (column pivoting)
    Q = np.zeros((count, fourn, fourn))     # accepted directions (columns)
    used = np.zeros((count, fourn), dtype=int)
    built = np.full(count, fourn)           # directions built before a drop
    points = np.arange(count)
    taken = np.zeros((count, m), dtype=bool)
    for j in range(fourn):
        if pivot_order is None:
            left = np.where(taken, -1.0, nrm)
            best = left.max(axis=1, keepdims=True)
            pick = np.argmax(left >= (1.0 - _PIVOT_TIE) * best, axis=1)
        else:
            pick = np.full(count, pivot_order[j])
        size = nrm[points, pick]
        drop = (size <= _PIVOT_DROP * top) & (built == fourn)
        built[drop] = j
        q = residuals[points, :, pick] / np.where(built > j, size, 1.0)[:, None]
        Q[:, :, j] = q
        used[:, j] = pick
        taken[points, pick] = True
        residuals = residuals - q[:, :, None] * np.einsum(
            "pi,pij,pjr->pr", q, G, residuals)[:, None, :]
        nrm = norms()
    short = np.flatnonzero(built < fourn)
    if short.size:
        k = short[0]
        raise DegenerateCoframe(
            f"could only build {built[k]} of {fourn} frame directions",
            point=U[k])

    eH = N @ Q                             # (P, m, 4n)
    Imats = (_swap(Q) @ G)[:, None] @ structure.imatrices @ Q[:, None]
    g_coord = _swap(proj) @ (N @ G @ _swap(N)) @ proj + _swap(C) @ C

    # each frame owns copies of its rows, so a kept frame does not pin the
    # whole stack
    return [PointFrame(point=U[k].copy(), eH=eH[k].copy(),
                       xi=reeb.xi[k].copy(),
                       I=QuaternionTriple(*Imats[k].copy()),
                       reeb_residual=float(reeb.residual[k]),
                       coframe=C[k].copy(),
                       dcoframe=structure.dcoframe[k].copy(),
                       g_coord=g_coord[k].copy(),
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


def jet_points(u, h):
    """The 2m displaced points of a frame jet at u, in the order +e_1, -e_1,
    +e_2, ...: shape (2m, m)."""
    u = np.asarray(u, dtype=float)
    step = h * np.eye(u.shape[0])
    displaced = np.empty((2 * u.shape[0], u.shape[0]))
    displaced[0::2] = u + step
    displaced[1::2] = u - step
    return displaced


class FrameJet:
    """Frame at a point together with coordinate Jacobians of all frame
    fields and of the triple matrices, from central differences of step
    ``h`` over the frames ``displaced`` at ``jet_points(frame.point, h)``
    (built with the frame's pivots frozen), and every bracket of two frame
    fields.  Everything downstream (brackets, vertical derivatives of the
    triple, structure functions) is algebraic in this data."""

    def __init__(self, chart, frame, displaced, h):
        self.chart = chart
        self.h = h
        self.frame = frame

        def derivative(arrays):
            # d/du_r in the last slot
            stacked = np.array(arrays)
            return np.moveaxis((stacked[0::2] - stacked[1::2]) / (2 * h), 0, -1)

        self.d_eH = derivative([f.eH for f in displaced])      # (m, 4n, m)
        self.d_xi = derivative([f.xi for f in displaced])      # (m, 3, m)
        self.d_I = derivative([list(f.I) for f in displaced])  # (3, 4n, 4n, m)

        # brackets[:, alpha, beta] = [f_alpha, f_beta] = J_beta f_alpha -
        # J_alpha f_beta, from JV[:, alpha, beta] = J_alpha f_beta
        fields = np.concatenate([frame.eH, frame.xi], axis=1)
        jacobians = np.concatenate([self.d_eH, self.d_xi], axis=1)
        JV = jacobians @ fields
        self.brackets = _swap(JV) - JV                          # (m, m, m)

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

    def bracket(self, alpha, beta):
        """[f_alpha, f_beta] at the base point, as a coordinate vector."""
        return self.brackets[:, alpha, beta]

    def directional_I(self, s, vector):
        """Directional derivative of the frame matrix field of I_s along a
        coordinate vector."""
        return self.d_I[s] @ np.asarray(vector)

    def decompose(self, v):
        """(horizontal coefficients, vertical coefficients) of a coordinate
        vector at the base point."""
        fr = self.frame
        return fr.h_components(v), fr.v_components(v)
