"""Default tolerances and finite-difference step sizes.

Exact-algebra identities (pure matrix arithmetic) sit at 1e-12.  Quantities
built from one layer of finite differencing (frame brackets, vertical
derivatives) are checked at 1e-7..1e-9; second-difference quantities
(curvature, Ricci decomposition) at 1e-4..1e-5.
"""

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    # pure linear algebra
    algebra: float = 1e-12

    # point-frame invariants
    frame_annihilation: float = 1e-10   # eta_s(e_a) = 0, eta_t(xi_s) = delta
    frame_gram: float = 1e-10           # g(e_a, e_b) = delta
    frame_compat: float = 1e-9          # d eta_s(X, Y) = 2 g(I_s X, Y)
    reeb: float = 1e-9                  # shared-vertical compatibility residual
    recovery: float = 1e-8              # quaternion relations of recovered triple

    # connection-stage residuals (one finite-difference layer)
    connection: float = 1e-7
    u_tensor: float = 1e-7              # b_s = I_s u recovery spread
    u_vanish_dim7: float = 1e-8         # u = 0 when n = 1

    # curvature-stage residuals (second differences)
    curvature_skew: float = 1e-6
    ricci_symmetry: float = 1e-5
    ricci_decomposition: float = 1e-4
    vertical_forms: float = 1e-5        # alpha_i(xi_s) cross-identity

    # twistor verdicts
    normal: float = 1e-4
    t0: float = 1e-5
    oracle: float = 1e-4

    # conditioning thresholds
    min_singular_value: float = 1e-6
    condition_number: float = 1e10

    def updated(self, **kwargs):
        return replace(self, **kwargs)


@dataclass(frozen=True)
class Steps:
    """Finite-difference step sizes.

    First derivatives of frame fields use ``fd``; the connection layer is
    differenced with ``curv``.  The coframe coefficients themselves are
    differentiated exactly, so truncation error is tiny for slowly varying
    charts and the binding constraint is rounding noise amplified by the
    nested differencing; the defaults keep the flat-model curvature noise
    floor near 1e-8.
    """

    fd: float = 1e-4
    curv: float = 2e-3

    def updated(self, **kwargs):
        return replace(self, **kwargs)


DEFAULT_TOLERANCES = Tolerances()
DEFAULT_STEPS = Steps()
