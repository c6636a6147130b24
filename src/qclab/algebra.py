"""Endomorphism algebra of a 4n-dimensional Euclidean space.

All matrices live in g-orthonormal frames, so the plain transpose is the
metric adjoint.  The module provides the trace inner product, quaternion
triples, the four-part decomposition by commutation signs with the triple,
and the orthogonal projections onto sp(1), onto the commuting skew algebra
P (isomorphic to sp(n)), and onto their orthogonal complement where torsion
endomorphisms live.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _check_square(A, stacked=False):
    """A as a float array: one square 4n x 4n matrix, or with ``stacked``
    a stack of them (shape (..., 4n, 4n))."""
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or (A.ndim != 2 and not stacked) \
            or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if A.shape[-1] % 4 != 0 or A.shape[-1] == 0:
        raise ValueError(f"matrix size {A.shape[-1]} is not 4n")
    return A


def _check_same_size(*mats):
    sizes = {np.asarray(M).shape[-2:] for M in mats}
    if len(sizes) != 1:
        raise ValueError(f"size mismatch: {sorted(sizes)}")


def endo_inner(A, B):
    """Trace inner product <A, B> = trace(A^T B) / 4n."""
    A = _check_square(A)
    B = _check_square(B)
    _check_same_size(A, B)
    return float(np.vdot(A, B)) / A.shape[0]


def sym_part(A):
    A = np.asarray(A, dtype=float)
    return 0.5 * (A + np.swapaxes(A, -1, -2))


def skew_part(A):
    A = np.asarray(A, dtype=float)
    return 0.5 * (A - np.swapaxes(A, -1, -2))


@dataclass(frozen=True)
class QuaternionTriple:
    """Three almost complex structures satisfying the imaginary quaternion
    identities: I_s^2 = -Id and I1 I2 = I3 = -I2 I1."""

    I1: np.ndarray
    I2: np.ndarray
    I3: np.ndarray

    def __post_init__(self):
        for M in (self.I1, self.I2, self.I3):
            _check_square(M)
        _check_same_size(self.I1, self.I2, self.I3)

    def __iter__(self):
        return iter((self.I1, self.I2, self.I3))

    def __getitem__(self, s):
        return (self.I1, self.I2, self.I3)[s]

    @property
    def dim(self):
        return self.I1.shape[0]

    @cached_property
    def stack(self):
        """The three matrices as one (3, 4n, 4n) array."""
        return np.stack((self.I1, self.I2, self.I3))

    @property
    def n(self):
        return self.dim // 4

    def combine(self, x):
        """The structure x1 I1 + x2 I2 + x3 I3."""
        x = np.asarray(x, dtype=float)
        return x[0] * self.I1 + x[1] * self.I2 + x[2] * self.I3

    def rotated(self, rot):
        """New triple I'_s = sum_t rot[s, t] I_t for rot in SO(3)."""
        rot = np.asarray(rot, dtype=float)
        return QuaternionTriple(*(self.combine(rot[s]) for s in range(3)))

    def max_relation_residual(self):
        """Largest violation of the quaternion identities, skewness and
        orthogonality; zero (to rounding) on a valid triple."""
        I1, I2, I3 = self.I1, self.I2, self.I3
        eye = np.eye(self.dim)
        residuals = [
            np.abs(I1 @ I1 + eye).max(),
            np.abs(I2 @ I2 + eye).max(),
            np.abs(I3 @ I3 + eye).max(),
            np.abs(I1 @ I2 - I3).max(),
            np.abs(I2 @ I1 + I3).max(),
            np.abs(I1 + I1.T).max(),
            np.abs(I2 + I2.T).max(),
            np.abs(I3 + I3.T).max(),
            abs(endo_inner(I1, I2)),
            abs(endo_inner(I2, I3)),
            abs(endo_inner(I3, I1)),
            abs(endo_inner(I1, I1) - 1.0),
            abs(endo_inner(I2, I2) - 1.0),
            abs(endo_inner(I3, I3) - 1.0),
        ]
        return max(residuals)


# Sign patterns of the four components: +1 means the part commutes with I_s,
# -1 that it anticommutes.
FOUR_PART_SIGNS = {
    "ppp": (1, 1, 1),
    "pmm": (1, -1, -1),
    "mpm": (-1, 1, -1),
    "mmp": (-1, -1, 1),
}


@dataclass(frozen=True)
class FourPartSplit:
    p_ppp: np.ndarray
    p_pmm: np.ndarray
    p_mpm: np.ndarray
    p_mmp: np.ndarray

    def __iter__(self):
        return iter((self.p_ppp, self.p_pmm, self.p_mpm, self.p_mmp))

    def parts(self):
        return {"ppp": self.p_ppp, "pmm": self.p_pmm,
                "mpm": self.p_mpm, "mmp": self.p_mmp}

    def total(self):
        return self.p_ppp + self.p_pmm + self.p_mpm + self.p_mmp


def four_part_decompose(psi, triple):
    """Split psi (a matrix or a stack of them) by commutation signs with
    the quaternion triple.

    4 psi^{+++} = psi - I1 psi I1 - I2 psi I2 - I3 psi I3, and the other
    three parts flip the sign in front of two of the conjugated terms.
    """
    psi = _check_square(psi, stacked=True)
    _check_same_size(psi, triple.I1)
    conj = [Is @ psi @ Is for Is in triple]
    p_ppp = 0.25 * (psi - conj[0] - conj[1] - conj[2])
    p_pmm = 0.25 * (psi - conj[0] + conj[1] + conj[2])
    p_mpm = 0.25 * (psi + conj[0] - conj[1] + conj[2])
    p_mmp = 0.25 * (psi + conj[0] + conj[1] - conj[2])
    return FourPartSplit(p_ppp, p_pmm, p_mpm, p_mmp)


def four_part_max_residual(split, triple):
    """Largest violation of the commutation sign pattern across the parts."""
    worst = 0.0
    for key, part in split.parts().items():
        for sign, Is in zip(FOUR_PART_SIGNS[key], triple):
            res = part @ Is - sign * (Is @ part)
            worst = max(worst, np.abs(res).max())
    return worst


def project_sp1(psi, triple):
    """Coefficients (<psi, I1>, <psi, I2>, <psi, I3>) of the orthogonal
    projection of psi onto span{I1, I2, I3}; for a stack of matrices, a
    stack of coefficient triples."""
    psi = _check_square(psi, stacked=True)
    _check_same_size(psi, triple.I1)
    return np.einsum("...ij,tij->...t", psi, triple.stack) / triple.dim


def sp1_component(psi, triple):
    return np.einsum("...t,tij->...ij", project_sp1(psi, triple),
                     triple.stack)


def project_P(psi, triple):
    """Orthogonal projection onto P = {skew endomorphisms commuting with the
    whole triple}: the skew part of the fully commuting component."""
    return skew_part(four_part_decompose(psi, triple).p_ppp)


def project_torsion_space(psi, triple):
    """Component of psi orthogonal to both P and span{I_s} (the space where
    torsion endomorphisms live)."""
    psi = _check_square(psi, stacked=True)
    return psi - project_P(psi, triple) - sp1_component(psi, triple)


def torsion_skew_basis(triple):
    """Orthonormal (trace inner product) basis of the skew part of the
    torsion space, as a (k, 4n, 4n) array: the right singular vectors of
    the projected elementary skew matrices, cut at a relative 1e-8.  Empty
    for n = 1, where so(4) = sp(1) + P exactly."""
    dim = triple.dim
    if dim == 4:
        return np.zeros((0, dim, dim))
    i, j = np.triu_indices(dim, 1)
    S = np.zeros((len(i), dim, dim))
    S[np.arange(len(i)), i, j] = 1.0
    S[np.arange(len(i)), j, i] = -1.0
    _, sv, Vt = np.linalg.svd(
        project_torsion_space(S, triple).reshape(len(i), -1),
        full_matrices=False)
    rank = int(np.count_nonzero(sv > 1e-8 * sv[0]))
    return np.sqrt(dim) * Vt[:rank].reshape(rank, dim, dim)


def v_cross(a, b):
    """Oriented cross product of coefficient triples in the vertical frame."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.array([
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ])


def standard_triple(n):
    """Block-diagonal triple given by left multiplication with i, j, k on
    quaternion coordinates (1, i, j, k) per block."""
    Li = np.array([
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    Lj = np.array([
        [0.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ])
    Lk = np.array([
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, -1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
    ])

    def blocks(L):
        M = np.zeros((4 * n, 4 * n))
        for k in range(n):
            M[4 * k:4 * k + 4, 4 * k:4 * k + 4] = L
        return M

    return QuaternionTriple(blocks(Li), blocks(Lj), blocks(Lk))
