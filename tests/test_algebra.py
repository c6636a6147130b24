import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qclab import connection
from qclab.algebra import (QuaternionTriple, endo_inner, four_part_decompose,
                           four_part_max_residual, project_P, project_sp1,
                           project_torsion_space, sp1_component,
                           standard_triple, torsion_skew_basis, v_cross)
from qclab.catalog import conformal, heisenberg
from qclab.curvature import FrozenPivotStage

TOL = 1e-12


def random_triple(n, seed):
    """Conjugate the standard triple by a random orthogonal matrix."""
    rng = np.random.default_rng(seed)
    base = standard_triple(n)
    q, _ = np.linalg.qr(rng.standard_normal((4 * n, 4 * n)))
    return QuaternionTriple(*(q @ I @ q.T for I in base))


def test_standard_triple_relations():
    for n in (1, 2):
        assert standard_triple(n).max_relation_residual() <= TOL


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.sampled_from([1, 2]))
def test_random_triples_satisfy_relations(seed, n):
    assert random_triple(n, seed).max_relation_residual() <= TOL


def test_endo_inner_identity():
    for n in (1, 2):
        eye = np.eye(4 * n)
        assert endo_inner(eye, eye) == pytest.approx(1.0, abs=TOL)


def test_endo_inner_triple_orthonormal():
    T = random_triple(2, 5)
    assert abs(endo_inner(T.I1, T.I2)) <= TOL
    assert endo_inner(T.I3, T.I3) == pytest.approx(1.0, abs=TOL)


def test_endo_inner_matches_double_loop():
    rng = np.random.default_rng(42)
    A = rng.standard_normal((8, 8))
    B = rng.standard_normal((8, 8))
    acc = 0.0
    for i in range(8):
        for j in range(8):
            acc += A[i, j] * B[i, j]
    assert endo_inner(A, B) == pytest.approx(acc / 8.0, abs=1e-14)


def test_endo_inner_size_mismatch():
    with pytest.raises(ValueError):
        endo_inner(np.eye(4), np.eye(8))


def test_four_part_identity_matrix():
    T = standard_triple(1)
    split = four_part_decompose(np.eye(4), T)
    assert np.abs(split.p_ppp - np.eye(4)).max() <= TOL
    for part in (split.p_pmm, split.p_mpm, split.p_mmp):
        assert np.abs(part).max() <= TOL


def test_four_part_of_triple_member():
    T = standard_triple(1)
    split = four_part_decompose(T.I1, T)
    assert np.abs(split.p_pmm - T.I1).max() <= TOL
    for part in (split.p_ppp, split.p_mpm, split.p_mmp):
        assert np.abs(part).max() <= TOL


def test_four_part_commutation_pattern_random():
    T = random_triple(1, 7)
    rng = np.random.default_rng(7)
    psi = rng.standard_normal((4, 4))
    split = four_part_decompose(psi, T)
    assert np.abs(split.total() - psi).max() <= TOL
    assert four_part_max_residual(split, T) <= TOL


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.sampled_from([1, 2]))
def test_four_part_completeness_property(seed, n):
    T = random_triple(n, seed)
    rng = np.random.default_rng(seed + 1)
    psi = rng.standard_normal((4 * n, 4 * n))
    split = four_part_decompose(psi, T)
    assert np.abs(split.total() - psi).max() <= TOL
    assert four_part_max_residual(split, T) <= TOL


def test_project_sp1_examples():
    T = random_triple(1, 3)
    coeffs = project_sp1(2.0 * T.I2, T)
    assert np.abs(coeffs - [0.0, 2.0, 0.0]).max() <= TOL

    rng = np.random.default_rng(4)
    sym = rng.standard_normal((4, 4))
    sym = sym + sym.T
    assert np.abs(project_sp1(sym, T)).max() <= TOL

    psi = rng.standard_normal((4, 4))
    resid = psi - sp1_component(psi, T)
    for Is in T:
        assert abs(endo_inner(resid, Is)) <= TOL


def test_project_P_examples():
    T = random_triple(1, 9)
    assert np.abs(project_P(np.eye(4), T)).max() <= TOL

    # averaging a random skew matrix into the commutant gives a fixed point
    rng = np.random.default_rng(9)
    A = rng.standard_normal((4, 4))
    A = A - A.T
    fixed = 0.25 * (A - T.I1 @ A @ T.I1 - T.I2 @ A @ T.I2 - T.I3 @ A @ T.I3)
    assert np.abs(project_P(fixed, T) - fixed).max() <= 1e-11
    assert np.abs(project_P(project_P(A, T), T) - project_P(A, T)).max() <= TOL


def test_project_P_image_rank_three_for_n1():
    T = random_triple(1, 11)
    rng = np.random.default_rng(11)
    vecs = [project_P(rng.standard_normal((4, 4)), T).ravel()
            for _ in range(50)]
    sv = np.linalg.svd(np.array(vecs), compute_uv=False)
    rank = int((sv > 1e-10 * sv[0]).sum())
    assert rank == 3  # dim sp(1)' = 2n^2 + n at n = 1


def test_project_torsion_space_examples():
    T = random_triple(1, 13)
    assert np.abs(project_torsion_space(T.I3, T)).max() <= TOL

    rng = np.random.default_rng(13)
    sym = rng.standard_normal((4, 4))
    sym = sym + sym.T
    sym -= np.trace(sym) / 4.0 * np.eye(4)
    assert np.abs(project_torsion_space(sym, T) - sym).max() <= TOL

    psi = rng.standard_normal((4, 4))
    rem = project_torsion_space(psi, T)
    assert abs(endo_inner(rem, project_P(psi, T))) <= TOL
    for Is in T:
        assert abs(endo_inner(rem, Is)) <= TOL
    twice = project_torsion_space(rem, T)
    assert np.abs(twice - rem).max() <= TOL


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.sampled_from([1, 2]))
def test_three_projections_orthogonal_and_complete(seed, n):
    T = random_triple(n, seed)
    rng = np.random.default_rng(seed + 2)
    psi = rng.standard_normal((4 * n, 4 * n))
    p_part = project_P(psi, T)
    sp1_part = sp1_component(psi, T)
    rest = project_torsion_space(psi, T)
    assert np.abs(p_part + sp1_part + rest - psi).max() <= TOL
    assert abs(endo_inner(p_part, sp1_part)) <= TOL
    assert abs(endo_inner(p_part, rest)) <= TOL
    assert abs(endo_inner(sp1_part, rest)) <= TOL


def test_symmetric_commutant_is_one_dimensional_for_n1():
    # symmetric matrices commuting with the whole triple project, under the
    # fully-commuting component, onto multiples of the identity
    T = random_triple(1, 17)
    rng = np.random.default_rng(17)
    vecs = []
    for _ in range(50):
        S = rng.standard_normal((4, 4))
        S = S + S.T
        part = four_part_decompose(S, T).p_ppp
        vecs.append((0.5 * (part + part.T)).ravel())
    sv = np.linalg.svd(np.array(vecs), compute_uv=False)
    rank = int((sv > 1e-10 * sv[0]).sum())
    assert rank == 1


def _gram_schmidt_torsion_skew_basis(triple):
    # reference: Gram-Schmidt over the projected elementary skew matrices
    dim = triple.dim
    basis = []
    for i in range(dim):
        for j in range(i + 1, dim):
            S = np.zeros((dim, dim))
            S[i, j], S[j, i] = 1.0, -1.0
            cand = project_torsion_space(S, triple)
            for prev in basis:
                cand = cand - endo_inner(cand, prev) * prev
            nrm = endo_inner(cand, cand) ** 0.5
            if nrm > 1e-8:
                basis.append(cand / nrm)
    return basis


def _span_projector(basis):
    flat = np.array([E.ravel() for E in basis])
    return flat.T @ flat / basis[0].shape[0]


def test_torsion_skew_basis_matches_gram_schmidt(monkeypatch):
    # on the frame triple of heisenberg-2, the SVD basis is orthonormal and
    # spans what the Gram-Schmidt basis spans; the least-squares correction
    # of the vertical connection does not depend on which one is used
    chart = conformal(heisenberg(2), "exp(0.2*u1)")
    u = chart.sample_points(1, seed=6)[0]
    jet = FrozenPivotStage(chart, u).connection(u).jet
    triple = jet.frame.I
    basis = torsion_skew_basis(triple)
    reference = _gram_schmidt_torsion_skew_basis(triple)
    assert len(basis) == len(reference) == 15
    gram = np.array([[endo_inner(a, b) for b in basis] for a in basis])
    assert np.abs(gram - np.eye(15)).max() <= 1e-12
    assert np.abs(_span_projector(basis)
                  - _span_projector(reference)).max() <= 1e-12

    C = connection.vertical_on_H(jet)[0]
    monkeypatch.setattr(connection, "torsion_skew_basis", lambda t: np.array(
        _gram_schmidt_torsion_skew_basis(t)))
    C_reference = connection.vertical_on_H(jet)[0]
    assert np.abs(C - C_reference).max() <= 1e-12


def test_torsion_skew_basis_dimensions():
    assert len(torsion_skew_basis(standard_triple(1))) == 0
    # dim so(8) - dim sp(2) - dim sp(1) = 28 - 10 - 3
    assert len(torsion_skew_basis(standard_triple(2))) == 15


def test_v_cross():
    assert np.abs(v_cross([1, 0, 0], [0, 1, 0]) - [0, 0, 1]).max() == 0.0
    a = np.array([0.3, -1.2, 2.0])
    assert np.abs(v_cross(a, a)).max() == 0.0
    assert np.abs(v_cross([1, 2, 3], [4, 5, 6]) - [-3.0, 6.0, -3.0]).max() == 0.0
