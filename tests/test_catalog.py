import json

import numpy as np
import pytest

from qclab.algebra import standard_triple
from qclab.catalog import (_heisenberg_coeff_strings, builtin_charts,
                           config_from_chart, conformal, get_chart, heisenberg,
                           load_config, save_config, validate_chart)
from qclab.connection import torsion_tensors
from qclab.curvature import FrozenPivotStage
from qclab.errors import BiquardConditionFail, ConfigError, NonPositiveFactor

FROZEN_H1_ETA1 = ["-u2", "u1", "-u4", "u3", "1/2", "0", "0"]
FROZEN_H1_ETA2 = ["-u3", "u4", "u1", "-u2", "0", "1/2", "0"]
FROZEN_H1_ETA3 = ["-u4", "-u3", "u2", "u1", "0", "0", "1/2"]


def test_heisenberg_coefficients_frozen():
    # orientation of the constant quaternion matrices is pinned: structure
    # recovery must keep returning the flat metric with these exact strings
    rows = _heisenberg_coeff_strings(1)
    assert [r.replace(" ", "") for r in rows[0]] == FROZEN_H1_ETA1
    assert [r.replace(" ", "") for r in rows[1]] == FROZEN_H1_ETA2
    assert [r.replace(" ", "") for r in rows[2]] == FROZEN_H1_ETA3


def test_heisenberg_validates_at_random_points():
    validate_chart(heisenberg(1), samples=20, seed=3)


def test_heisenberg_left_invariant_brackets():
    # closed form: [e_a, e_b] = -2 sum_s (J_s)_{ba} xi_s, [xi, e] = [xi, xi] = 0
    ch = heisenberg(1)
    J = standard_triple(1)
    rng = np.random.default_rng(4)
    u = rng.uniform(-1, 1, 7)
    jet = FrozenPivotStage(ch, u).connection(u).jet
    fr = jet.frame
    for a in range(4):
        for b in range(4):
            if a == b:
                continue
            expected = sum(-2.0 * J[s][b, a] * fr.xi[:, s] for s in range(3))
            assert np.abs(jet.bracket(a, b) - expected).max() <= 1e-8
    for s in range(3):
        for a in range(4):
            assert np.abs(jet.bracket(4 + s, a)).max() <= 1e-8
        for t in range(3):
            assert np.abs(jet.bracket(4 + s, 4 + t)).max() <= 1e-10


def test_heisenberg_zero_torsion_and_scal():
    ch = heisenberg(1)
    for u in ch.sample_points(3, seed=5):
        conn = FrozenPivotStage(ch, u).connection(u)
        tors = torsion_tensors(conn)
        assert tors.t0_norm <= 1e-6
        assert tors.u_norm <= 1e-6


def test_unsupported_n():
    with pytest.raises(ValueError):
        heisenberg(3)


def test_conformal_constant_factor_keeps_flatness():
    # rescaling by a constant is a homothety: torsion stays zero
    ch = conformal(heisenberg(1), "2")
    for u in ch.sample_points(2, seed=6):
        conn = FrozenPivotStage(ch, u).connection(u)
        tors = torsion_tensors(conn)
        assert tors.t0_norm <= 1e-6
        assert tors.u_norm <= 1e-6


def test_conformal_nonconstant_factor_generates_torsion():
    ch = conformal(heisenberg(1), "exp(0.2*u1)")
    count = 0
    for u in ch.sample_points(8, seed=7):
        conn = FrozenPivotStage(ch, u).connection(u)
        if torsion_tensors(conn).t0_norm > 1e-4:
            count += 1
    assert count >= 7


def test_conformal_continuity_towards_identity():
    # torsion decays towards the flat value as the factor approaches 1
    # (quadratically: it is built from products of factor derivatives)
    base = heisenberg(1)
    rng = np.random.default_rng(8)
    u = rng.uniform(-1, 1, 7)
    norms = []
    for eps in (1e-2, 1e-3):
        ch = conformal(base, f"1 + {eps}*u1")
        conn = FrozenPivotStage(ch, u).connection(u)
        norms.append(torsion_tensors(conn).t0_norm)
    assert norms[1] < norms[0]
    assert norms[1] <= 0.05 * norms[0]
    assert norms[1] >= 1e-8  # still resolved above differencing noise


def test_conformal_rejects_sign_changing_factor():
    with pytest.raises(NonPositiveFactor):
        conformal(heisenberg(1), "u1")


def test_builtin_catalog_contents():
    entries = builtin_charts()
    assert "heisenberg-1" in entries
    assert "heisenberg-2" in entries
    with pytest.raises(ConfigError):
        get_chart("nope")


@pytest.mark.parametrize("suffix", ["cfg", "json"])
def test_config_round_trip(tmp_path, suffix):
    chart = heisenberg(1)
    path = str(tmp_path / f"h1.{suffix}")
    save_config(chart, path)
    loaded, config = load_config(path, validate=False)
    rng = np.random.default_rng(9)
    for _ in range(50):
        u = rng.uniform(-1, 1, 7)
        assert np.abs(loaded.eval_coframe(u) - chart.eval_coframe(u)).max() == 0.0
    assert config.n == 1
    assert config.name == "heisenberg-1"


def test_config_dimension_mismatch(tmp_path):
    config = config_from_chart(heisenberg(1))
    payload = {
        "version": 1, "name": "bad", "n": 2,  # m = 11 but rows have 7 entries
        "coords": [f"u{i+1}" for i in range(11)],
        "eta1": config.eta[0], "eta2": config.eta[1], "eta3": config.eta[2],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_config_with_factor(tmp_path):
    config = config_from_chart(heisenberg(1))
    config.factor = "exp(0.2*u1)"
    config.name = "deformed"
    path = str(tmp_path / "deformed.cfg")
    save_config(config, path)
    loaded, _ = load_config(path, validate=False)
    expected = conformal(heisenberg(1), "exp(0.2*u1)")
    rng = np.random.default_rng(10)
    u = rng.uniform(-1, 1, 7)
    assert np.abs(loaded.eval_coframe(u) - expected.eval_coframe(u)).max() <= 1e-15


def bad_config_text():
    """Config whose coframe passes pointwise recovery on its (degenerate)
    sampling box but cannot satisfy the shared vertical-space condition."""
    rows = _heisenberg_coeff_strings(1)
    rows[0][0] = rows[0][0] + " + 0.1*u5^2"
    lines = ["[chart]", "version = 1", "name = bad-vertical", "n = 1",
             "coords = " + ", ".join(f"u{i+1}" for i in range(7)),
             "", "[eta]"]
    for s in range(3):
        lines.append(f"eta{s+1} = " + ", ".join(rows[s]))
    lines += ["", "[domain]",
              "box = 0:0, 0:0, 0:0, 0:0, 0.5:1, -1:1, -1:1",
              "", "[sampling]", "samples = 5", "seed = 1"]
    return "\n".join(lines) + "\n"


def test_config_incompatible_coframe_fails_validation(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(bad_config_text())
    with pytest.raises(BiquardConditionFail) as info:
        load_config(str(path))
    assert info.value.point is not None
    assert info.value.residual > 1e-3
    # loading without validation must succeed
    loaded, _ = load_config(str(path), validate=False)
    assert loaded.n == 1


def test_heisenberg_2_validates():
    validate_chart(heisenberg(2), samples=3, seed=11)
