import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qclab import exprlang
from qclab.errors import (DimensionExceeded, EvalDomainError, ExprSyntaxError,
                          UnknownIdentifier)


def test_basic_arithmetic():
    e = exprlang.parse("u1*u2 + 0.5", 3)
    assert exprlang.evaluate(e, [2.0, 3.0, 0.0]) == pytest.approx(6.5)


def test_trig_identity():
    e = exprlang.parse("sin(u1)^2 + cos(u1)^2", 1)
    for x in (-2.0, 0.0, 0.7, 31.4):
        assert exprlang.evaluate(e, [x]) == pytest.approx(1.0, abs=1e-14)


def test_division_by_zero():
    e = exprlang.parse("u1/u2", 2)
    with pytest.raises(EvalDomainError):
        exprlang.evaluate(e, [1.0, 0.0])


def test_domain_errors():
    with pytest.raises(EvalDomainError):
        exprlang.evaluate(exprlang.parse("log(u1)", 1), [-1.0])
    with pytest.raises(EvalDomainError):
        exprlang.evaluate(exprlang.parse("sqrt(u1)", 1), [-1.0])
    with pytest.raises(EvalDomainError):
        exprlang.evaluate(exprlang.parse("u1^0.5", 1), [-2.0])


def test_syntax_error_carries_offset():
    with pytest.raises(ExprSyntaxError) as info:
        exprlang.parse("u1 + * u2", 2)
    assert info.value.offset == 5


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier):
        exprlang.parse("u1 + bogus", 2)


def test_dimension_exceeded():
    with pytest.raises(DimensionExceeded):
        exprlang.parse("u5", 3)


def test_precedence_and_associativity():
    assert exprlang.evaluate(exprlang.parse("2^3^2", 1), [0.0]) == 512.0
    assert exprlang.evaluate(exprlang.parse("-2^2", 1), [0.0]) == -4.0
    assert exprlang.evaluate(exprlang.parse("2^-2", 1), [0.0]) == 0.25
    assert exprlang.evaluate(exprlang.parse("1 - 2 - 3", 1), [0.0]) == -4.0
    assert exprlang.evaluate(exprlang.parse("6 / 2 / 3", 1), [0.0]) == 1.0
    assert exprlang.evaluate(exprlang.parse("1 + 2 * 3", 1), [0.0]) == 7.0


def test_grad_product_rule():
    e = exprlang.parse("u1*u2", 2)
    assert np.abs(exprlang.grad(e, [2.0, 3.0]) - [3.0, 2.0]).max() <= 1e-14


def test_grad_exponential():
    e = exprlang.parse("exp(u3)", 3)
    g = exprlang.grad(e, [0.0, 0.0, 1.0])
    assert np.abs(g - [0.0, 0.0, math.e]).max() <= 1e-14


def _random_tree(rng, depth, m):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return exprlang.Const(float(rng.uniform(0.2, 2.0)))
        return exprlang.Var(int(rng.integers(0, m)))
    kind = rng.integers(0, 6)
    if kind == 0:
        return exprlang.Add(_random_tree(rng, depth - 1, m),
                            _random_tree(rng, depth - 1, m))
    if kind == 1:
        return exprlang.Sub(_random_tree(rng, depth - 1, m),
                            _random_tree(rng, depth - 1, m))
    if kind == 2:
        return exprlang.Mul(_random_tree(rng, depth - 1, m),
                            _random_tree(rng, depth - 1, m))
    if kind == 3:
        return exprlang.Neg(_random_tree(rng, depth - 1, m))
    if kind == 4:
        return exprlang.Pow(_random_tree(rng, depth - 1, m),
                            exprlang.Const(float(rng.integers(1, 4))))
    fn = ("sin", "cos", "exp", "tanh")[rng.integers(0, 4)]
    return exprlang.Call(fn, _random_tree(rng, depth - 1, m))


def test_grad_matches_central_differences():
    rng = np.random.default_rng(11)
    m = 3
    e = _random_tree(rng, 4, m)
    point = rng.uniform(-0.8, 0.8, m)
    g = exprlang.grad(e, point)
    h = 1e-5
    for i in range(m):
        step = np.zeros(m)
        step[i] = h
        fd = (exprlang.evaluate(e, point + step)
              - exprlang.evaluate(e, point - step)) / (2 * h)
        scale = max(1.0, abs(g[i]))
        assert abs(g[i] - fd) / scale <= 1e-6


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_round_trip_through_string(seed):
    rng = np.random.default_rng(seed)
    m = 4
    e = _random_tree(rng, 3, m)
    text = exprlang.to_string(e)
    e2 = exprlang.parse(text, m)
    for _ in range(5):
        point = rng.uniform(-0.9, 0.9, m)
        try:
            v1 = exprlang.evaluate(e, point)
        except EvalDomainError:
            continue
        assert exprlang.evaluate(e2, point) == pytest.approx(v1, abs=1e-13)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_grad_linearity(seed):
    rng = np.random.default_rng(seed)
    m = 3
    e1 = _random_tree(rng, 3, m)
    e2 = _random_tree(rng, 3, m)
    a = float(rng.uniform(-2.0, 2.0))
    combo = exprlang.Add(exprlang.Mul(exprlang.Const(a), e1), e2)
    point = rng.uniform(-0.8, 0.8, m)
    try:
        lhs = exprlang.grad(combo, point)
        rhs = a * exprlang.grad(e1, point) + exprlang.grad(e2, point)
    except EvalDomainError:
        return
    assert np.abs(lhs - rhs).max() <= 1e-13 * max(1.0, np.abs(rhs).max())


def test_integer_power_of_zero_base():
    assert exprlang.evaluate(exprlang.parse("u1^3", 1), [0.0]) == 0.0
    with pytest.raises(EvalDomainError):
        exprlang.evaluate(exprlang.parse("u1^-1", 1), [0.0])


def test_whitespace_insensitive():
    a = exprlang.parse("u1 * u2+ 1", 2)
    b = exprlang.parse("u1*u2+1", 2)
    assert exprlang.evaluate(a, [1.5, 2.0]) == exprlang.evaluate(b, [1.5, 2.0])


def test_constant_valued_subexpression_has_zero_gradient():
    # u1^0 depends on u1 in form only: its value and gradient are exact
    e = exprlang.parse("-((u1^1)^0)^-1", 1)
    value, g = exprlang.value_and_grad(e, [0.5])
    assert value == -1.0
    assert g.tolist() == [0.0]


def test_stacked_evaluation_matches_points():
    rng = np.random.default_rng(3)
    e = exprlang.parse("exp(sin(u1)*u2) / (2 + tanh(u3))^2", 3)
    points = rng.uniform(-1, 1, (6, 3))
    values, grads = exprlang.Tape([e], 3).values_and_grads(points)
    assert np.array_equal(values[:, 0],
                          [exprlang.evaluate(e, p) for p in points])
    assert np.array_equal(grads[:, 0], [exprlang.grad(e, p) for p in points])
