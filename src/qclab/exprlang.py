"""Scalar expression language for coframe coefficients and conformal factors.

Grammar (infix, whitespace-insensitive):

    expr    := term  (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ['^' factor]            # right-associative, binds above unary minus
    atom    := NUMBER | 'u'<k> | FUNC '(' expr ')' | '(' expr ')'

Variables are u1..um (1-based), functions sin, cos, exp, log, sqrt, tanh.
Evaluation never returns NaN/Inf silently: leaving the real domain raises
EvalDomainError.  Expressions are compiled into a ``Tape`` of unique
subexpressions, which evaluates values and exact first derivatives over a
stack of points.
"""

import math
import re

import numpy as np

from .errors import (DimensionExceeded, EvalDomainError, ExprSyntaxError,
                     UnknownIdentifier)

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "tanh")


# --- AST nodes -------------------------------------------------------------

class Expr:
    """Base node.  Nodes are immutable; they are evaluated only through a
    compiled ``Tape``."""

    def to_string(self):
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.to_string()!r})"


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = float(value)

    def to_string(self):
        return repr(self.value)


class Var(Expr):
    __slots__ = ("index",)

    def __init__(self, index):
        self.index = index  # 0-based

    def to_string(self):
        return f"u{self.index + 1}"


class Neg(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg):
        self.arg = arg

    def to_string(self):
        return f"(-{self.arg.to_string()})"


class BinOp(Expr):
    __slots__ = ("left", "right")
    symbol = "?"

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def to_string(self):
        return f"({self.left.to_string()}{self.symbol}{self.right.to_string()})"


class Add(BinOp):
    symbol = "+"


class Sub(BinOp):
    symbol = "-"


class Mul(BinOp):
    symbol = "*"


class Div(BinOp):
    symbol = "/"


class Pow(BinOp):
    """Constant integer exponents by repeated multiplication; any other
    exponent through exp(b log a), which requires a positive base."""

    symbol = "^"


class Call(Expr):
    __slots__ = ("name", "arg")

    def __init__(self, name, arg):
        self.name = name
        self.arg = arg

    def to_string(self):
        return f"{self.name}({self.arg.to_string()})"


# --- compiled tape -----------------------------------------------------------
#
# A value is a float (constant node) or a (P, 1) column over the points; a
# gradient is None (constant), a (1, m) unit row (variable) or a (P, m) array.
# Each kernel returns (value, gradient, [(failure mask, message), ...]); the
# gradient is only formed when ``want`` is true.

def _plus(da, db):
    return db if da is None else da if db is None else da + db


def _minus(da, db):
    return (None if db is None else -db) if da is None else \
        da if db is None else da - db


def _scaled(c, d):
    return None if d is None else c * d


def _int_pow(base, k):
    out = 1.0
    for _ in range(k):
        out = out * base
    return out


def _k_neg(want, a, da):
    return -a, _scaled(-1.0, da) if want else None, ()


def _k_add(want, a, da, b, db):
    return a + b, _plus(da, db) if want else None, ()


def _k_sub(want, a, da, b, db):
    return a - b, _minus(da, db) if want else None, ()


def _k_mul(want, a, da, b, db):
    return a * b, _plus(_scaled(a, db), _scaled(b, da)) if want else None, ()


def _k_div(want, a, da, b, db):
    fails = ((b == 0.0, "division by zero"),)
    d = None
    if want:
        inv = 1.0 / b
        d = _scaled(inv, _minus(da, _scaled(a * inv, db)))
    return a / b, d, fails


def _k_ipow(want, a, da, k):
    fails = ((a == 0.0, "zero raised to a negative power"),) if k < 0 else ()
    value = 1.0 / _int_pow(a, -k) if k < 0 else _int_pow(a, k)
    d = None
    if want and k:
        slope = k / _int_pow(a, 1 - k) if k < 0 else k * _int_pow(a, k - 1)
        d = _scaled(slope, da)
    return value, d, fails


def _k_pow(want, a, da, e, de):
    fails = ((a <= 0.0, "non-integer power of a non-positive base"),)
    log_a = np.log(a)
    value = np.exp(e * log_a)
    d = None
    if want:
        d = _scaled(value, _plus(_scaled(log_a, de), _scaled(e / a, da)))
    return value, d, fails


def _k_log(want, a, da):
    return (np.log(a), _scaled(1.0 / a, da) if want else None,
            ((a <= 0.0, "log of a non-positive value"),))


def _k_sqrt(want, a, da):
    r = np.sqrt(a)
    fails = [(a < 0.0, "sqrt of a negative value")]
    d = None
    if want:
        fails.append((a == 0.0, "sqrt not differentiable at zero"))
        d = _scaled(0.5 / r, da)
    return r, d, fails


def _smooth(fn, dfn):
    def kernel(want, a, da):
        return fn(a), _scaled(dfn(a), da) if want else None, ()
    return kernel


_KERNELS = {
    "neg": _k_neg, "add": _k_add, "sub": _k_sub, "mul": _k_mul,
    "div": _k_div, "ipow": _k_ipow, "pow": _k_pow,
    "log": _k_log, "sqrt": _k_sqrt,
    "sin": _smooth(np.sin, np.cos),
    "cos": _smooth(np.cos, lambda v: -np.sin(v)),
    "exp": _smooth(np.exp, np.exp),
    "tanh": _smooth(np.tanh, lambda v: 1.0 - np.tanh(v) ** 2),
}
_BINARY = {Add: "add", Sub: "sub", Mul: "mul", Div: "div"}


class Tape:
    """The unique subexpressions of a list of expressions, compiled once and
    evaluated in order over a (P, m) array of points.

    Nodes are deduplicated structurally, so a factor or a row shared by
    several expressions is one slot; constant subexpressions are folded.
    Evaluation returns values and, on request, exact gradients.  A row
    leaving the real domain (log or sqrt of a negative value, division by
    zero, ...) or producing a non-finite value raises ``EvalDomainError``
    naming the first such point, with the message of the first failing node
    there."""

    def __init__(self, exprs, m):
        self.m = m
        self.consts = []     # per slot: the folded float, or None
        self.code = []       # (slot, op, argument slots, variable index
                             #  or integer exponent)
        self._units = np.eye(m)[:, None, :]
        keys, by_id = {}, {}
        self.outputs = tuple(self._slot(e, keys, by_id) for e in exprs)
        fixed = [c for c, k in enumerate(self.outputs)
                 if self.consts[k] is not None]
        self._fixed_cols = np.array(fixed, dtype=int)
        self._fixed_values = np.array([self.consts[self.outputs[c]]
                                       for c in fixed])
        self._live_cols = [c for c, k in enumerate(self.outputs)
                           if self.consts[k] is None]
        self._live_slots = [self.outputs[c] for c in self._live_cols]

    def _slot(self, node, keys, by_id):
        slot = by_id.get(id(node))
        if slot is not None:
            return slot
        param = None
        if isinstance(node, Const):
            key = ("const", node.value.hex())
        elif isinstance(node, Var):
            key = ("var", node.index)
        elif isinstance(node, Neg):
            key = ("neg", self._slot(node.arg, keys, by_id))
        elif isinstance(node, Call):
            key = (node.name, self._slot(node.arg, keys, by_id))
        elif isinstance(node, Pow):
            base = self._slot(node.left, keys, by_id)
            expo = self._slot(node.right, keys, by_id)
            e = self.consts[expo]
            if e is not None and e.is_integer():
                key, param = ("ipow", base, int(e)), int(e)
            else:
                key = ("pow", base, expo)
        else:
            key = (_BINARY[type(node)],
                   self._slot(node.left, keys, by_id),
                   self._slot(node.right, keys, by_id))
        slot = keys.get(key)
        if slot is None:
            slot = keys[key] = self._new_slot(key, param, node)
        by_id[id(node)] = slot
        return slot

    def _new_slot(self, key, param, node):
        slot = len(self.consts)
        op = key[0]
        if op == "const":
            self.consts.append(node.value)
            return slot
        args = () if op == "var" else \
            tuple(key[1:2]) if op == "ipow" else tuple(key[1:])
        folded = None
        if op != "var" and all(self.consts[a] is not None for a in args):
            values = [self.consts[a] for a in args]
            with np.errstate(all="ignore"):
                value, _, fails = self._apply(op, values, [None] * len(args),
                                              param, False)
            if math.isfinite(value) and not any(f for f, _ in fails):
                folded = float(value)
        self.consts.append(folded)
        if folded is None:
            self.code.append((slot, op, args,
                              key[1] if op == "var" else param))
        return slot

    @staticmethod
    def _apply(op, values, grads, param, want):
        kernel = _KERNELS[op]
        pairs = [x for pair in zip(values, grads) for x in pair]
        if op == "ipow":
            return kernel(want, *pairs, param)
        return kernel(want, *pairs)

    def _run(self, points, want):
        points = np.asarray(points, dtype=float)
        count = points.shape[0]
        vals = list(self.consts)
        ders = [None] * len(vals)
        failed = np.full(count, -1)
        messages = []

        def record(mask, message):
            mask = np.asarray(mask)
            mask = np.full(count, bool(mask)) if mask.ndim == 0 else mask[:, 0]
            if mask.any():
                mask &= failed < 0
                failed[mask] = len(messages)
                messages.append(message)

        with np.errstate(all="ignore"):
            for slot, op, args, param in self.code:
                if op == "var":
                    vals[slot] = points[:, param:param + 1]
                    ders[slot] = self._units[param]
                    continue
                value, der, fails = self._apply(
                    op, [vals[a] for a in args], [ders[a] for a in args],
                    param, want)
                for mask, message in fails:
                    record(mask, message)
                if np.ndim(value) < 2:    # every argument was constant
                    value = np.full((count, 1), value)
                vals[slot] = value
                ders[slot] = der
            out = np.empty((count, len(self.outputs)))
            out[:, self._fixed_cols] = self._fixed_values
            out[:, self._live_cols] = np.concatenate(
                [vals[slot] for slot in self._live_slots] or
                [np.empty((count, 0))], axis=1)
            grads = None
            if want:
                grads = np.zeros((count, len(self.outputs), self.m))
                for col, slot in zip(self._live_cols, self._live_slots):
                    if ders[slot] is not None:
                        grads[:, col] = ders[slot]
            bad = ~np.isfinite(out).all(axis=1)
            if want:
                bad |= ~np.isfinite(grads).all(axis=(1, 2))
            record(bad[:, None], "evaluation produced a non-finite value")
        if messages:
            row = int(np.flatnonzero(failed >= 0)[0])
            raise EvalDomainError(messages[failed[row]], point=points[row])
        return out, grads

    def values(self, points):
        """Values of every expression: shape (P, number of expressions)."""
        return self._run(points, False)[0]

    def values_and_grads(self, points):
        """Values (P, K) and exact gradients (P, K, m)."""
        return self._run(points, True)


# --- parser ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        mo = _TOKEN_RE.match(text, pos)
        if mo is None or mo.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExprSyntaxError(
                f"unexpected character {stripped[0]!r}",
                len(text) - len(stripped))
        kind = mo.lastgroup
        tokens.append((kind, mo.group(kind), mo.start(kind)))
        pos = mo.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, m):
        self.text = text
        self.m = m
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ExprSyntaxError(f"expected {op!r}", offset)
        self.advance()

    def parse(self):
        e = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {value!r}", offset)
        return e

    def expr(self):
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                node = Add(node, rhs) if value == "+" else Sub(node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.factor()
                node = Mul(node, rhs) if value == "*" else Div(node, rhs)
            else:
                return node

    def factor(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            # right-associative; exponent may carry a unary minus
            return Pow(base, self.factor())
        return base

    def atom(self):
        kind, value, offset = self.advance()
        if kind == "num":
            return Const(float(value))
        if kind == "ident":
            if value in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(value, arg)
            mo = re.fullmatch(r"u([1-9]\d*)", value)
            if mo:
                index = int(mo.group(1))
                if index > self.m:
                    raise DimensionExceeded(value, self.m, offset)
                return Var(index - 1)
            raise UnknownIdentifier(value, offset)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected {value!r}" if value else "unexpected end of input",
                              offset)


def parse(text, m):
    """Parse an expression over variables u1..um."""
    return _Parser(text, m).parse()


def _single(expr, point, want):
    point = np.asarray(point, dtype=float)
    return Tape([expr], len(point))._run(point[None], want)


def evaluate(expr, point):
    """Value at a point (length-m sequence); raises EvalDomainError, naming
    the point, rather than returning NaN/Inf."""
    return float(_single(expr, point, False)[0][0, 0])


def grad(expr, point):
    """Exact gradient at a point: returns an m-vector."""
    return _single(expr, point, True)[1][0, 0].copy()


def value_and_grad(expr, point):
    values, grads = _single(expr, point, True)
    return float(values[0, 0]), grads[0, 0].copy()


def to_string(expr):
    return expr.to_string()
