"""Exception types shared across the package."""


class QCLabError(Exception):
    """Base class for all errors raised by qclab."""


# --- expression language ---

class ExprError(QCLabError):
    pass


class ExprSyntaxError(ExprError):
    """Malformed expression text; carries the byte offset of the problem."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifier(ExprError):
    def __init__(self, name, offset):
        super().__init__(f"unknown identifier {name!r} (at offset {offset})")
        self.name = name
        self.offset = offset


class DimensionExceeded(ExprError):
    def __init__(self, name, m, offset):
        super().__init__(
            f"variable {name!r} exceeds chart dimension m={m} (at offset {offset})")
        self.name = name
        self.offset = offset


def _floats(point):
    return None if point is None else [float(c) for c in point]


def _at_point(message, point):
    return message if point is None else f"{message} at point {_floats(point)}"


class EvalDomainError(QCLabError):
    """Evaluation left the real domain (log/sqrt of a negative, division by
    zero...); carries the point when known."""

    def __init__(self, message, point=None):
        super().__init__(_at_point(message, point))
        self.point = _floats(point)


# --- chart / structure recovery ---

class ChartError(QCLabError):
    """Geometric failure at a point; carries the point and a residual when known."""

    def __init__(self, message, point=None, residual=None):
        detail = _at_point(message, point)
        if residual is not None:
            detail += f" (residual {residual:.3e})"
        super().__init__(detail)
        self.point = _floats(point)
        self.residual = residual


class DegenerateCoframe(ChartError):
    pass


class DegenerateLevi(ChartError):
    pass


class NotQuaternionic(ChartError):
    pass


class NotPositive(ChartError):
    pass


class BiquardConditionFail(ChartError):
    pass


class IllConditioned(ChartError):
    pass


# --- connection assembly ---

class QPreservationFail(ChartError):
    pass


class TorsionStructureFail(ChartError):
    pass


# --- numerics diagnostics ---

class StepTooSmall(QCLabError):
    """Finite-difference step is dominated by rounding noise."""


# --- catalog / configuration ---

class ConfigError(QCLabError):
    def __init__(self, message, location=None):
        if location:
            message = f"{location}: {message}"
        super().__init__(message)
        self.location = location


class NonPositiveFactor(QCLabError):
    pass
