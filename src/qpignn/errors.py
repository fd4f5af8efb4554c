"""Exception types shared across the package, and the input rules that
raise them: ``check_integer`` for seeds, indices and counts, and
``check_alpha`` for the miscoverage level."""

import numbers


class QpignnError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(QpignnError, ValueError):
    """A caller-supplied argument is outside its documented domain."""


class ShapeError(QpignnError, ValueError):
    """Tensor or array operands have incompatible shapes."""


class ContractError(QpignnError, RuntimeError):
    """An internal invariant was broken; indicates misuse or a bug."""


class IngestionError(QpignnError, ValueError):
    """A CSV input could not be parsed or is internally inconsistent."""


class TrainingError(QpignnError, RuntimeError):
    """Training aborted, e.g. because the loss became non-finite."""

    def __init__(self, message: str, epoch: int | None = None,
                 diagnostics: dict | None = None):
        super().__init__(message)
        self.epoch = epoch
        self.diagnostics = dict(diagnostics or {})


def check_integer(name: str, value, least: int | None = None) -> None:
    """Refuse ``value`` unless it is an integer, and at least ``least``
    if one is given.  A bool is refused, though Python counts it as an
    integer: ``True`` is no seed or count a caller means."""
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and (least is None or value >= least)):
        return
    rule = "an integer" if least is None else f"an integer >= {least}"
    raise ParameterError(f"{name} must be {rule}, got {value!r}")


def check_alpha(alpha: float) -> None:
    """Refuse a miscoverage level outside (0, 1); the chained check also
    refuses NaN."""
    if not 0.0 < alpha < 1.0:
        raise ParameterError("alpha must lie in (0, 1)")
