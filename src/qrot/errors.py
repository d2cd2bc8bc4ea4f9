"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible or unexpected dimensions."""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class NumericError(RuntimeError):
    """A numerical result is undefined: a singular readout calibration or
    polar factor, statevector norm drift, a state estimate with no direction,
    or a mitigation that leaves an all-zero probability vector."""
