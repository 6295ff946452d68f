"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(EngineError):
    """Matrix or vector dimensions do not match the operation."""


class PresetMismatchError(EngineError):
    """Operands belong to different ring presets."""


class BasisMismatchError(EngineError):
    """Operands belong to different Picard bases."""


class RingDomainError(EngineError):
    """An element lies outside the domain an operation is defined on."""


class PreconditionError(EngineError):
    """A documented precondition of an operation is violated."""


class InternalCheckError(EngineError):
    """A pipeline result disagrees with an independently recorded value."""


class UndefinedSlopeError(EngineError):
    """Slope request for a divisor class with vanishing delta_0 part."""


class ExprSyntaxError(EngineError):
    """Expression parse failure, annotated with a byte offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at byte offset {position})")
        self.message = message
        self.position = position
