"""Exception hierarchy shared by all matchflip modules."""

from __future__ import annotations


class MatchFlipError(Exception):
    """Base class for all library errors."""


class SelfLoopError(MatchFlipError):
    pass


class DuplicateEdgeError(MatchFlipError):
    pass


class VertexOutOfRangeError(MatchFlipError):
    pass


class EdgeNotInGraphError(MatchFlipError):
    pass


class InvalidFlipError(MatchFlipError):
    pass


class InvalidSlideError(MatchFlipError):
    pass


class NotAPermutationError(MatchFlipError):
    pass


class NoPerfectMatchingError(MatchFlipError):
    pass


class NotPerfectError(MatchFlipError):
    pass


class OrderInvalidError(MatchFlipError):
    pass


class NotTwoConnectedError(MatchFlipError):
    pass


class NotOuterplanarError(MatchFlipError):
    pass


class NotACographError(MatchFlipError):
    """Raised with a four-vertex induced-path witness."""

    def __init__(self, witness: tuple[int, int, int, int]):
        super().__init__(f"not a cograph, induced P4 witness: {witness}")
        self.witness = witness


class MalformedMachineError(MatchFlipError):
    pass


class InvalidConfigurationError(MatchFlipError):
    pass


class NotBipartiteError(MatchFlipError):
    pass


class UnbalancedSidesError(MatchFlipError):
    pass


class KOddError(MatchFlipError):
    pass


class KTooSmallError(MatchFlipError):
    pass


class SizeMismatchError(MatchFlipError):
    pass


class BudgetExceededError(MatchFlipError):
    pass


class MalformedInputError(MatchFlipError):
    """Unparseable or inconsistent instance/sequence/machine file."""
