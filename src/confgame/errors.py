"""Exception types shared across the package."""


class ConfgameError(Exception):
    """Base class for all package errors."""


class MalformedSpec(ConfgameError, ValueError):
    """A game spec contains invalid probabilities or inconsistent tables, or a
    policy pair does not fit the game's grid."""


class SchemaMismatch(ConfgameError):
    """A dataset file disagrees with its own header."""


class MalformedDataset(ConfgameError):
    """An offline dataset holds an out-of-range index, a non-binary action or
    a non-finite reward."""


class CorruptRow(ConfgameError):
    """A dataset file contains an unparseable row."""

    def __init__(self, line_number, message):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class SpaceTooLarge(ConfgameError):
    """An exact enumeration would exceed the configured cell budget."""


class SingularSystem(ConfgameError):
    """The identification system is singular (e.g. the instrument is irrelevant)."""


class RankDeficientBasis(ConfgameError):
    """Basis functions are linearly dependent on the declared support."""


class InsufficientData(ConfgameError):
    """Fewer rows than basis functions."""


class DegenerateIV(ConfgameError):
    """The instrument has (near-)zero variance in some conditioning cell."""


class IllPosedFit(ConfgameError):
    """The minimum-distance problem has no well-defined minimizer."""


class UnboundedBelow(ConfgameError):
    """A linear objective is unbounded over a degenerate confidence region."""

    def __init__(self, message, direction=None):
        super().__init__(message)
        self.direction = direction


class BasisMismatch(ConfgameError):
    """A coefficient vector does not match the region's basis."""


class EmptyClass(ConfgameError):
    """The policy class to search is empty."""
