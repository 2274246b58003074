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


class BasisMismatch(ConfgameError):
    """A sieve basis does not fit its use: it is built on another grid of
    states and private values than the data's, or a caller that reads cell
    tables (``SmdFit.coef_table``, ``truth_covered``) gets a basis other than
    the saturated one."""


class EmptyClass(ConfgameError):
    """The policy class to search is empty."""
