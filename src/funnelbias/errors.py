"""Exception hierarchy for funnelbias.

Two broad groups: data problems (bad tables, bad files) and statistical
preconditions of the asymmetry tests. The CLI maps data/format errors
to exit code 2 and statistical preconditions to exit code 3. A study
whose measure is undefined raises nothing: ``measure_studies`` lists it
as excluded, with the reason.
"""


class FunnelBiasError(Exception):
    """Base class for all errors raised by this package."""


class DataError(FunnelBiasError):
    """A study table or dataset violates its invariants."""


class NegativeCell(DataError):
    """A 2x2 cell count is negative."""


class EmptyGroup(DataError):
    """A study has no diseased (n1 = 0) or no healthy (n2 = 0) subjects."""


class DatasetFormatError(DataError):
    """A dataset file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message)
        self.line_no = line_no


class GridFormatError(DataError):
    """A simulation grid definition file is malformed."""


class EmptyInput(DataError):
    """An aggregation was asked to summarize nothing."""


class StatisticalError(FunnelBiasError):
    """An asymmetry test's statistical preconditions are not met."""


class TooFewStudies(StatisticalError):
    """Fewer studies than the test or pooling step requires."""


class SingularDesign(StatisticalError):
    """The regression predictor is constant; the design matrix is singular."""


class AllTied(StatisticalError):
    """Rank correlation is undefined because one variable is constant."""


class NonPSDCovariance(FunnelBiasError):
    """A between-study covariance matrix is not symmetric positive semi-definite."""
