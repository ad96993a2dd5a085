"""Exception hierarchy for gridtopo.

Everything raised on purpose derives from :class:`GridTopoError`, so callers
(and the CLI) can catch one type and still let genuine bugs escape.
"""


class GridTopoError(Exception):
    """Base class for all errors raised by this package."""


class GridFileError(GridTopoError):
    """A grid description file is malformed (reported with the offending entry)."""


class GridStructureError(GridTopoError):
    """The grid violates a structural requirement (connectivity, duplicates, ...)."""


class InvalidLineError(GridTopoError):
    """A line has inadmissible impedance parameters."""


class UnknownBusError(GridTopoError):
    """A bus id was requested that the grid does not contain."""


class UnknownGridError(GridTopoError):
    """A built-in grid name was requested that does not exist."""


class InvalidInjectionStatsError(GridTopoError):
    """Injection statistics are malformed or not positive definite per bus."""


class ModelMismatchError(GridTopoError):
    """An operation received data from the wrong power-flow model kind."""


class RankDeficiencyError(GridTopoError):
    """A matrix that must be positive definite is (numerically) rank deficient."""


class ReconstructionError(GridTopoError):
    """Topology reconstruction cannot proceed on the given graphical model."""


class AmbiguousLeafError(ReconstructionError):
    """A leaf vertex has no unique attachment point; message names the vertex."""


class SampleFormatError(GridTopoError):
    """A sample file or sample set is inconsistent with its declared layout."""


class ConfigError(GridTopoError):
    """An experiment or solver configuration is invalid."""
