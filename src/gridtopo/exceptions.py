"""Exception hierarchy for gridtopo, and the JSON file reader and writer its modules share.

Everything raised on purpose derives from :class:`GridTopoError`, so callers
(and the CLI) can catch one type and still let genuine bugs escape.
"""
import json


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


def read_json_object(path, error: type[GridTopoError]) -> dict:
    """The JSON object in file ``path``.  A file that is not UTF-8 JSON text,
    or holds a JSON value other than an object, raises ``error`` with a
    message that starts with the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None
    if not isinstance(doc, dict):
        raise error(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def write_json(doc, path, sort_keys: bool = False) -> None:
    """``doc`` as JSON indented by 2, and a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")
