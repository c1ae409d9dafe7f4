"""Exception types shared across the package.

Everything raised on bad input or bad state derives from CollabmapError,
so callers (and the CLI) can catch one base class.
"""

from __future__ import annotations


class CollabmapError(Exception):
    """Base class for all domain errors."""


# -- corpus loading ----------------------------------------------------------

class ParseError(CollabmapError):
    """A data file is malformed at a specific location."""

    def __init__(self, path: str, line: int, message: str):
        self.path = path
        self.line = line
        self.message = message
        super().__init__(f"{path}:{line}: {message}")


class DuplicateId(CollabmapError):
    """An identifier that must be unique appears more than once."""

    def __init__(self, kind: str, value: str):
        self.kind = kind
        self.value = value
        super().__init__(f"duplicate {kind}: {value!r}")


class DanglingUda(CollabmapError):
    """A disciplinary sector row does not map to a single, well-formed area."""

    def __init__(self, sds_id: str, message: str):
        self.sds_id = sds_id
        self.message = message
        super().__init__(f"sector {sds_id!r}: {message}")


class MissingFile(CollabmapError):
    """A required input file is absent from the data directory."""

    def __init__(self, path: str):
        self.path = path
        super().__init__(f"missing input file: {path}")


class DanglingReference(CollabmapError):
    """A record references an identifier that does not exist."""

    def __init__(self, entity: str, ref_id: str, context: str):
        self.entity = entity
        self.ref_id = ref_id
        self.context = context
        super().__init__(f"unknown {entity}: {ref_id!r} ({context})")


class EmptyCorpus(CollabmapError):
    """No publications remain after ingestion filtering."""


class InvariantViolation(CollabmapError):
    """A record breaks a rule of its own, or records break one together.

    It also carries a file row's message, which the reader reports as a
    ParseError at the row's line.
    """


# -- statistics ----------------------------------------------------------------

class StatsError(CollabmapError):
    """Base class for statistics kernel errors."""


class InsufficientData(StatsError):
    """Too few observations to run the requested test."""


class ZeroVariance(StatsError):
    """A test statistic is undefined because the variance term is zero."""


class NoConvergence(StatsError):
    """An iterative evaluation did not reach its tolerance."""


class InsufficientSectors(StatsError):
    """Fewer than two comparison units survive the exclusion thresholds."""


class UnknownIndicator(StatsError):
    """An indicator name is not valid for the requested grouping."""


# -- synthetic data harness -----------------------------------------------------

class InvalidConfig(CollabmapError):
    """Synthetic corpus configuration violates its constraints."""
