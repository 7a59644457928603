"""Exception taxonomy for the deltaspec pipeline.

Every error raised on a contract boundary derives from DeltaSpecError so the
CLI can catch one type, print the message, and exit 1. Usage errors (bad
flags) are argparse's business and exit 2.
"""

from __future__ import annotations


class DeltaSpecError(Exception):
    """Base class for all pipeline errors."""


# --- document ingestion ---------------------------------------------------

class MalformedDocument(DeltaSpecError):
    """Raw RFC text has no recognizable structure after cleaning."""


# --- code ingestion -------------------------------------------------------

class IoError(DeltaSpecError):
    """Source tree root missing or unreadable."""


class EmptyIndex(DeltaSpecError):
    """Statistics requested over an index with zero functions."""


# --- chunking / mapping ---------------------------------------------------

class InvalidConfig(DeltaSpecError):
    """Chunker parameters out of range."""


class SpanMismatch(DeltaSpecError):
    """A function span is not covered by the chunk stream."""


class UnknownFunction(DeltaSpecError):
    """Reconstruction asked for a function id absent from the map."""


# --- knowledge graph ------------------------------------------------------

class SchemaViolation(DeltaSpecError):
    """Entity extraction response failed its contract after retries."""


class EmptyGraph(DeltaSpecError):
    """Retrieval attempted against a graph with no entities."""


# --- spec evolution -------------------------------------------------------

class CycleDetected(DeltaSpecError):
    """Update/obsoletes metadata does not form a DAG."""


class MissingDelta(DeltaSpecError):
    """Increment enumeration found an edge with no computed delta."""


# --- triplet store --------------------------------------------------------

class InvalidRecord(DeltaSpecError):
    """Triplet synthesis input is empty or inconsistent."""


class EmptyStore(DeltaSpecError):
    """Exemplar retrieval attempted against an empty store."""


# --- verification ---------------------------------------------------------

class EmptyResponse(DeltaSpecError):
    """Judgment response carried no usable verdict."""


class ShapeMismatch(DeltaSpecError):
    """Ground truth is not {version: {RFC number: label}}, or it and the
    verdict matrix disagree on their key sets."""


class VerificationAborted(DeltaSpecError):
    """Gateway failure mid-task; carries the trials completed so far."""

    def __init__(self, message: str, partial_trials: list | None = None):
        super().__init__(message)
        self.partial_trials = list(partial_trials or [])


# --- gateway --------------------------------------------------------------

class GatewayError(DeltaSpecError):
    """Base class for provider-side failures."""


class ProviderError(GatewayError):
    """Provider unreachable or persistently failing.

    ``retryable`` is False for a failure no retry can fix (a 4xx other than
    429, a malformed reply); ``retry_after`` is the wait in seconds the
    provider asked for.
    """

    def __init__(self, message: str, *, retryable: bool = True,
                 retry_after: float | None = None):
        super().__init__(message)
        self.retryable = retryable
        self.retry_after = retry_after


class ContractViolation(GatewayError):
    """Response failed the declared contract after all retries."""


class CacheWriteError(GatewayError):
    """A fetched reply could not be written to the response cache."""


class NotSent(GatewayError):
    """Holds the slot of a batch request that was never sent, because an
    earlier request of the same batch had already failed."""


# --- reporting ------------------------------------------------------------

class EmptyEval(DeltaSpecError):
    """Metrics requested over an empty confusion."""


class InvalidInputs(DeltaSpecError):
    """Cost-model or metrics inputs violate their preconditions."""


class SerializationError(DeltaSpecError):
    """Report failed schema validation before write."""


class MissingArtifact(DeltaSpecError):
    """A stage input that is missing, undecodable or of the wrong shape."""
