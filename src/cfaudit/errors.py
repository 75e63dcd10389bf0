"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class AuditError(Exception):
    """Base class for every error raised by this package."""


class AddressOutOfRange(AuditError):
    """An address violates the configured width or reserved word ranges."""


class EncodingOverlap(AuditError):
    """A value cannot be packed without colliding with symbol or counter words."""


class MalformedLog(AuditError):
    """Serialized log bytes or log element sequence violate the format rules."""


class MalformedBlockMem(AuditError):
    """Serialized block memory is truncated or structurally invalid."""


class CapacityExceeded(AuditError):
    """Serialized data does not fit the stated byte budget."""


class DuplicateId(AuditError):
    """Two installed sub-path specs share an id."""


class LenOverflow(AuditError):
    """A sub-path spec has more entries than the 8-bit length field allows."""


class TooManySpecs(AuditError):
    """More specs than the engine supports detectors for."""


class ModeMismatch(AuditError):
    """Pair-mode and dest-mode data mixed within one operation."""


class UnknownSymbol(AuditError):
    """A log symbol references a spec id that is not installed."""


class SliceTooSmall(AuditError):
    """Slice budget cannot hold even a single raw element."""


class MalformedCFG(AuditError):
    """CFG document is structurally invalid (dangling edge, missing entry, ...)."""


class PathExplosion(AuditError):
    """A segment contains more source-to-sink paths than the configured cap."""


class ParseError(AuditError):
    """A text document failed to parse; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class AuthError(AuditError):
    """Message authentication failed; carries a short reason tag."""

    def __init__(self, reason: str, message: str | None = None):
        super().__init__(message or f"authentication failed: {reason}")
        self.reason = reason


class ConfigMismatch(AuditError):
    """Two configurations disagree: a request's config echo and the local
    engine's, or a log's address width and the one it is read under."""


class MalformedFrame(AuditError):
    """A protocol frame could not be decoded."""


class ProtocolError(AuditError):
    """Protocol state machine used out of order (e.g. no open session)."""


class FaultOutOfRange(AuditError):
    """A channel fault names a frame or a bit that was not sent."""
