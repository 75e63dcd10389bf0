"""Core domain types: transfers, log elements, sub-path specs, engine config.

The packed ("memory image") log format stores one little-endian word per
element, so the three word classes must occupy disjoint numeric ranges:

* symbol ids live in 1..255,
* code addresses start at ``min_code_addr`` (which must be above 255),
* repeat counters carry the top bit of the word as a tag, reserving the
  upper half of the address space.

Every address accepted by the compressor therefore lies in the half-open
interval ``[min_code_addr, 1 << (addr_width - 1))``.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import (
    AddressOutOfRange,
    CapacityExceeded,
    DuplicateId,
    LenOverflow,
    MalformedLog,
    ModeMismatch,
    TooManySpecs,
)

MAX_SYMBOL_ID = 255
MIN_REPEAT_COUNT = 2
MAX_REPEAT_COUNT = 32767
MAX_SPEC_LEN = 255


class Mode(str, Enum):
    """What the matcher compares: full (src, dest) pairs or destinations only."""

    PAIR = "pair"
    DEST = "dest"


class LogFormat(str, Enum):
    """Serialized log layouts: packed words, or tag-byte-prefixed elements."""

    MEMORY_IMAGE = "image"
    PORTABLE_TAGGED = "tagged"


class Transfer(NamedTuple):
    """One control-flow transfer; ``src`` may be None in dest-only data."""

    src: int | None
    dest: int


class RawPair(NamedTuple):
    src: int
    dest: int


class RawDest(NamedTuple):
    dest: int


@dataclass(frozen=True, slots=True)
class Symbol:
    """One-word stand-in for a full occurrence of an installed sub-path."""

    id: int


@dataclass(frozen=True, slots=True)
class RepeatCount:
    """Consecutive-occurrence counter; valid only directly after a Symbol."""

    count: int


LogElement = Union[RawPair, RawDest, Symbol, RepeatCount]


@dataclass(frozen=True)
class EngineConfig:
    mode: Mode = Mode.PAIR
    addr_width: int = 16
    min_code_addr: int = 0x0400
    max_sub_paths: int = 8
    slice_size_bytes: int = 256
    retry_on_mismatch: bool = False

    def __post_init__(self) -> None:
        if self.addr_width not in (16, 32):
            raise ValueError(f"addr_width must be 16 or 32, got {self.addr_width}")
        if not isinstance(self.mode, Mode):
            object.__setattr__(self, "mode", Mode(self.mode))
        if not 1 <= self.max_sub_paths <= 8:
            raise ValueError("max_sub_paths must be in 1..8")
        if self.slice_size_bytes <= 0:
            raise ValueError("slice_size_bytes must be positive")
        if not MAX_SYMBOL_ID < self.min_code_addr < self.counter_tag:
            raise ValueError(
                "min_code_addr must be above the symbol id range and below "
                "the counter tag bit"
            )

    @property
    def word_bytes(self) -> int:
        return self.addr_width // 8

    @property
    def counter_tag(self) -> int:
        """Word bit that marks a repeat counter; also the address upper bound."""
        return 1 << (self.addr_width - 1)

    @property
    def raw_element_bytes(self) -> int:
        """Encoded size of one raw trace element under this config."""
        n = 2 if self.mode is Mode.PAIR else 1
        return n * self.word_bytes


def check_address(value: int, config: EngineConfig) -> int:
    if not config.min_code_addr <= value < config.counter_tag:
        raise AddressOutOfRange(
            f"address {value:#x} outside [{config.min_code_addr:#x}, "
            f"{config.counter_tag:#x})"
        )
    return value


class Log:
    """An ordered element sequence plus its encoded size in bytes.

    A log the engine emits also carries ``words``, its memory image under
    ``config``, and decodes ``elements`` from them on first read; a log
    built from elements has ``words`` and ``config`` None.  Either way a
    log is immutable, and equality, hash and repr are those of
    ``(elements, size_bytes)``."""

    __slots__ = ("_elements", "size_bytes", "words", "config")

    def __init__(self, elements: tuple[LogElement, ...], size_bytes: int):
        _set_elements(self, elements)
        _set_size_bytes(self, size_bytes)
        _set_words(self, None)
        _set_config(self, None)

    @classmethod
    def from_words(cls, words: tuple[int, ...], config: EngineConfig) -> Log:
        """The log whose memory image under ``config`` is ``words``, which
        must be well formed: its elements are decoded on first read."""
        log = cls.__new__(cls)
        _set_elements(log, None)
        _set_size_bytes(log, len(words) * config.word_bytes)
        _set_words(log, words)
        _set_config(log, config)
        return log

    @property
    def elements(self) -> tuple[LogElement, ...]:
        elements = self._elements
        if elements is None:
            elements = decode_image(self.words, self.config)
            _set_elements(self, elements)
        return elements

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.size_bytes == other.size_bytes and self.elements == other.elements

    def __hash__(self) -> int:
        return hash((self.elements, self.size_bytes))

    def __repr__(self) -> str:
        return f"Log(elements={self.elements!r}, size_bytes={self.size_bytes!r})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__: attribute assignment raises
        return (Log, (self.elements, self.size_bytes))

    def is_raw(self) -> bool:
        return all(isinstance(e, (RawPair, RawDest)) for e in self.elements)


# the slot descriptors' setters, which bypass Log's raising __setattr__
_set_elements, _set_size_bytes, _set_words, _set_config = (
    getattr(Log, name).__set__ for name in Log.__slots__
)


def _count(elements: list, count: int) -> RepeatCount:
    """The decoded counter after ``elements``: it must follow a symbol."""
    if not elements or type(elements[-1]) is not Symbol:
        raise MalformedLog("repeat count not preceded by a symbol")
    if not MIN_REPEAT_COUNT <= count <= MAX_REPEAT_COUNT:
        raise MalformedLog(f"repeat count {count} out of range")
    return RepeatCount(count)


def decode_image(words: Iterable[int], config: EngineConfig) -> tuple[LogElement, ...]:
    """The elements of memory-image ``words`` under ``config``; raises
    ``MalformedLog`` on any word sequence the engine cannot emit."""
    words = iter(words)
    tag = config.counter_tag
    lo = config.min_code_addr
    pair = config.mode is Mode.PAIR
    elements: list = []
    for v in words:
        if v & tag:
            elements.append(_count(elements, v & (tag - 1)))
        elif v <= MAX_SYMBOL_ID:
            if v == 0:
                raise MalformedLog("zero word is neither symbol nor address")
            elements.append(Symbol(v))
        elif v < lo:
            raise MalformedLog(f"word {v:#x} falls in the reserved gap")
        elif pair:
            d = next(words, None)
            if d is None:
                raise MalformedLog("truncated pair")
            if not lo <= d < tag:
                raise MalformedLog("pair destination is not an address word")
            elements.append(RawPair(v, d))
        else:
            elements.append(RawDest(v))
    return tuple(elements)


def make_log(elements: Iterable[LogElement], config: EngineConfig) -> Log:
    """A log sized by counting its words (two per ``RawPair``, one per
    other element).  The library's producers size their logs as they
    build them; this serves hand-built element lists."""
    elems = tuple(elements)
    words = sum(2 if isinstance(e, RawPair) else 1 for e in elems)
    return Log(elems, words * config.word_bytes)


@dataclass(frozen=True)
class SubPathSpec:
    """A verifier-defined expected sub-path: an id plus 1..255 entries.

    Entries are Transfer tuples in pair mode or bare destination addresses
    in dest mode; the two kinds never mix within one spec.
    """

    id: int
    entries: tuple

    def __post_init__(self) -> None:
        if not 1 <= self.id <= MAX_SYMBOL_ID:
            raise ValueError(f"spec id must be in 1..{MAX_SYMBOL_ID}, got {self.id}")
        entries = tuple(self.entries)
        if not entries:
            raise ValueError("spec entries must be non-empty")
        if len(entries) > MAX_SPEC_LEN:
            raise LenOverflow(f"spec has {len(entries)} entries, max {MAX_SPEC_LEN}")
        if all(isinstance(e, int) for e in entries):
            pass  # dest mode
        else:
            norm = []
            for e in entries:
                try:
                    src, dest = e
                except (TypeError, ValueError):
                    raise ValueError(f"bad spec entry {e!r}") from None
                if src is None:
                    raise ValueError("pair-mode spec entries need a source address")
                norm.append(Transfer(int(src), int(dest)))
            entries = tuple(norm)
        object.__setattr__(self, "entries", entries)

    @property
    def length(self) -> int:
        return len(self.entries)

    @property
    def mode(self) -> Mode:
        return Mode.DEST if isinstance(self.entries[0], int) else Mode.PAIR


@dataclass(frozen=True)
class BlockMemImage:
    """Serialized block memory holding the installed spec set."""

    data: bytes
    capacity_bytes: int

    def __post_init__(self) -> None:
        if len(self.data) > self.capacity_bytes:
            raise CapacityExceeded(
                f"{len(self.data)} bytes exceed capacity {self.capacity_bytes}"
            )


def validate_spec_set(specs: Sequence[SubPathSpec], config: EngineConfig) -> None:
    """Shared install-time checks: count, mode agreement, unique ids, addresses."""
    if len(specs) > config.max_sub_paths:
        raise TooManySpecs(f"{len(specs)} specs, engine supports {config.max_sub_paths}")
    seen: set[int] = set()
    for spec in specs:
        if spec.id in seen:
            raise DuplicateId(f"spec id {spec.id} appears twice")
        seen.add(spec.id)
        if spec.mode is not config.mode:
            raise ModeMismatch(
                f"spec {spec.id} is {spec.mode.value}-mode, engine is {config.mode.value}"
            )
        for e in spec.entries:
            if isinstance(e, int):
                check_address(e, config)
            else:
                check_address(e.src, config)
                check_address(e.dest, config)
