"""Core domain types: transfers, log elements, sub-path specs, engine config.

The packed ("memory image") log format stores one little-endian word per
element, so the three word classes must occupy disjoint numeric ranges:

* symbol ids live in 1..255,
* code addresses start at ``MIN_CODE_ADDR`` (0x0400, above 255),
* repeat counters carry the top bit of the word as a tag, reserving the
  upper half of the address space.

Every address accepted by the compressor therefore lies in the half-open
interval ``[MIN_CODE_ADDR, 1 << (addr_width - 1))``.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import (
    AddressOutOfRange,
    CapacityExceeded,
    ConfigMismatch,
    DuplicateId,
    EncodingOverlap,
    LenOverflow,
    MalformedLog,
    ModeMismatch,
    TooManySpecs,
)

MAX_SYMBOL_ID = 255
MIN_CODE_ADDR = 0x0400
MIN_REPEAT_COUNT = 2
MAX_REPEAT_COUNT = 32767
MAX_SPEC_LEN = 255


class Mode(str, Enum):
    """What the matcher compares: full (src, dest) pairs or destinations only."""

    PAIR = "pair"
    DEST = "dest"


class LogFormat(str, Enum):
    """The serialized log layout: the packed memory-image words."""

    MEMORY_IMAGE = "image"


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
        if not 0 < self.slice_size_bytes < 1 << 32:
            # a request carries the slice size in a 4-byte field
            raise ValueError("slice_size_bytes must be in 1..2**32-1")

    @property
    def word_bytes(self) -> int:
        return self.addr_width // 8

    @property
    def min_code_addr(self) -> int:
        return MIN_CODE_ADDR

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
    """A log: its memory-image ``words`` under ``config``, which must be well
    formed, sized at ``len(words) * config.word_bytes``; its ``elements``
    are decoded from the words on first read.  A log is immutable.  Its
    layout is its config's mode and address width: it is read only under a
    config of that layout (``image``), and equality, hash and pickle key on
    ``(words, config.mode, config.addr_width)``.  Slice size and retry are
    no part of the layout.  A raw log caches its selection keys in
    ``_keys`` on first use (``selection._raw_keys``): one int code
    ``src << 32 | dest`` per transfer in pair mode, the words in dest mode.
    A copy or a pickle does not carry them."""

    __slots__ = ("_elements", "size_bytes", "words", "config", "_keys")

    def __init__(self, words: tuple[int, ...], config: EngineConfig):
        _set_words(self, words)
        _set_config(self, config)
        _set_size_bytes(self, len(words) * config.word_bytes)
        _set_elements(self, None)
        _set_keys(self, None)

    @property
    def elements(self) -> tuple[LogElement, ...]:
        elements = self._elements
        if elements is None:
            elements = decode_image(self.words, self.config)
            _set_elements(self, elements)
        return elements

    def _layout(self) -> tuple:
        return self.words, self.config.mode, self.config.addr_width

    def image(self, config: EngineConfig) -> Sequence[int]:
        """The log's memory-image words, read under ``config``, which must
        have the log's layout: another mode raises ``ModeMismatch``, another
        address width ``ConfigMismatch``."""
        own = self.config
        if config.mode is not own.mode:
            raise ModeMismatch(f"{own.mode.value} elements in {config.mode.value}-mode input")
        if config.addr_width != own.addr_width:
            raise ConfigMismatch(
                f"{own.addr_width}-bit log read under a {config.addr_width}-bit config")
        return self.words

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._layout() == other._layout()

    def __hash__(self) -> int:
        return hash(self._layout())

    def __repr__(self) -> str:
        return f"Log(elements={self.elements!r}, size_bytes={self.size_bytes!r})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__: attribute assignment raises
        return (Log, (self.words, self.config))


# the slot descriptors' setters, which bypass Log's raising __setattr__
_set_elements, _set_size_bytes, _set_words, _set_config, _set_keys = (
    getattr(Log, name).__set__ for name in Log.__slots__
)


def _count(prev: LogElement | None, count: int) -> RepeatCount:
    """The counter after element ``prev`` (None at the start of a log): it
    must follow a symbol."""
    if type(prev) is not Symbol:
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
            elements.append(_count(elements[-1] if elements else None, v & (tag - 1)))
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


def encode_elements(elements: Iterable[LogElement], config: EngineConfig) -> list[int]:
    """The memory-image words of ``elements`` under ``config``
    (``decode_image``'s inverse): an address misses the symbol and counter
    words and a counter carries ``counter_tag``.  Raises on any sequence
    the engine cannot emit (a misplaced counter, the other mode's element,
    a pair without source, an address that is not an int)."""
    pair = config.mode is Mode.PAIR
    raw, other = (RawPair, RawDest) if pair else (RawDest, RawPair)
    width = config.addr_width
    lo, tag = config.min_code_addr, config.counter_tag
    words: list[int] = []
    prev = None
    for el in elements:
        kind = type(el)
        if kind is raw:
            for a in el:
                if not (isinstance(a, int) and lo <= a < tag):
                    if pair and el.src is None:
                        raise ModeMismatch("pair-mode log element without source")
                    if not isinstance(a, int):
                        raise MalformedLog(f"address {a!r} is not an int")
                    if 0 <= a < 1 << width:
                        raise EncodingOverlap(f"address {a:#x} collides with symbol/counter words")
                    raise AddressOutOfRange(f"address {a:#x} does not fit {width} bits")
            words += el
        elif kind is Symbol:
            if not 1 <= el.id <= MAX_SYMBOL_ID:
                raise MalformedLog(f"symbol id {el.id} out of range")
            words.append(el.id)
        elif kind is RepeatCount:
            _count(prev, el.count)
            words.append(tag | el.count)
        elif kind is other:
            raise ModeMismatch(f"{other.__name__} element in {config.mode.value}-mode log")
        else:
            raise MalformedLog(f"unknown log element {el!r}")
        prev = el
    return words


def make_log(elements: Iterable[LogElement], config: EngineConfig) -> Log:
    """The log of hand-built ``elements`` under ``config``: their memory
    image, so a sequence the engine cannot emit raises here."""
    return Log(tuple(encode_elements(elements, config)), config)


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
