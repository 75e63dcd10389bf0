"""Byte-level codecs for logs and block memory, plus the text spec-file format.

Memory-image log layout (little-endian words, word = addr_width/8 bytes):

    raw pair      ->  src word, dest word
    raw dest      ->  dest word
    symbol        ->  id word (1..255)
    repeat count  ->  (counter_tag | count) word

Block memory packs each spec as a header word ``(id << 8) | len`` followed
by ``len`` (src, dest) word pairs in pair mode or ``len`` dest words in
dest mode; blocks are simply concatenated.  Every word is packed by
``_pack`` and read by ``_unpack``.
"""

from __future__ import annotations

import struct
from itertools import chain
from typing import Iterable, Sequence

from .engine import compress_trace
from .errors import (
    DuplicateId,
    LenOverflow,
    MalformedBlockMem,
    MalformedLog,
    ParseError,
    TooManySpecs,
)
from .files import address_record, header_value, records
from .model import (
    MAX_SYMBOL_ID,
    BlockMemImage,
    EngineConfig,
    Log,
    LogFormat,
    Mode,
    SubPathSpec,
    Transfer,
    validate_spec_set,
)

_WORD_CODE = {16: "H", 32: "I"}  # struct codes of the unsigned word types


def _pack(words: Sequence[int], config: EngineConfig) -> bytes:
    return struct.pack(f"<{len(words)}{_WORD_CODE[config.addr_width]}", *words)


def _unpack(data: bytes, config: EngineConfig, error: type[Exception]) -> tuple[int, ...]:
    n, rest = divmod(len(data), config.word_bytes)
    if rest:
        raise error("truncated word")
    return struct.unpack(f"<{n}{_WORD_CODE[config.addr_width]}", data)


def encode_raw(trace: Iterable[Transfer], config: EngineConfig) -> Log:
    """Canonical raw log for a transfer sequence: one element per transfer.
    This is the engine with no specs: it checks each distinct transfer's
    range and mode once and then writes the words in bulk.  A transfer that
    fails the check sends the whole input through the engine's
    transfer-by-transfer loop, which raises at that transfer."""
    return compress_trace(trace, (), config)


# ``fmt`` can only be ``MEMORY_IMAGE``; it stays so callers that name the layout still work
def serialize_log(log: Log, config: EngineConfig, fmt: LogFormat = LogFormat.MEMORY_IMAGE) -> bytes:
    return _pack(log.image(config), config)


def deserialize_log(data: bytes, config: EngineConfig, fmt: LogFormat = LogFormat.MEMORY_IMAGE) -> Log:
    """Decode a whole log; its size is the word bytes it was read from."""
    log = Log(_unpack(data, config, MalformedLog), config)
    log.elements  # raises on a malformed image
    return log


def blockmem_block_bytes(entry_count: int, config: EngineConfig) -> int:
    """Serialized size of one spec block: header word plus entry words."""
    per_entry = 2 if config.mode is Mode.PAIR else 1
    return (1 + per_entry * entry_count) * config.word_bytes


def serialize_blockmem(
    specs: Sequence[SubPathSpec],
    config: EngineConfig,
    capacity_bytes: int | None = None,
) -> BlockMemImage:
    """Block memory of ``specs``; ``BlockMemImage`` rejects an image past
    ``capacity_bytes``."""
    validate_spec_set(specs, config)
    pair = config.mode is Mode.PAIR
    words: list[int] = []
    for spec in specs:
        words.append((spec.id << 8) | spec.length)
        words += chain.from_iterable(spec.entries) if pair else spec.entries
    data = _pack(words, config)
    return BlockMemImage(data, len(data) if capacity_bytes is None else capacity_bytes)


def deserialize_blockmem(
    image: BlockMemImage | bytes, config: EngineConfig
) -> tuple[SubPathSpec, ...]:
    """The specs of a block-memory image under ``config``; more than
    ``config.max_sub_paths`` of them raise ``TooManySpecs``."""
    data = image.data if isinstance(image, BlockMemImage) else image
    words = _unpack(data, config, MalformedBlockMem)
    per_entry = 2 if config.mode is Mode.PAIR else 1
    specs: list[SubPathSpec] = []
    seen: set[int] = set()
    i = 0
    while i < len(words):
        header = words[i]
        spec_id = header >> 8
        length = header & 0xFF
        if not 1 <= spec_id <= MAX_SYMBOL_ID:
            raise MalformedBlockMem(f"bad block header {header:#x}")
        if length == 0:
            raise MalformedBlockMem("zero-length block")
        if spec_id in seen:
            raise DuplicateId(f"spec id {spec_id} appears twice")
        seen.add(spec_id)
        i += 1
        need = length * per_entry
        if i + need > len(words):
            raise MalformedBlockMem("truncated block")
        vals = words[i : i + need]
        i += need
        for v in vals:
            if not config.min_code_addr <= v < config.counter_tag:
                raise MalformedBlockMem(f"stored address {v:#x} out of range")
        if per_entry == 2:
            vals = tuple(map(Transfer, vals[::2], vals[1::2]))
        specs.append(SubPathSpec(spec_id, vals))
    if len(specs) > config.max_sub_paths:
        raise TooManySpecs(f"{len(specs)} specs, engine supports {config.max_sub_paths}")
    return tuple(specs)


# --- human-editable spec documents -----------------------------------------

def write_spec_document(specs: Sequence[SubPathSpec], mode: Mode) -> str:
    lines = [f"mode {mode.value}"]
    for spec in specs:
        lines.append(f"spec {spec.id}")
        for e in spec.entries:
            if isinstance(e, int):
                lines.append(f"{e:04x}")
            else:
                lines.append(f"{e.src:04x} {e.dest:04x}")
        lines.append("end")
    return "\n".join(lines) + "\n"


def parse_spec_document(text: str) -> tuple[Mode, tuple[SubPathSpec, ...]]:
    mode: Mode | None = None
    specs: list[SubPathSpec] = []
    current_id: int | None = None
    entries: list = []
    for lineno, tokens in records(text):
        if tokens[0] == "mode":
            mode = header_value(tokens, lineno, mode, Mode)
        elif tokens[0] == "spec":
            if mode is None:
                raise ParseError(lineno, "spec before mode line")
            if current_id is not None:
                raise ParseError(lineno, "nested spec block")
            try:
                current_id = int(tokens[1], 0)
            except (IndexError, ValueError):
                raise ParseError(lineno, f"bad spec header {' '.join(tokens)!r}") from None
        elif tokens[0] == "end":
            if current_id is None:
                raise ParseError(lineno, "end outside a spec block")
            try:
                specs.append(SubPathSpec(current_id, tuple(entries)))
            except (ValueError, LenOverflow) as exc:
                raise ParseError(lineno, str(exc)) from None
            current_id, entries = None, []
        elif current_id is None:
            raise ParseError(lineno, f"unexpected line {' '.join(tokens)!r}")
        else:
            entries.append(address_record(tokens, lineno, mode))
    if mode is None:
        raise ParseError(1, "missing mode line")
    if current_id is not None:
        raise ParseError(len(text.splitlines()) or 1, "unterminated spec block")
    return mode, tuple(specs)
