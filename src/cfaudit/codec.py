"""Byte-level codecs for logs and block memory, plus the text spec-file format.

Memory-image log layout (little-endian words, word = addr_width/8 bytes):

    raw pair      ->  src word, dest word
    raw dest      ->  dest word
    symbol        ->  id word (1..255)
    repeat count  ->  (counter_tag | count) word

Portable-tagged layout prefixes every element with one tag byte
(0x00 pair, 0x01 dest, 0x02 symbol, 0x03 count) followed by the same
little-endian payload words; it carries no address-range constraints.

Block memory packs each spec as a header word ``(id << 8) | len`` followed
by ``len`` (src, dest) word pairs in pair mode or ``len`` dest words in
dest mode; blocks are simply concatenated.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import (
    AddressOutOfRange,
    CapacityExceeded,
    DuplicateId,
    EncodingOverlap,
    LenOverflow,
    MalformedBlockMem,
    MalformedLog,
    ModeMismatch,
    ParseError,
)
from .model import (
    MAX_REPEAT_COUNT,
    MAX_SYMBOL_ID,
    MIN_REPEAT_COUNT,
    BlockMemImage,
    EngineConfig,
    Log,
    LogFormat,
    Mode,
    RawDest,
    RawPair,
    RepeatCount,
    SubPathSpec,
    Symbol,
    Transfer,
    check_address,
    validate_spec_set,
)

TAG_RAW_PAIR = 0x00
TAG_RAW_DEST = 0x01
TAG_SYMBOL = 0x02
TAG_REPEAT = 0x03


def encode_raw(trace: Iterable[Transfer], config: EngineConfig) -> Log:
    """Canonical raw log for a transfer sequence: one element per transfer."""
    elements: list = []
    if config.mode is Mode.PAIR:
        for t in trace:
            if t.src is None:
                raise ModeMismatch("pair-mode trace requires source addresses")
            check_address(t.src, config)
            check_address(t.dest, config)
            elements.append(RawPair(t.src, t.dest))
    else:
        for t in trace:
            check_address(t.dest, config)
            elements.append(RawDest(t.dest))
    return Log(tuple(elements), len(elements) * config.raw_element_bytes)


def _image_address(value: int, config: EngineConfig) -> int:
    if not config.min_code_addr <= value < config.counter_tag:
        raise EncodingOverlap(
            f"address {value:#x} collides with symbol/counter word ranges"
        )
    return value


def serialize_log(log: Log, config: EngineConfig, fmt: LogFormat = LogFormat.MEMORY_IMAGE) -> bytes:
    w = config.word_bytes
    limit = 1 << config.addr_width
    out = bytearray()
    tagged = fmt is LogFormat.PORTABLE_TAGGED

    def word(v: int) -> bytes:
        return v.to_bytes(w, "little")

    prev_symbol = False
    for el in log.elements:
        if isinstance(el, RawPair):
            if config.mode is not Mode.PAIR:
                raise ModeMismatch("raw pair element in dest-mode log")
            for a in (el.src, el.dest):
                if not 0 <= a < limit:
                    raise AddressOutOfRange(f"address {a:#x} does not fit {config.addr_width} bits")
                if not tagged:
                    _image_address(a, config)
            if tagged:
                out.append(TAG_RAW_PAIR)
            out += word(el.src) + word(el.dest)
            prev_symbol = False
        elif isinstance(el, RawDest):
            if config.mode is not Mode.DEST:
                raise ModeMismatch("raw dest element in pair-mode log")
            if not 0 <= el.dest < limit:
                raise AddressOutOfRange(f"address {el.dest:#x} does not fit {config.addr_width} bits")
            if tagged:
                out.append(TAG_RAW_DEST)
            else:
                _image_address(el.dest, config)
            out += word(el.dest)
            prev_symbol = False
        elif isinstance(el, Symbol):
            if not 1 <= el.id <= MAX_SYMBOL_ID:
                raise MalformedLog(f"symbol id {el.id} out of range")
            if tagged:
                out.append(TAG_SYMBOL)
            out += word(el.id)
            prev_symbol = True
        elif isinstance(el, RepeatCount):
            if not prev_symbol:
                raise MalformedLog("repeat count not preceded by a symbol")
            if not MIN_REPEAT_COUNT <= el.count <= MAX_REPEAT_COUNT:
                raise MalformedLog(f"repeat count {el.count} out of range")
            if tagged:
                out.append(TAG_REPEAT)
                out += word(el.count)
            else:
                out += word(config.counter_tag | el.count)
            prev_symbol = False
        else:
            raise MalformedLog(f"unknown log element {el!r}")
    return bytes(out)


def _read_words(data: bytes, config: EngineConfig) -> list[int]:
    w = config.word_bytes
    if len(data) % w:
        raise MalformedLog("truncated word")
    return [int.from_bytes(data[i : i + w], "little") for i in range(0, len(data), w)]


def _deserialize_image(data: bytes, config: EngineConfig) -> list:
    words = _read_words(data, config)
    tag = config.counter_tag
    elements: list = []
    prev_symbol = False
    i = 0
    while i < len(words):
        v = words[i]
        if v & tag:
            count = v & (tag - 1)
            if not prev_symbol:
                raise MalformedLog("repeat count not preceded by a symbol")
            if not MIN_REPEAT_COUNT <= count <= MAX_REPEAT_COUNT:
                raise MalformedLog(f"repeat count {count} out of range")
            elements.append(RepeatCount(count))
            prev_symbol = False
            i += 1
        elif v <= MAX_SYMBOL_ID:
            if v == 0:
                raise MalformedLog("zero word is neither symbol nor address")
            elements.append(Symbol(v))
            prev_symbol = True
            i += 1
        elif v < config.min_code_addr:
            raise MalformedLog(f"word {v:#x} falls in the reserved gap")
        elif config.mode is Mode.PAIR:
            if i + 1 >= len(words):
                raise MalformedLog("truncated pair")
            d = words[i + 1]
            if not config.min_code_addr <= d < tag:
                raise MalformedLog("pair destination is not an address word")
            elements.append(RawPair(v, d))
            prev_symbol = False
            i += 2
        else:
            elements.append(RawDest(v))
            prev_symbol = False
            i += 1
    return elements


def _deserialize_tagged(data: bytes, config: EngineConfig) -> list:
    w = config.word_bytes
    elements: list = []
    prev_symbol = False
    i = 0

    def take_word() -> int:
        nonlocal i
        if i + w > len(data):
            raise MalformedLog("truncated word")
        v = int.from_bytes(data[i : i + w], "little")
        i += w
        return v

    while i < len(data):
        t = data[i]
        i += 1
        if t == TAG_RAW_PAIR:
            if config.mode is not Mode.PAIR:
                raise MalformedLog("raw pair element in dest-mode log")
            elements.append(RawPair(take_word(), take_word()))
            prev_symbol = False
        elif t == TAG_RAW_DEST:
            if config.mode is not Mode.DEST:
                raise MalformedLog("raw dest element in pair-mode log")
            elements.append(RawDest(take_word()))
            prev_symbol = False
        elif t == TAG_SYMBOL:
            v = take_word()
            if not 1 <= v <= MAX_SYMBOL_ID:
                raise MalformedLog(f"symbol id {v} out of range")
            elements.append(Symbol(v))
            prev_symbol = True
        elif t == TAG_REPEAT:
            v = take_word()
            if not prev_symbol:
                raise MalformedLog("repeat count not preceded by a symbol")
            if not MIN_REPEAT_COUNT <= v <= MAX_REPEAT_COUNT:
                raise MalformedLog(f"repeat count {v} out of range")
            elements.append(RepeatCount(v))
            prev_symbol = False
        else:
            raise MalformedLog(f"unknown tag byte {t:#04x}")
    return elements


def deserialize_log(data: bytes, config: EngineConfig, fmt: LogFormat = LogFormat.MEMORY_IMAGE) -> Log:
    """Decode a whole log; its size is the word bytes it was read from
    (all of ``data``, less one tag byte per element when tagged)."""
    if fmt is LogFormat.MEMORY_IMAGE:
        return Log(tuple(_deserialize_image(data, config)), len(data))
    elements = _deserialize_tagged(data, config)
    return Log(tuple(elements), len(data) - len(elements))


def blockmem_block_bytes(entry_count: int, config: EngineConfig) -> int:
    """Serialized size of one spec block: header word plus entry words."""
    per_entry = 2 if config.mode is Mode.PAIR else 1
    return (1 + per_entry * entry_count) * config.word_bytes


def serialize_blockmem(
    specs: Sequence[SubPathSpec],
    config: EngineConfig,
    capacity_bytes: int | None = None,
) -> BlockMemImage:
    validate_spec_set(specs, config)
    w = config.word_bytes
    out = bytearray()
    for spec in specs:
        out += ((spec.id << 8) | spec.length).to_bytes(w, "little")
        for e in spec.entries:
            if isinstance(e, int):
                out += e.to_bytes(w, "little")
            else:
                out += e.src.to_bytes(w, "little")
                out += e.dest.to_bytes(w, "little")
    if capacity_bytes is not None and len(out) > capacity_bytes:
        raise CapacityExceeded(
            f"block memory needs {len(out)} bytes, capacity is {capacity_bytes}"
        )
    return BlockMemImage(bytes(out), len(out) if capacity_bytes is None else capacity_bytes)


def deserialize_blockmem(
    image: BlockMemImage | bytes, config: EngineConfig
) -> tuple[SubPathSpec, ...]:
    data = image.data if isinstance(image, BlockMemImage) else image
    w = config.word_bytes
    if len(data) % w:
        raise MalformedBlockMem("truncated word")
    words = [int.from_bytes(data[i : i + w], "little") for i in range(0, len(data), w)]
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
        if config.mode is Mode.PAIR:
            entries: tuple = tuple(
                Transfer(vals[j], vals[j + 1]) for j in range(0, need, 2)
            )
        else:
            entries = tuple(vals)
        specs.append(SubPathSpec(spec_id, entries))
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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "mode":
            if mode is not None:
                raise ParseError(lineno, "duplicate mode line")
            try:
                mode = Mode(tokens[1])
            except (IndexError, ValueError):
                raise ParseError(lineno, f"bad mode line {line!r}") from None
        elif tokens[0] == "spec":
            if mode is None:
                raise ParseError(lineno, "spec before mode line")
            if current_id is not None:
                raise ParseError(lineno, "nested spec block")
            try:
                current_id = int(tokens[1], 0)
            except (IndexError, ValueError):
                raise ParseError(lineno, f"bad spec header {line!r}") from None
        elif tokens[0] == "end":
            if current_id is None:
                raise ParseError(lineno, "end outside a spec block")
            try:
                specs.append(SubPathSpec(current_id, tuple(entries)))
            except (ValueError, LenOverflow) as exc:
                raise ParseError(lineno, str(exc)) from None
            current_id, entries = None, []
        else:
            if current_id is None:
                raise ParseError(lineno, f"unexpected line {line!r}")
            try:
                vals = [int(t, 16) for t in tokens]
            except ValueError:
                raise ParseError(lineno, f"bad hex entry {line!r}") from None
            if mode is Mode.PAIR:
                if len(vals) != 2:
                    raise ParseError(lineno, "pair-mode entries need two addresses")
                entries.append(Transfer(vals[0], vals[1]))
            else:
                if len(vals) != 1:
                    raise ParseError(lineno, "dest-mode entries need one address")
                entries.append(vals[0])
    if mode is None:
        raise ParseError(1, "missing mode line")
    if current_id is not None:
        raise ParseError(len(text.splitlines()) or 1, "unterminated spec block")
    return mode, tuple(specs)
