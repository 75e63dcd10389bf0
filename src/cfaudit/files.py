"""Text document formats: trace files, access-event files, key files, and
the record reader (``records``) every text document, spec and CFG files
included, is read through: a ``#`` starts a comment, blank lines are
skipped, and a line splits on whitespace.  A header line such as
``mode pair`` appears at most once (``header_value``).

Trace document::

    mode pair
    width 16
    0400 0500
    0500 0600

Dest-mode records carry a single destination address per line.

Access-event document, one event per line::

    <pc_hex> [w=<d_addr_hex>] [dma=<dma_addr_hex>]

Key files hold either 32 raw bytes or 64 hex characters.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterator, Sequence

from .errors import ParseError
from .model import Mode, Transfer
from .monitor import AccessEvent

KEY_BYTES = 32


def write_trace_document(trace: Sequence[Transfer], mode: Mode, addr_width: int) -> str:
    """Reads only ``.src`` and ``.dest`` (``.dest`` alone in dest mode), so
    raw log elements serve as well as transfers."""
    lines = [f"mode {mode.value}", f"width {addr_width}"]
    if mode is Mode.PAIR:
        for t in trace:
            lines.append(f"{t.src:04x} {t.dest:04x}")
    else:
        for t in trace:
            lines.append(f"{t.dest:04x}")
    return "\n".join(lines) + "\n"


def records(text: str) -> Iterator[tuple[int, list[str]]]:
    """``(line number, tokens)`` of each line of a text document, counted
    from 1, with the ``#`` comment cut and blank lines skipped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield lineno, tokens


def hex_value(token: str, lineno: int) -> int:
    try:
        return int(token, 16)
    except ValueError:
        raise ParseError(lineno, f"bad hex value {token!r}") from None


def header_value(tokens: list[str], lineno: int, current, parse: Callable[[str], object]):
    """``parse`` of a ``<name> <value>`` header line's value; ``current``
    is the value an earlier line gave, as a header appears at most once."""
    if current is not None:
        raise ParseError(lineno, f"duplicate {tokens[0]} line")
    try:
        return parse(tokens[1])
    except (IndexError, ValueError):
        raise ParseError(lineno, f"bad {tokens[0]} line {' '.join(tokens)!r}") from None


def address_record(tokens: list[str], lineno: int, mode: Mode) -> Transfer | int:
    """A pair-mode record's two hex addresses as a transfer, or a dest-mode
    record's one address."""
    try:
        vals = [int(t, 16) for t in tokens]
    except ValueError:
        raise ParseError(lineno, f"bad hex record {' '.join(tokens)!r}") from None
    if mode is Mode.PAIR:
        if len(vals) != 2:
            raise ParseError(lineno, "pair-mode records need two addresses")
        return Transfer(*vals)
    if len(vals) != 1:
        raise ParseError(lineno, "dest-mode records need one address")
    return vals[0]


def parse_trace_document(text: str) -> tuple[Mode, int, list[Transfer]]:
    mode: Mode | None = None
    width: int | None = None
    trace: list[Transfer] = []
    for lineno, tokens in records(text):
        if tokens[0] == "mode":
            mode = header_value(tokens, lineno, mode, Mode)
        elif tokens[0] == "width":
            width = header_value(tokens, lineno, width, int)
            if width not in (16, 32):
                raise ParseError(lineno, "width must be 16 or 32")
        elif mode is None or width is None:
            raise ParseError(lineno, "records before mode/width header")
        else:
            rec = address_record(tokens, lineno, mode)
            trace.append(rec if mode is Mode.PAIR else Transfer(None, rec))
    if mode is None or width is None:
        raise ParseError(1, "missing mode/width header")
    return mode, width, trace


def write_event_document(events: Sequence[AccessEvent]) -> str:
    lines = []
    for e in events:
        parts = [f"{e.pc:04x}"]
        if e.w_en:
            parts.append(f"w={e.d_addr:04x}")
        if e.dma_en:
            parts.append(f"dma={e.dma_addr:04x}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse_event_document(text: str) -> list[AccessEvent]:
    events: list[AccessEvent] = []
    for lineno, tokens in records(text):
        pc = hex_value(tokens[0], lineno)
        d_addr = dma_addr = None
        for tok in tokens[1:]:
            if tok.startswith("w="):
                d_addr = hex_value(tok[2:], lineno)
            elif tok.startswith("dma="):
                dma_addr = hex_value(tok[4:], lineno)
            else:
                raise ParseError(lineno, f"unknown field {tok!r}")
        events.append(
            AccessEvent(
                pc=pc,
                w_en=d_addr is not None,
                d_addr=d_addr,
                dma_en=dma_addr is not None,
                dma_addr=dma_addr,
            )
        )
    return events


def load_key(path: str | Path) -> bytes:
    data = Path(path).read_bytes()
    if len(data) == KEY_BYTES:
        return data
    text = data.decode("ascii", errors="strict").strip()
    key = bytes.fromhex(text)
    if len(key) != KEY_BYTES:
        raise ValueError(f"key must be {KEY_BYTES} bytes, got {len(key)}")
    return key


def save_key(path: str | Path, key: bytes) -> None:
    if len(key) != KEY_BYTES:
        raise ValueError(f"key must be {KEY_BYTES} bytes")
    Path(path).write_text(key.hex() + "\n")
