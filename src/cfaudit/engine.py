"""Streaming compressor: the detector bank as one lazily built transition
table, priority replacement, repeat coalescing, slicing, and the
verifier-side lossless expander.

Each installed spec owns one detector that walks its entries against the
incoming transfer stream:

* idle (pointer 0): the transfer is tested against the first entry;
* monitoring (pointer > 0): a match advances the pointer, reaching the
  last entry completes the spec, and a mismatch resets the detector to
  idle.  By default the mismatching transfer is *not* re-tested against
  the first entry (``retry_on_mismatch`` flips that).

When one or more detectors complete on the same transfer the lowest spec
index wins, the last ``len`` raw elements of the log are replaced by the
winning symbol, and every detector resets.  If the replacement lands
directly after a symbol (or symbol + counter) of the same id, the group
coalesces into ``[symbol, count]`` instead of stacking symbols.

The detectors never run one by one.  Their joint state, the tuple of all
pointers, is interned to a small state number, and each state owns a table
row mapping a transfer to ``(next state, winning spec index or -1)``.  A
row entry is computed by the per-detector rule above the first time that
state meets that transfer, and looked up ever after.  A completion always
leads to the idle state (number 0), and so does a transfer outside every
spec's alphabet, which never enters the table; the engine only remembers
that it passed its checks.  Range and mode checks therefore run only when
a row or that memory lacks the transfer: every table entry is a spec
entry, checked when the spec set was installed.

Pending raw transfers stay in the log buffer as the caller's objects (the
destination address in dest mode).  They become ``RawPair``/``RawDest``
elements only when a log is emitted or ``snapshot()`` is called, so a
transfer that a later match replaces is never converted.
"""

from __future__ import annotations

import sys
from functools import partial
from typing import Iterable, Sequence

from .errors import AddressOutOfRange, MalformedLog, ModeMismatch, SliceTooSmall, UnknownSymbol
from .model import (
    MAX_REPEAT_COUNT,
    EngineConfig,
    Log,
    Mode,
    RawDest,
    RawPair,
    RepeatCount,
    SubPathSpec,
    Symbol,
    Transfer,
    validate_spec_set,
)

_COMPRESSED = (Symbol, RepeatCount)
_IDLE = (0, -1)  # the table entry of a transfer outside every spec's alphabet


class Engine:
    """Single-owner streaming compressor state."""

    def __init__(self, specs: Sequence[SubPathSpec], config: EngineConfig):
        specs = tuple(specs)
        validate_spec_set(specs, config)
        self.config = config
        self.specs = specs
        self._pair = config.mode is Mode.PAIR
        self._lo = config.min_code_addr
        self._hi = config.counter_tag
        self._word = config.word_bytes
        self._raw_bytes = config.raw_element_bytes
        self._retry = config.retry_on_mismatch
        if self._pair:
            self._patterns = [tuple((e.src, e.dest) for e in s.entries) for s in specs]
            # copies a (src, dest) transfer into a RawPair without the
            # Python-level namedtuple constructor
            self._raw = partial(tuple.__new__, RawPair)
        else:
            self._patterns = [tuple(s.entries) for s in specs]
            self._raw = RawDest
        self._alphabet = frozenset(item for p in self._patterns for item in p)
        self._outside: set = set()  # checked transfers outside the alphabet
        self._lens = [len(p) for p in self._patterns]
        self._drops = [n - 1 for n in self._lens]
        self._ids = [s.id for s in specs]
        self._symbols = [Symbol(s.id) for s in specs]
        idle = (0,) * len(specs)
        self._states: list[tuple[int, ...]] = [idle]  # state number -> pointers
        self._numbers = {idle: 0}
        self._rows: list[dict] = [{}]  # state number -> {item: (next, winner)}
        self._state = 0
        self._buf: list = []
        self._size = 0
        self.hits: dict[int, int] = {s.id: 0 for s in specs}

    @property
    def size_bytes(self) -> int:
        return self._size

    def snapshot(self) -> tuple:
        """Current log elements, without finalizing."""
        return self._elements(self._buf)

    def step(self, transfer: Transfer) -> None:
        self.feed((transfer,))

    def feed(self, trace: Iterable[Transfer], slice_limit: int | None = None) -> list[Log]:
        """Compress ``trace`` onto the current log.

        With ``slice_limit``, the current log is emitted (as by
        ``finalize``) whenever appending the next raw element would take
        it past that many bytes; the emitted logs are returned.  On an
        invalid transfer the engine keeps the state reached before it.
        """
        pair = self._pair
        rows = self._rows
        idle_row = rows[0]
        symbols = self._symbols
        drops = self._drops
        ids = self._ids
        hits = self.hits
        outside = self._outside
        raw = self._raw_bytes
        word = self._word
        cut = sys.maxsize if slice_limit is None else slice_limit - raw
        out: list[Log] = []
        state = self._state
        row = rows[state]
        buf = self._buf
        size = self._size
        try:
            for t in trace:
                if size > cut:
                    out.append(Log(self._elements(buf), size))
                    buf, size, state, row = [], 0, 0, idle_row
                key = t if pair else t.dest
                entry = row.get(key)
                if entry is None:
                    entry = _IDLE if key in outside else self._miss(state, key)
                state, winner = entry
                if winner < 0:
                    buf.append(key)
                    size += raw
                    row = rows[state]
                    continue
                row = idle_row
                drop = drops[winner]
                if drop:
                    del buf[-drop:]
                    size -= drop * raw
                sym = symbols[winner]
                tail = buf[-1] if buf else None
                if tail is sym:
                    buf.append(RepeatCount(2))
                    size += word
                elif (
                    type(tail) is RepeatCount
                    and tail.count < MAX_REPEAT_COUNT
                    and buf[-2] is sym
                ):
                    buf[-1] = RepeatCount(tail.count + 1)
                else:
                    buf.append(sym)
                    size += word
                hits[ids[winner]] += 1
        finally:
            self._buf, self._size, self._state = buf, size, state
        return out

    def _miss(self, state: int, item) -> tuple[int, int]:
        """Check a transfer the table does not know in ``state``, then add
        its entry (or, outside the alphabet, send it to idle)."""
        lo, hi = self._lo, self._hi
        if self._pair:
            src, dest = item
            if src is None:
                raise ModeMismatch("pair-mode engine fed a transfer without source")
            if not (lo <= src < hi and lo <= dest < hi):
                raise AddressOutOfRange(f"transfer ({src:#x}, {dest:#x}) out of range")
        elif not lo <= item < hi:
            raise AddressOutOfRange(f"destination {item:#x} out of range")
        if item not in self._alphabet:
            self._outside.add(item)
            return _IDLE
        ptrs = list(self._states[state])
        winner = -1
        for k, pattern in enumerate(self._patterns):
            p = ptrs[k]
            if pattern[p] == item:
                p += 1
                if p == self._lens[k]:
                    if winner < 0:
                        winner = k
                    p = 0
                ptrs[k] = p
            elif p:
                # Monitor-phase mismatch consumes the transfer; only the
                # retry variant re-tests it against the first entry.
                ptrs[k] = 1 if (self._retry and pattern[0] == item) else 0
        nxt = 0
        if winner < 0:
            joint = tuple(ptrs)
            nxt = self._numbers.get(joint, -1)
            if nxt < 0:
                nxt = self._numbers[joint] = len(self._states)
                self._states.append(joint)
                self._rows.append({})
        entry = self._rows[state][item] = (nxt, winner)
        return entry

    def _elements(self, buf: list) -> tuple:
        make = self._raw
        return tuple([e if type(e) in _COMPRESSED else make(e) for e in buf])

    def finalize(self) -> Log:
        """Emit the accumulated log; abandoned partial matches stay raw.

        Detector and coalescing state reset, so the engine can keep
        running to produce the next slice.
        """
        log = Log(self._elements(self._buf), self._size)
        self._buf = []
        self._size = 0
        self._state = 0
        return log


def compress_trace(
    trace: Iterable[Transfer], specs: Sequence[SubPathSpec], config: EngineConfig
) -> Log:
    engine = Engine(specs, config)
    engine.feed(trace)
    return engine.finalize()


def slice_compress(
    trace: Iterable[Transfer], specs: Sequence[SubPathSpec], config: EngineConfig
) -> list[Log]:
    """Compress into slices of at most ``slice_size_bytes`` each.

    A slice is emitted once appending the next raw element would exceed
    the budget; emission resets detectors and coalescing state, so no
    match or repeat group ever spans a slice boundary and emitted slices
    are never rewritten.
    """
    append = config.raw_element_bytes
    limit = config.slice_size_bytes
    if limit < append:
        raise SliceTooSmall(
            f"slice budget {limit} below one raw element ({append} bytes)"
        )
    engine = Engine(specs, config)
    slices = engine.feed(trace, limit)
    slices.append(engine.finalize())
    return slices


def expand(log: Log, specs: Sequence[SubPathSpec], config: EngineConfig) -> Log:
    """Losslessly reverse compression: symbols become their spec entries,
    a count of k after a symbol yields k occurrences in total."""
    by_id = {s.id: s for s in specs}
    pair = config.mode is Mode.PAIR
    raw, other = (RawPair, RawDest) if pair else (RawDest, RawPair)
    out: list = []
    prev_entries: list | None = None
    for el in log.elements:
        kind = type(el)
        if kind is raw:
            out.append(el)
            prev_entries = None
        elif kind is Symbol:
            spec = by_id.get(el.id)
            if spec is None:
                raise UnknownSymbol(f"symbol {el.id} has no installed spec")
            if spec.mode is not config.mode:
                raise ModeMismatch(f"spec {el.id} mode disagrees with config")
            if pair:
                prev_entries = [RawPair(e.src, e.dest) for e in spec.entries]
            else:
                prev_entries = [RawDest(a) for a in spec.entries]
            out.extend(prev_entries)
        elif kind is RepeatCount:
            if prev_entries is None:
                raise MalformedLog("repeat count not preceded by a symbol")
            for _ in range(el.count - 1):
                out.extend(prev_entries)
            prev_entries = None
        elif kind is other:
            raise ModeMismatch(f"{other.__name__} element in {config.mode.value}-mode log")
        else:
            raise MalformedLog(f"unknown log element {el!r}")
    return Log(tuple(out), len(out) * config.raw_element_bytes)
