"""Streaming compressor: per-spec match detectors, priority replacement,
repeat coalescing, slicing, and the verifier-side lossless expander.

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
"""

from __future__ import annotations

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
    make_log,
    validate_spec_set,
)


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
        else:
            self._patterns = [tuple(s.entries) for s in specs]
        self._lens = [len(p) for p in self._patterns]
        self._ids = [s.id for s in specs]
        self._ptrs = [0] * len(specs)
        self._elements: list = []
        self._size = 0
        self.hits: dict[int, int] = {s.id: 0 for s in specs}

    @property
    def size_bytes(self) -> int:
        return self._size

    def snapshot(self) -> tuple:
        """Current log elements, without finalizing."""
        return tuple(self._elements)

    def step(self, transfer: Transfer) -> None:
        lo, hi = self._lo, self._hi
        if self._pair:
            src, dest = transfer
            if src is None:
                raise ModeMismatch("pair-mode engine fed a transfer without source")
            if not (lo <= src < hi and lo <= dest < hi):
                raise AddressOutOfRange(f"transfer ({src:#x}, {dest:#x}) out of range")
            item = (src, dest)
            self._elements.append(RawPair(src, dest))
        else:
            dest = transfer.dest
            if not lo <= dest < hi:
                raise AddressOutOfRange(f"destination {dest:#x} out of range")
            item = dest
            self._elements.append(RawDest(dest))
        self._size += self._raw_bytes

        ptrs = self._ptrs
        winner = -1
        for k, pattern in enumerate(self._patterns):
            p = ptrs[k]
            if pattern[p] == item:
                p += 1
                if p == self._lens[k]:
                    if winner < 0:
                        winner = k
                    ptrs[k] = 0
                else:
                    ptrs[k] = p
            elif p:
                # Monitor-phase mismatch consumes the transfer; only the
                # retry variant re-tests it against the first entry.
                ptrs[k] = 1 if (self._retry and pattern[0] == item) else 0
        if winner >= 0:
            self._replace(winner)

    def _replace(self, k: int) -> None:
        length = self._lens[k]
        spec_id = self._ids[k]
        els = self._elements
        assert all(isinstance(e, (RawPair, RawDest)) for e in els[-length:])
        del els[-length:]
        self._size -= length * self._raw_bytes
        tail = els[-1] if els else None
        if isinstance(tail, Symbol) and tail.id == spec_id:
            els.append(RepeatCount(2))
            self._size += self._word
        elif (
            isinstance(tail, RepeatCount)
            and tail.count < MAX_REPEAT_COUNT
            and isinstance(els[-2], Symbol)
            and els[-2].id == spec_id
        ):
            els[-1] = RepeatCount(tail.count + 1)
        else:
            els.append(Symbol(spec_id))
            self._size += self._word
        self.hits[spec_id] += 1
        for i in range(len(self._ptrs)):
            self._ptrs[i] = 0

    def finalize(self) -> Log:
        """Emit the accumulated log; abandoned partial matches stay raw.

        Detector and coalescing state reset, so the engine can keep
        running to produce the next slice.
        """
        log = Log(tuple(self._elements), self._size)
        self._elements = []
        self._size = 0
        for i in range(len(self._ptrs)):
            self._ptrs[i] = 0
        return log


def compress_trace(
    trace: Iterable[Transfer], specs: Sequence[SubPathSpec], config: EngineConfig
) -> Log:
    engine = Engine(specs, config)
    for t in trace:
        engine.step(t)
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
    slices: list[Log] = []
    for t in trace:
        if engine.size_bytes + append > limit:
            slices.append(engine.finalize())
        engine.step(t)
    slices.append(engine.finalize())
    return slices


def expand(log: Log, specs: Sequence[SubPathSpec], config: EngineConfig) -> Log:
    """Losslessly reverse compression: symbols become their spec entries,
    a count of k after a symbol yields k occurrences in total."""
    by_id = {s.id: s for s in specs}
    pair = config.mode is Mode.PAIR
    out: list = []
    prev_entries: list | None = None
    for el in log.elements:
        if isinstance(el, (RawPair, RawDest)):
            out.append(el)
            prev_entries = None
        elif isinstance(el, Symbol):
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
        elif isinstance(el, RepeatCount):
            if prev_entries is None:
                raise MalformedLog("repeat count not preceded by a symbol")
            for _ in range(el.count - 1):
                out.extend(prev_entries)
            prev_entries = None
        else:
            raise MalformedLog(f"unknown log element {el!r}")
    return make_log(out, config)
