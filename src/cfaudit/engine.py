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
pointers, owns one table row: a plain dict mapping a transfer to the entry
``(next row, winning spec index or -1, data)``.  A row entry is computed by
the per-detector rule above the first time that state meets that
transfer, and looked up ever after.  The entry holds the next row itself,
so a transfer costs one subscript; the pointers of a row are found from
its ``id`` only on a miss.  A raw entry's data is the words the transfer
writes, as an exact tuple built once (``list.extend`` of a ``Transfer``,
a tuple subclass, takes a slower path); a win's is the number of words it
replaces besides its last, its symbol id and the words it writes.  Wins
are counted per spec in the loop and added to ``hits`` when ``feed``
exits, also when it raises.  A completion always leads to the idle row,
and so does a transfer outside every spec's alphabet: it enters each row
that meets it as its idle entry.  The engine also remembers which outside
transfers passed the range and mode checks, so such a transfer is still
checked once per engine, not once per row.

The pending log is a buffer of memory-image words, as the device writes
its evidence buffer: a raw transfer is its ``src, dest`` words (its
``dest`` word in dest mode), a symbol is its id word and a counter is its
``counter_tag | count`` word, which coalescing bumps in place.  The log's
size is its word count times the word size.  An emitted log carries these
words, so the memory-image codec packs them as they are; its elements are
decoded only when they are read, and ``snapshot()`` decodes the buffer.
``expand`` reads these words too and writes the raw log's words.

``feed`` first reads its input into one list of keys, which the loop and
the no-spec path below both run on: a pair-mode key is the transfer (a
list input is its own key list), a dest-mode key its ``dest``.  An input
that raises while it is read (a dest-mode item with no ``dest`` too)
leaves the engine as it was.

A loop body that repeats back to back is replayed rather than stepped.
Every win returns the automaton to idle, so a win that coalesces (its
previous word is the same spec's symbol or counter) has read exactly that
spec's entries from idle, with no win before the last one.  The automaton
is deterministic, so each further copy of the entries read from idle ends
in the same win.  After a coalescing win the following copies are compared
with the entries as key slices, for as long as the log has room for the
next copy read raw (its word count plus the ``len - 1`` raw elements the
win drops stays within the slice cut, so no slice would be emitted inside
it).  A matching copy bumps the counter, or starts a new symbol when it is
saturated.  Bumping keeps the log's length, so while the counter is ``c``
or more copies short of ``MAX_REPEAT_COUNT`` one room check covers ``c``
copies: the next ``c * len`` keys (``c`` is ``64 // len``, at least 1) are
compared with the entries repeated ``c`` times, built once per spec, and a
match adds ``c`` to the counter.  Once a block fails, fewer than ``c``
copies follow, and they are compared one by one.  The run's wins are
counted once and the loop skips the run.

The replay's comparisons are fastest when equal addresses are one object,
as in a generated trace, whose addresses are the CFG's own ints.  Specs
often hold other objects (block memory decodes fresh ints), so when the
table first matches a transfer equal to a spec entry but not over the
same objects (in pair mode its two ints, since each generated step is a
fresh ``Transfer``), the engine rebuilds its copies of that spec's body
and block with the transfer in place of every entry equal to it.  Over a
generated trace this happens once per spec entry; the caller's specs are
never changed, and words and hits are not, since the objects are equal.
A parsed trace has a fresh int per address and stays compared by value:
interning its addresses would cost a parse more than it saves a pass.

An engine with no specs writes the raw memory image, the log a plain
auditing prover sends, so it needs no table.  ``feed`` then checks each
distinct key not checked before, with the loop's range and mode rules.
It extends the pending words in runs that end at each slice cut; a slice
is cut before a transfer that finds the log past the cut, as in the loop.
If any transfer fails the check, the loop runs over the same keys
instead, so the error, the transfer that raises it and the state left
behind are the loop's own.  The loop stays the only path with specs
installed, since only it tracks detector state.
"""

from __future__ import annotations

import sys
from itertools import chain, islice
from operator import attrgetter, length_hint
from typing import Iterable, Sequence

from .errors import AddressOutOfRange, ModeMismatch, SliceTooSmall, UnknownSymbol
from .model import (
    MAX_REPEAT_COUNT,
    MAX_SYMBOL_ID,
    MIN_REPEAT_COUNT,
    EngineConfig,
    Log,
    Mode,
    SubPathSpec,
    Transfer,
    decode_image,
    validate_spec_set,
)

_BLOCK = 64  # transfers the replay compares at once
_dest_of = attrgetter("dest")


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
        # the specs' own entries: in pair mode Transfers, like the keys, as
        # the replay compares a Transfer with a plain tuple more slowly
        self._patterns = [[*s.entries] for s in specs]
        # each body repeated to at most _BLOCK transfers (one copy if longer)
        self._blocks = [p * max(1, _BLOCK // len(p)) for p in self._patterns]
        self._alphabet = frozenset(item for p in self._patterns for item in p)
        self._lens = [len(p) for p in self._patterns]
        self._ids = [s.id for s in specs]
        # the data of a win: words of the raw elements it replaces besides
        # its last, its symbol id, and the words it writes
        self._win_data = [((n - 1) * (2 if self._pair else 1), sid, (sid,))
                          for n, sid in zip(self._lens, self._ids)]
        idle = (0,) * len(specs)
        self._idle: dict = {}  # the idle state's row: {item: (next row, winner, data)}
        self._rows = {idle: self._idle}  # pointers -> row
        self._pointers = {id(self._idle): idle}  # id(row) -> pointers
        self._outside: dict = {}  # checked transfer outside the alphabet -> its entry
        self._row = self._idle
        self._buf: list[int] = []  # the pending log's memory-image words
        self.hits: dict[int, int] = {s.id: 0 for s in specs}

    @property
    def size_bytes(self) -> int:
        return len(self._buf) * self._word

    def snapshot(self) -> tuple:
        """Current log elements, without finalizing."""
        return decode_image(self._buf, self.config)

    def step(self, transfer: Transfer) -> None:
        self.feed([transfer])

    def feed(self, trace: Iterable[Transfer], slice_limit: int | None = None) -> list[Log]:
        """Compress ``trace`` onto the current log.

        With ``slice_limit``, the current log is emitted (as by
        ``finalize``) whenever appending the next raw element would take
        it past that many bytes; the emitted logs are returned.  A limit
        below one raw element raises ``SliceTooSmall`` before any transfer
        is read.  The input is read whole before any of it is compressed:
        if reading raises, the engine is left as it was, and on an invalid
        transfer it keeps the state reached before that transfer.
        """
        raw = self._raw_bytes
        if slice_limit is None:
            cut = sys.maxsize
        elif slice_limit < raw:
            raise SliceTooSmall(f"slice budget {slice_limit} below one raw element ({raw} bytes)")
        else:
            # a log of more words has no room for one more raw element
            cut = (slice_limit - raw) // self._word
        if self._pair:
            keys = trace if type(trace) is list else [*trace]
        else:
            keys = [*map(_dest_of, trace)]
        if not self._ids:
            words = self._raw_words(keys)
            if words is not None:
                return self._extend_raw(words, cut)
        config = self.config
        idle_row = self._idle
        tag = self._hi
        first_count = tag | MIN_REPEAT_COUNT
        full = tag | MAX_REPEAT_COUNT
        wins = [0] * len(self._ids)  # wins per spec index, added to hits on exit
        out: list[Log] = []
        row = self._row
        buf = self._buf
        push = buf.extend
        bodies, blocks = self._patterns, self._blocks
        it = iter(keys)
        try:
            for key in it:
                if len(buf) > cut:
                    out.append(Log(tuple(buf), config))
                    buf, row = [], idle_row
                    push = buf.extend
                try:
                    row, winner, data = row[key]
                except KeyError:
                    row, winner, data = self._miss(row, key)
                if winner < 0:
                    push(data)
                    continue
                wins[winner] += 1
                drop, sid, symbol = data
                # the words before the ones this win replaces; symbol ids,
                # addresses and counters occupy disjoint word ranges
                k = len(buf) - drop
                tail = buf[k - 1] if k else 0
                if tail == sid:
                    buf[k:] = (first_count,)
                elif tag < tail < full and buf[k - 2] == sid:
                    del buf[k:]
                    buf[-1] = tail + 1
                else:
                    buf[k:] = symbol
                    continue
                # a coalescing win read this body from idle: replay the
                # copies that follow it (see the module docstring)
                pattern = bodies[winner]
                block = blocks[winner]
                n = len(pattern)
                m = len(block)
                c = m // n
                top = full - c  # a counter up to this takes c more copies
                room = cut - drop
                start = end = len(keys) - length_hint(it)
                bulk = True
                while len(buf) <= room:
                    tail = buf[-1]  # this spec's symbol or counter
                    if bulk and tag < tail <= top:
                        if keys[end : end + m] == block:
                            end += m
                            buf[-1] = tail + c
                            continue
                        bulk = False  # fewer than c copies follow
                    if keys[end : end + n] != pattern:
                        break
                    end += n
                    if tail == sid:
                        buf.append(first_count)
                    elif tail < full:
                        buf[-1] = tail + 1
                    else:
                        buf.append(sid)
                if end > start:
                    wins[winner] += (end - start) // n
                    next(islice(it, end - start, end - start), None)
        finally:
            self._buf, self._row = buf, row
            hits = self.hits
            for sid, won in zip(self._ids, wins):
                hits[sid] += won
        return out

    def _raw_words(self, keys: list) -> list | None:
        """The memory-image words of ``keys`` read raw, or None when some
        key fails ``_miss``'s checks: the loop raises at that one."""
        try:
            for key in set(keys).difference(self._outside):
                self._miss(self._idle, key)
        except Exception:  # whatever fails here, the loop raises in place
            return None
        return [*chain.from_iterable(keys)] if self._pair else keys

    def _extend_raw(self, words: list, cut: int) -> list[Log]:
        """Append raw ``words`` to the pending log, emitting it wherever
        the loop would: before a transfer that finds it past ``cut`` words."""
        width = 2 if self._pair else 1
        buf = self._buf
        out: list[Log] = []
        pos, end = 0, len(words)
        while pos < end:
            if len(buf) > cut:
                out.append(Log(tuple(buf), self.config))
                buf = []
            # the transfers that fit before the log is past the cut
            take = ((cut - len(buf)) // width + 1) * width
            buf += words[pos : pos + take]
            pos += take
        self._buf = buf
        return out

    def _miss(self, row: dict, item) -> tuple:
        """Add the entry of a transfer ``row`` does not know, checking its
        mode and range first unless it is an outside transfer checked
        before; an outside transfer's entry sends it to idle."""
        outside, pair = self._outside, self._pair
        entry = outside.get(item)
        if entry is None:
            # each raise drops its context: the loop calls this while it
            # handles the row's KeyError, which is no part of the error
            lo, hi = self._lo, self._hi
            if pair:
                try:
                    src, dest = item
                except (TypeError, ValueError):
                    raise ModeMismatch(
                        f"pair-mode engine fed {item!r}, not a (src, dest) pair") from None
                if src is None:
                    raise ModeMismatch("pair-mode engine fed a transfer without source") from None
                if not (lo <= src < hi and lo <= dest < hi):
                    raise AddressOutOfRange(
                        f"transfer ({src:#x}, {dest:#x}) out of range") from None
                words = (src, dest)
            elif not lo <= item < hi:
                raise AddressOutOfRange(f"destination {item:#x} out of range") from None
            else:
                words = (item,)
            if item not in self._alphabet:
                entry = outside[item] = (self._idle, -1, words)
        if entry is not None:
            row[item] = entry
            return entry
        ptrs = list(self._pointers[id(row)])
        winner = -1
        for k, pattern in enumerate(self._patterns):
            p = ptrs[k]
            e = pattern[p]
            if e == item:
                # pair mode tests the ints: each generated step is a fresh
                # Transfer over the CFG's own addresses
                if pair:
                    adopted = e[0] is src and e[1] is dest
                else:
                    adopted = e is item
                if not adopted:
                    self._adopt(k, item)
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
        if winner >= 0:
            entry = (self._idle, winner, self._win_data[winner])
        else:
            joint = tuple(ptrs)
            nxt = self._rows.get(joint)
            if nxt is None:
                nxt = self._rows[joint] = {}
                self._pointers[id(nxt)] = joint
            entry = (nxt, -1, words)
        row[item] = entry
        return entry

    def _adopt(self, k: int, item) -> None:
        """Rebuild spec ``k``'s body and block with ``item`` in place of
        every entry equal to it, so the replay compares the input's own
        objects."""
        pattern = [item if e == item else e for e in self._patterns[k]]
        self._blocks[k] = pattern * (len(self._blocks[k]) // len(pattern))
        self._patterns[k] = pattern

    def finalize(self) -> Log:
        """Emit the accumulated log; abandoned partial matches stay raw.

        Detector and coalescing state reset, so the engine can keep
        running to produce the next slice.
        """
        log = Log(tuple(self._buf), self.config)
        self._buf = []
        self._row = self._idle
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
    engine = Engine(specs, config)
    slices = engine.feed(trace, config.slice_size_bytes)
    slices.append(engine.finalize())
    return slices


def expand(log: Log, specs: Sequence[SubPathSpec], config: EngineConfig) -> Log:
    """Losslessly reverse compression on ``log.image(config)``, so a log of
    another layout raises: an address word is copied, a symbol becomes its
    spec's entry words (the spec is checked when first used) and a count of
    k after it repeats them k - 1 more times.  Returns a word log."""
    by_id = {s.id: s for s in specs}
    bodies: dict[int, list[int]] = {}  # symbol id -> its spec's entry words
    pair = config.mode is Mode.PAIR
    tag = config.counter_tag
    out: list[int] = []
    body: list[int] = []
    for v in log.image(config):
        if v & tag:
            out += body * ((v & (tag - 1)) - 1)
        elif v <= MAX_SYMBOL_ID:
            body = bodies.get(v)
            if body is None:
                spec = by_id.get(v)
                if spec is None:
                    raise UnknownSymbol(f"symbol {v} has no installed spec")
                validate_spec_set((spec,), config)  # its mode and addresses
                body = bodies[v] = [*chain.from_iterable(spec.entries)] if pair else [*spec.entries]
            out += body
        else:
            out.append(v)
    return Log(tuple(out), config)
