"""Independent reference compressor used to cross-check the engine.

Deliberately shares no code with the streaming engine.  Match attempts are
tracked as start indices into the trace, a completion is confirmed by an
explicit whole-window comparison against the trace, and output is first
assembled as a flat item list (raw positions and occurrence runs) that a
final rendering pass turns into log elements.  Same contract: greedy,
priority-ordered (lowest spec index wins ties), mismatches consume the
transfer without retry unless configured otherwise, every completion
resets all attempts, and adjacent occurrence runs of one id render as
``[symbol, count]`` with the counter saturating at its 15-bit maximum.
"""

from __future__ import annotations

from typing import Sequence

from .errors import AddressOutOfRange, ModeMismatch, SliceTooSmall
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

_RAW = 0
_OCC = 1


def _keys(trace: Sequence[Transfer], config: EngineConfig) -> list:
    lo, hi = config.min_code_addr, config.counter_tag
    keys = []
    if config.mode is Mode.PAIR:
        for t in trace:
            if t.src is None:
                raise ModeMismatch("pair-mode trace requires source addresses")
            if not (lo <= t.src < hi and lo <= t.dest < hi):
                raise AddressOutOfRange(f"transfer {t} out of range")
            keys.append((t.src, t.dest))
    else:
        for t in trace:
            if not lo <= t.dest < hi:
                raise AddressOutOfRange(f"destination {t.dest:#x} out of range")
            keys.append(t.dest)
    return keys


def _occ_words(n: int) -> int:
    """Words needed to render a run of n adjacent occurrences of one id."""
    words = 0
    while n > 0:
        group = min(n, MAX_REPEAT_COUNT)
        words += 1 if group == 1 else 2
        n -= group
    return words


def _elements(items: list, config: EngineConfig):
    """The log elements of an item list: a raw key each, and each run of
    one id as ``[symbol, count]`` groups of at most ``MAX_REPEAT_COUNT``."""
    pair = config.mode is Mode.PAIR
    for kind, value, extra in items:
        if kind == _RAW:
            yield RawPair(*value) if pair else RawDest(value)
        else:
            n = extra
            while n > 0:
                group = min(n, MAX_REPEAT_COUNT)
                yield Symbol(value)
                if group > 1:
                    yield RepeatCount(group)
                n -= group


def _render(items: list, config: EngineConfig) -> Log:
    # encoded as they are rendered: no list of the elements is held
    return make_log(_elements(items, config), config)


def _scan(
    trace: Sequence[Transfer],
    specs: Sequence[SubPathSpec],
    config: EngineConfig,
    slice_limit: int | None,
) -> list[Log]:
    specs = tuple(specs)
    validate_spec_set(specs, config)
    keys = _keys(trace, config)
    if config.mode is Mode.PAIR:
        patterns = [tuple((e.src, e.dest) for e in s.entries) for s in specs]
    else:
        patterns = [tuple(s.entries) for s in specs]
    ids = [s.id for s in specs]
    n = len(specs)
    retry = config.retry_on_mismatch
    word = config.word_bytes
    raw_bytes = config.raw_element_bytes

    slices: list[Log] = []
    items: list = []  # [kind, key-or-id, occurrence-run length]
    size = 0
    starts: list[int | None] = [None] * n

    for idx, key in enumerate(keys):
        if slice_limit is not None and size + raw_bytes > slice_limit:
            slices.append(_render(items, config))
            items, size = [], 0
            starts = [None] * n
        items.append([_RAW, key, 0])
        size += raw_bytes

        winner = -1
        for k in range(n):
            pattern = patterns[k]
            st = starts[k]
            if st is None:
                st = idx if pattern[0] == key else None
            elif pattern[idx - st] != key:
                st = idx if (retry and pattern[0] == key) else None
            if st is not None and idx - st + 1 == len(pattern):
                # confirm by comparing the whole window against the trace
                if tuple(keys[st : idx + 1]) == pattern:
                    if winner < 0:
                        winner = k
                st = None
            starts[k] = st

        if winner >= 0:
            length = len(patterns[winner])
            del items[-length:]
            size -= length * raw_bytes
            if items and items[-1][0] == _OCC and items[-1][1] == ids[winner]:
                run = items[-1]
                size -= _occ_words(run[2]) * word
                run[2] += 1
                size += _occ_words(run[2]) * word
            else:
                items.append([_OCC, ids[winner], 1])
                size += word
            starts = [None] * n

    slices.append(_render(items, config))
    return slices


def oracle_compress(
    trace: Sequence[Transfer], specs: Sequence[SubPathSpec], config: EngineConfig
) -> Log:
    return _scan(trace, specs, config, None)[0]


def oracle_slice_compress(
    trace: Sequence[Transfer], specs: Sequence[SubPathSpec], config: EngineConfig
) -> list[Log]:
    if config.slice_size_bytes < config.raw_element_bytes:
        raise SliceTooSmall(
            f"slice budget {config.slice_size_bytes} below one raw element"
        )
    return _scan(trace, specs, config, config.slice_size_bytes)
