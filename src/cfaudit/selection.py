"""Sub-path selection: candidate mining from prior logs, the three
log-driven policies (top / minimize / select), static CFG ranking, and
per-spec savings estimation.

Mining counts occurrences greedily left-to-right without overlap.  That
bounds what the run-time engine replaces but is not the same count: a
monitor-phase mismatch consumes its transfer, so over ``A A A B`` the spec
``(A, A, B)`` counts once and the engine replaces nothing.
``estimate_savings`` follows the engine's rule.  "Non-overlapping" for the
top policy means no selected path is a contiguous subsequence of another
selected path; for static selection it means no shared transfer pair.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import accumulate, chain, groupby, repeat
from struct import pack, unpack
from typing import Iterable, NamedTuple, Sequence

from .cfg import CFG, enumerate_segment_paths, find_loops, segment_cfg
from .codec import blockmem_block_bytes
from .errors import ModeMismatch
from .model import (
    MAX_REPEAT_COUNT,
    MAX_SPEC_LEN,
    EngineConfig,
    Log,
    Mode,
    SubPathSpec,
    Transfer,
    _set_keys,
    validate_spec_set,
)
from .oracle import oracle_compress  # noqa: F401  perfbench/run.py traces this name

DEFAULT_LEN_RANGE = (2, 16)


class Candidate(NamedTuple):
    """A mined window and its greedy count, or a static path (count 0) and
    its priority class.  A ``NamedTuple``, like ``Transfer``: it compares
    equal to the plain tuple of its fields."""

    entries: tuple  # Transfer tuple (pair mode) or address tuple (dest mode)
    count: int
    static_priority: int | None = None

    @property
    def length(self) -> int:
        return len(self.entries)


def _raw_keys(log: Log, mode: Mode) -> tuple:
    """The transfer keys of a raw log of ``mode``, read from its words: in
    pair mode one int code per transfer, ``src << 32 | dest``, which
    orders as the ``(src, dest)`` pairs at either address width; in dest
    mode the destinations.  A log of another mode raises
    ``ModeMismatch``, a compressed log ``ValueError``, afresh each time.
    A select keys each prior for mining and again for each chosen spec's
    estimate, so the keys are cached on the log, in its ``_keys`` slot."""
    config = log.config
    if config.mode is not mode:
        raise ModeMismatch(f"{config.mode.value} elements in {mode.value}-mode input")
    keys = log._keys
    if keys is None:
        words = log.words
        # a compressed image holds a symbol word, and symbols lie below every address
        if words and min(words) < config.min_code_addr:
            raise ValueError("input must be raw (expanded) logs")
        if mode is Mode.DEST:
            keys = words
        else:
            # each word is below 2**31: two big-endian 4-byte words read as one 8-byte code
            n = len(words)
            keys = unpack(f">{n // 2}Q", pack(f">{n}I", *words))
        _set_keys(log, keys)
    return keys


def enumerate_candidates(
    logs: Iterable[Log],
    len_range: tuple[int, int] = DEFAULT_LEN_RANGE,
    *,
    mode: Mode = Mode.PAIR,
) -> list[Candidate]:
    """Every distinct contiguous window with length in ``len_range``,
    counted greedily left-to-right without overlap, summed over logs, in
    ``(length, entries)`` order.

    A pair-mode key is its transfer's int code (``_raw_keys``), and each
    distinct code's entry is a ``Transfer`` over the words of one of its
    positions, so mined entries hold the prior's own address objects.
    Each distinct key becomes one character, ``chr(1)`` up in key order, so
    strings of them order as their entries; the logs are joined into one
    text, each followed by ``hi - 1`` pad characters ``chr(0)``.  Each
    start's window of ``hi`` characters (padded at a log's tail, where at
    least ``lo`` keys remain) is grouped with its start positions, and the
    distinct windows are sorted once.  A node is a distinct window prefix
    of ``lo`` to ``hi`` keys.  Each window shares its longest common prefix
    with the one before it, so it opens the nodes longer than that prefix,
    and the nodes of one length open in entry order: appending each to its
    length's list gives the output order.  A node closes at the first later
    window that does not share it, so its windows are one run of the
    sorted windows.  A node whose first key does not recur in it has no
    border, cannot overlap itself, and counts the starts of its run.  Any
    other node counts greedily over its starts in order.  Positions run on
    from log to log, so an occurrence in one log never blocks one in the
    next.  Windows are compared as UTF-32, which holds every character.
    More than ``sys.maxunicode`` distinct keys, which one character each
    cannot name, raise ``ValueError``.  Keys come from ``_raw_keys``, which
    caches them on each log, so ``estimate_savings`` on a prior just mined
    does not key it again."""
    lo, hi = len_range
    if lo < 1 or hi < lo:
        raise ValueError(f"bad len_range {len_range}: need 1 <= lo <= hi")
    logs = [*logs]
    keyed = [_raw_keys(log, mode) for log in logs]
    if mode is Mode.PAIR:
        # each distinct code's entry, over the words of the first log that holds it
        made: dict[int, Transfer] = {}
        for log, keys in zip(logs, keyed):
            words = log.words
            for code, p in dict(zip(keys, range(0, 2 * len(keys), 2))).items():
                if code not in made:
                    made[code] = Transfer(words[p], words[p + 1])
        distinct = sorted(made)
        objects = map(made.__getitem__, distinct)
    else:
        objects = distinct = sorted(set(chain.from_iterable(keyed)))
    if len(distinct) > sys.maxunicode:
        raise ValueError(f"{len(distinct)} distinct keys; mining takes at most {sys.maxunicode}")
    chars = {k: chr(i) for i, k in enumerate(distinct, 1)}
    objs = dict(zip(chars.values(), objects))
    objs["\0"] = None
    pad = "\0" * (hi - 1)
    text = pad.join(["".join(map(chars.__getitem__, keys)) for keys in keyed]) + pad
    starts: dict[str, list[int]] = {}  # window -> its start positions, ascending
    get = starts.get
    base = 0
    for keys in keyed:
        for i in range(base, base + len(keys) - lo + 1):
            w = text[i : i + hi]
            run = get(w)
            if run is None:
                starts[w] = [i]
            else:
                run.append(i)
        base += len(keys) + hi - 1
    windows = sorted(starts)
    runs = [*map(starts.__getitem__, windows)]
    cum = [0, *accumulate(map(len, runs))]  # starts before each window
    seq = [*map(objs.__getitem__, text)]  # the entry at each position
    bits = 32 * hi  # a window read as one int: the top differing bit gives the shared prefix
    entries: list[list[tuple]] = [[] for _ in range(hi + 1)]  # per length
    counts: list[list[int]] = [[] for _ in range(hi + 1)]
    opened = [0] * (hi + 1)  # per length: the window its open node starts at
    bordered = [False] * (hi + 1)  # per length: whether its open node may overlap itself
    prev = depth = 0  # the previous window as an int, and its length in keys
    for j, w in enumerate(chain(windows, [""])):  # "" closes every open node
        v = int.from_bytes(w.encode("utf-32-be", "surrogatepass"), "big")
        shared = (bits - (v ^ prev).bit_length()) // 32
        first = shared + 1 if shared >= lo else lo
        c = cum[j]
        for k in range(first, depth + 1):
            s = opened[k]
            n = c - cum[s]
            if n > 1 and bordered[k]:
                n = _greedy(runs[s] if j - s == 1 else sorted(chain.from_iterable(runs[s:j])), k)
            counts[k].append(n)
        if not w:
            break
        depth = len(w.rstrip("\0"))
        recur = w.find(w[0], 1)
        if recur < 0:
            recur = hi
        p = runs[j][0]
        full = tuple(seq[p : p + depth])
        for k in range(first, depth + 1):
            entries[k].append(full[:k])
            opened[k] = j
            bordered[k] = k > recur
        prev = v
    new = tuple.__new__
    nodes = zip(chain.from_iterable(entries), chain.from_iterable(counts), repeat(None))
    return [*map(new, repeat(Candidate), nodes)]


def _greedy(positions: Iterable[int], length: int) -> int:
    """Occurrences at ascending ``positions``, each counted only if it
    starts at or after the end of the previously counted one."""
    n = free = 0
    for p in positions:
        if p >= free:
            n += 1
            free = p + length
    return n


def _is_nested(a: tuple, b: tuple) -> bool:
    """True when a is a contiguous subsequence of b (or vice versa)."""
    small, big = (a, b) if len(a) <= len(b) else (b, a)
    k = len(small)
    return any(big[i : i + k] == small for i in range(len(big) - k + 1))


def _mined_order(candidates: Iterable[Candidate]) -> list[Candidate]:
    return sorted(candidates, key=lambda c: (-c.count, c.length, c.entries))


def _to_specs(selected: Sequence[Candidate]) -> list[SubPathSpec]:
    return [SubPathSpec(i + 1, c.entries) for i, c in enumerate(selected)]


def policy_top(candidates: Iterable[Candidate], n_paths: int) -> list[SubPathSpec]:
    """Highest-count candidates, skipping any that nests with an already
    selected one; ties break on shorter length, then entry order.

    One stable sort of positions on count, highest first, groups equal
    counts in input order.  Each group reached is sorted by ``(length,
    entries)``, so candidates come in ``_mined_order`` (input position
    breaks full ties, as its stable sort does) until ``n_paths`` are
    chosen, and only the groups reached are ordered past their count."""
    if n_paths < 1:
        return []
    pool = [*candidates]
    counts = [c.count for c in pool]
    selected: list[Candidate] = []
    for _, group in groupby(sorted(range(len(pool)), key=counts.__getitem__, reverse=True),
                            counts.__getitem__):
        for c in sorted(map(pool.__getitem__, group), key=lambda c: (len(c.entries), c.entries)):
            if not any(_is_nested(c.entries, s.entries) for s in selected):
                selected.append(c)
                if len(selected) == n_paths:
                    return _to_specs(selected)
    return _to_specs(selected)


def policy_minimize(
    candidates: Iterable[Candidate], n_paths: int, threshold_t: float
) -> list[SubPathSpec]:
    """Seed with the most-occurring candidates of the smallest lengths,
    then let each remaining candidate (in descending count order) replace
    the least-occurring selected one when it occurs more than
    ``1 + threshold_t/100`` times as often."""
    pool = list(candidates)
    seed_order = sorted(pool, key=lambda c: (c.length, -c.count, c.entries))
    selected: list[Candidate] = []
    for c in seed_order:
        if len(selected) >= n_paths:
            break
        if any(_is_nested(c.entries, s.entries) for s in selected):
            continue
        selected.append(c)
    chosen = set(id(c) for c in selected)
    factor = 1.0 + threshold_t / 100.0
    for c in _mined_order(p for p in pool if id(p) not in chosen):
        if not selected:
            break
        victim = min(selected, key=lambda s: (s.count, s.length, s.entries))
        if c.count <= factor * victim.count:
            continue
        rest = [s for s in selected if s is not victim]
        if any(_is_nested(c.entries, s.entries) for s in rest):
            continue
        selected[selected.index(victim)] = c
    return _to_specs(selected)


def policy_select(
    candidates: Iterable[Candidate], budget_bytes: int, config: EngineConfig
) -> list[SubPathSpec]:
    """Descending-count scan selecting every candidate whose serialized
    block still fits the remaining byte budget."""
    selected: list[Candidate] = []
    remaining = budget_bytes
    for c in _mined_order(candidates):
        block = blockmem_block_bytes(c.length, config)
        if block <= remaining:
            selected.append(c)
            remaining -= block
            if len(selected) == 255:
                break
    return _to_specs(selected)


# --- static analysis ----------------------------------------------------------

def static_candidates(cfg: CFG) -> list[Candidate]:
    """Rank the CFG's segment paths by priority class: inside a loop, then
    in the max-branching function, then in a function called from a loop
    or from the max-branching function; shorter first within a class.  A
    segment lies in one function and one loop context, so all its paths
    share one class.  Only functions that are called (the program entry
    counts as called) and have a branching block can rank; the segments of
    any other function are skipped before their paths are enumerated
    (``DEFAULT_PATH_CAP`` per segment)."""
    loops = find_loops(cfg)
    blocks, membership = cfg.blocks, loops.membership
    out_degree: Counter[str] = Counter()
    calls: list[tuple[str, str]] = []  # (calling block, called function)
    for e in cfg.edges:
        out_degree[e.src] += 1
        if e.kind == "call":
            calls.append((e.src, blocks[e.dest].function))
    called = {cfg.entry_function, *(fn for _, fn in calls)}
    branches = Counter(
        b.function for b in blocks.values() if out_degree[b.id] >= 2 and b.function in called
    )
    hot = max(branches, key=lambda fn: (branches[fn], fn), default=None)
    called_from_hot = {fn for src, fn in calls if membership[src] or blocks[src].function == hot}

    ranked: list[Candidate] = []
    for segment in segment_cfg(cfg, loops):
        some = min(segment.blocks)
        fn = blocks[some].function
        if fn not in branches:
            continue
        if membership[some]:
            priority: int | None = 1
        elif fn == hot:
            priority = 2
        elif fn in called_from_hot:
            priority = 3
        else:
            priority = None
        paths = enumerate_segment_paths(segment, cfg)
        ranked += (Candidate(path.transfers, 0, priority) for path in paths)
    ranked.sort(key=lambda c: (c.static_priority or 4, c.length, c.entries))
    return ranked


def _shares_pair(a: tuple, b: tuple) -> bool:
    return bool(set(a) & set(b))


def select_static(
    ranked: Sequence[Candidate],
    n_paths: int,
    budget_bytes: int,
    config: EngineConfig,
) -> list[SubPathSpec]:
    """Greedy rank-order selection of mutually non-overlapping paths (no
    shared transfer pair) until the count bound or byte budget is reached.
    A path longer than a spec may be is skipped."""
    selected: list[Candidate] = []
    remaining = budget_bytes
    for c in ranked:
        if len(selected) >= n_paths:
            break
        if c.length > MAX_SPEC_LEN or any(_shares_pair(c.entries, s.entries) for s in selected):
            continue
        block = blockmem_block_bytes(c.length, config)
        if block > remaining:
            break
        selected.append(c)
        remaining -= block
    return _to_specs(selected)


POLICIES = ("top", "minimize", "select", "static")


def choose(
    policy: str,
    candidates: Iterable[Candidate],
    n_paths: int,
    budget_bytes: int,
    threshold_t: float,
    config: EngineConfig,
) -> list[SubPathSpec]:
    """Run one selection policy and keep at most ``n_paths`` specs.

    ``top``/``minimize``/``select`` take mined candidates
    (``enumerate_candidates``); ``static`` takes ``static_candidates(cfg)``.
    ``select`` is bound by the byte budget alone, so the cap keeps its
    highest-ranked prefix for the engine's ``n_paths`` detectors.
    """
    if policy == "top":
        specs = policy_top(candidates, n_paths)
    elif policy == "minimize":
        specs = policy_minimize(candidates, n_paths, threshold_t)
    elif policy == "select":
        specs = policy_select(candidates, budget_bytes, config)
    elif policy == "static":
        specs = select_static(candidates, n_paths, budget_bytes, config)
    else:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    return specs[:n_paths]


def estimate_savings(
    spec: SubPathSpec, logs: Iterable[Log], config: EngineConfig
) -> int:
    """Net bytes saved by installing just this spec over the given raw
    logs, minus its block-memory cost; negative when it never pays off.

    This is the sum over the logs of ``log.size_bytes`` less the size of
    ``compress_trace`` of its keys with this one spec, found without the
    engine: with one spec and no slice limit its wins follow a jump scan
    over each log's keys.  From ``pos`` the scan jumps to the next
    occurrence of the first entry, ``i = keys.index(first, pos)``.  A whole
    copy of the entries there is a win, and the scan goes on after it.
    Otherwise the first mismatching key ``i + k`` ends the attempt: the
    monitor-phase mismatch consumes it, so the scan goes on at ``i + k +
    1``, or at ``i + k`` under ``retry_on_mismatch``.  A copy the log's end
    cuts off is no win.  Wins back to back form a run, which the engine
    coalesces into ``[symbol, count]`` per ``MAX_REPEAT_COUNT`` wins and one
    or two words for the rest; no run spans two logs.  The spec set passes
    the engine's checks first, even with no logs; then each log must have
    ``config``'s layout (``Log.image``), and its words, which passed the
    engine's checks when it was built, need no check again."""
    validate_spec_set((spec,), config)
    pair = config.mode is Mode.PAIR
    retry = config.retry_on_mismatch
    raw_bytes, word = config.raw_element_bytes, config.word_bytes
    # read only once validated: a spec of the other mode raises there
    pattern = tuple(e.src << 32 | e.dest for e in spec.entries) if pair else tuple(spec.entries)
    first, length = pattern[0], len(pattern)
    saved = 0
    for log in logs:
        log.image(config)  # the log's layout must be config's
        keys = _raw_keys(log, config.mode)
        n = len(keys)
        find = keys.index
        pos = wins = run = words = 0
        run_end = -1  # where the last win ended
        while True:
            try:
                i = find(first, pos)
            except ValueError:
                break
            end = i + length
            if keys[i:end] == pattern:
                wins += 1
                if i == run_end:
                    run += 1
                else:
                    words += run if run < 2 else _run_words(run)
                    run = 1
                pos = run_end = end
            elif end > n and keys[i:] == pattern[: n - i]:
                break  # cut off by the log's end
            else:
                k = 1
                while keys[i + k] == pattern[k]:
                    k += 1
                pos = i + k if retry else i + k + 1
        words += _run_words(run)
        saved += log.size_bytes - (n - wins * length) * raw_bytes - words * word
    return saved - blockmem_block_bytes(spec.length, config)


def _run_words(run: int) -> int:
    """Words the engine writes for ``run`` back-to-back wins of one spec:
    ``[symbol, count]`` per full group, a lone symbol for a group of one."""
    groups, rest = divmod(run, MAX_REPEAT_COUNT)
    return 2 * groups + (rest > 1) + (rest > 0)
