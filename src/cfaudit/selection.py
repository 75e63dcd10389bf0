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

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import reduce
from heapq import heapify, heappop
from itertools import chain, count
from typing import Iterable, Sequence

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


@dataclass(frozen=True)
class Candidate:
    entries: tuple  # Transfer tuple (pair mode) or address tuple (dest mode)
    count: int
    static_priority: int | None = None

    @property
    def length(self) -> int:
        return len(self.entries)


def _raw_keys(log: Log, mode: Mode) -> tuple:
    """The transfer keys of a raw log of ``mode``: ``(src, dest)`` pairs in
    pair mode, destinations in dest mode, read from its words.  A log of
    another mode raises ``ModeMismatch``, a compressed log ``ValueError``,
    afresh each time.  A select keys each prior for mining and again for
    each chosen spec's estimate, so the keys are cached on the log, in its
    ``_keys`` slot."""
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
            it = iter(words)
            keys = tuple(zip(it, it))
        _set_keys(log, keys)
    return keys


def enumerate_candidates(
    logs: Iterable[Log],
    len_range: tuple[int, int] = DEFAULT_LEN_RANGE,
    *,
    mode: Mode = Mode.PAIR,
) -> list[Candidate]:
    """Every distinct contiguous window with length in ``len_range``,
    counted greedily left-to-right without overlap, summed over logs.

    Each distinct key is interned to a small int, and each start's window
    of up to ``hi`` key ids (shorter only at a log's tail, down to ``lo``)
    to a window id; the windows are counted once.  The windows are
    hash-consed into a trie of node ids, one node per distinct window
    prefix of ``lo`` keys or more, and each distinct window's path is
    walked once.  A node carries the lengths of its proper borders
    (prefixes that are also suffixes): a child's are its parent's borders
    ``b`` with ``w[b] == x``, each one longer, plus 1 if ``x == w[0]``.
    A node with no border cannot overlap itself, so its greedy count is
    its occurrence count, the sum of its windows' counts.  Only bordered
    nodes take the greedy ``next_free`` pass over the starts in order,
    each start visiting the bordered nodes on its window's path.
    Positions run on from log to log, so an occurrence in one log never
    blocks one in the next.  Keys come from ``_raw_keys``, which caches
    them on each log, so ``estimate_savings`` on a prior just mined does
    not key it again."""
    lo, hi = len_range
    if lo < 1 or hi < lo:
        raise ValueError(f"bad len_range {len_range}: need 1 <= lo <= hi")
    pair = mode is Mode.PAIR
    keyed = [_raw_keys(log, mode) for log in logs]
    # ids follow key order, so id tuples order as their entries; a RawPair
    # key hashes and compares as its tuple
    key_ids = {k: i for i, k in enumerate(sorted(set(chain.from_iterable(keyed))))}
    objs = [Transfer(*k) for k in key_ids] if pair else list(key_ids)
    window_ids = defaultdict(count().__next__)  # up to hi key ids -> window id
    intern = window_ids.__getitem__
    starts = []  # per log: its window ids, one per start
    for keys in keyed:
        ids = [*map(key_ids.__getitem__, keys)]
        n = len(ids)
        full = max(0, n - hi + 1)  # starts with a whole hi-long window
        wids = [*map(intern, zip(*(ids[k:] for k in range(hi))))] if full else []
        wids += map(intern, (tuple(ids[i:]) for i in range(full, n - lo + 1)))
        starts.append(wids)
    multiplicity = Counter(chain.from_iterable(starts))

    radix = len(objs) or 1
    roots: dict[tuple, int] = {}  # lo key ids -> node
    child: dict[int, int] = {}  # node * radix + key id -> node
    find = child.get
    entries: list[tuple] = []  # per node
    values: list[int] = []  # per node: its key ids read as a base-radix number
    borders: list[list[int]] = []  # per node: its proper border lengths
    counts: list[int] = []
    bordered: list[tuple] = []  # per window id: (node, length) on its path
    for w in window_ids:
        m = multiplicity[len(bordered)]
        head = w[:lo]
        node = roots.get(head)
        if node is None:
            node = roots[head] = len(entries)
            entries.append(tuple(map(objs.__getitem__, head)))
            values.append(reduce(lambda v, x: v * radix + x, head, 0))
            borders.append([b for b in range(1, lo) if head[:b] == head[lo - b:]])
            counts.append(0)
        path = []
        if borders[node]:
            path.append((node, lo))
        else:
            counts[node] += m
        for j in range(lo, len(w)):
            x = w[j]
            edge = node * radix + x
            node_next = find(edge)
            if node_next is None:
                node_next = child[edge] = len(entries)
                entries.append(entries[node] + (objs[x],))
                values.append(values[node] * radix + x)
                up = borders[node]
                up = [b + 1 for b in up if w[b] == x] if up else []
                if x == w[0]:
                    up.append(1)
                borders.append(up)
                counts.append(0)
            node = node_next
            if borders[node]:
                path.append((node, j + 1))
            else:
                counts[node] += m
        bordered.append(tuple(path))

    if any(bordered):
        next_free = [0] * len(entries)
        start = 0  # position of the current log's first key across all logs
        for keys, wids in zip(keyed, starts):
            for at, wid in enumerate(wids, start):
                for node, length in bordered[wid]:
                    # greedy: an occurrence counts only if it starts at or
                    # after the end of the previously counted one
                    if next_free[node] <= at:
                        counts[node] += 1
                        next_free[node] = at + length
            start += len(keys)
    # by length, then entries: within one length, entries order as values,
    # and every value is below radix**hi
    top = radix**hi
    rank = [len(e) * top + v for e, v in zip(entries, values)]
    order = sorted(range(len(rank)), key=rank.__getitem__)
    return [Candidate(entries[i], counts[i]) for i in order]


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

    Candidates are popped from a heap in ``_mined_order`` (input position
    breaks full ties, as the stable sort does) until ``n_paths`` are
    chosen, so the pool is never sorted whole."""
    heap = [(-c.count, c.length, c.entries, i, c) for i, c in enumerate(candidates)]
    heapify(heap)
    selected: list[Candidate] = []
    while heap and len(selected) < n_paths:
        c = heappop(heap)[-1]
        if not any(_is_nested(c.entries, s.entries) for s in selected):
            selected.append(c)
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
    pattern = tuple((e.src, e.dest) for e in spec.entries) if pair else tuple(spec.entries)
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
                    words += _run_words(run)
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
