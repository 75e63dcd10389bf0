"""Sub-path selection: candidate mining from prior logs, the three
log-driven policies (top / minimize / select), static CFG ranking, and
per-spec savings estimation.

Occurrence counting is greedy left-to-right and non-overlapping, which is
exactly what the run-time engine can replace.  "Non-overlapping" for the
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

from .cfg import (
    CFG,
    SegmentPath,
    enumerate_segment_paths,
    find_loops,
    merge_segments,
    segment_cfg,
)
from .codec import blockmem_block_bytes
from .engine import compress_trace
from .errors import ModeMismatch
from .model import (
    EngineConfig,
    Log,
    Mode,
    RawDest,
    RawPair,
    SubPathSpec,
    Transfer,
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


# the last log keyed, its mode and its keys: a select keys one prior for
# mining and again for each chosen spec's estimate
_keys_memo: tuple = (None, None, None)


def _raw_keys(log: Log, mode: Mode) -> tuple:
    """The transfer keys of a raw log of ``mode``: ``(src, dest)`` pairs in
    pair mode, destinations in dest mode.  Logs are immutable, so the last
    log keyed (by identity) and mode are remembered with their keys; an
    error is raised afresh each time."""
    global _keys_memo
    last, last_mode, keys = _keys_memo
    if last is log and last_mode is mode:
        return keys
    keys = _build_raw_keys(log, mode)
    _keys_memo = (log, mode, keys)
    return keys


def _build_raw_keys(log: Log, mode: Mode) -> tuple:
    """``_raw_keys`` without the memo.  A log that carries words of this
    mode, each an address word, is keyed on its words.  Any other log is
    scanned element by element: another mode's raw elements raise
    ``ModeMismatch``, compressed ones ``ValueError``."""
    pair = mode is Mode.PAIR
    words, config = log.words, log.config
    # a compressed image holds a symbol word, and symbols lie below every address
    if words is not None and config.mode is mode and (
        not words or min(words) >= config.min_code_addr
    ):
        if not pair:
            return words
        it = iter(words)
        return tuple(zip(it, it))
    raw = RawPair if pair else RawDest
    for e in log.elements:
        if type(e) is not raw:
            if isinstance(e, (RawPair, RawDest)):
                other = "pair" if mode is Mode.DEST else "dest"
                raise ModeMismatch(f"{other} elements in {mode.value}-mode input")
            raise ValueError("input must be raw (expanded) logs")
    return log.elements if pair else tuple(e.dest for e in log.elements)


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
    blocks one in the next.  Keys come from ``_raw_keys``, which remembers
    the last log keyed, so ``estimate_savings`` on a one-log prior just
    mined does not key it again."""
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

def _branch_counts(cfg: CFG) -> dict[str, int]:
    out_deg: dict[str, int] = {b: 0 for b in cfg.blocks}
    for e in cfg.edges:
        out_deg[e.src] += 1
    counts: dict[str, int] = {fn: 0 for fn, _ in cfg.functions}
    for b in cfg.blocks.values():
        if out_deg[b.id] >= 2:
            counts[b.function] += 1
    return counts


def _called_functions(cfg: CFG) -> set[str]:
    called = {cfg.entry_function}  # the program entry runs without a call edge
    for e in cfg.edges:
        if e.kind == "call":
            called.add(cfg.blocks[e.dest].function)
    return called


def rank_static(cfg: CFG, paths: Iterable[SegmentPath]) -> list[Candidate]:
    """Order enumerated paths by priority class: inside a loop, then in the
    max-branching function, then in a function called from a loop or from
    the max-branching function; shorter first within a class.  Functions
    that are never called or have no internal branches contribute nothing.
    """
    loops = find_loops(cfg)
    branches = _branch_counts(cfg)
    called = _called_functions(cfg)
    max_branch_fn = max(branches, key=lambda fn: (branches[fn], fn)) if branches else None
    called_from_hot: set[str] = set()
    for e in cfg.edges:
        if e.kind != "call":
            continue
        src_block = cfg.blocks[e.src]
        if loops.membership[e.src] or src_block.function == max_branch_fn:
            called_from_hot.add(cfg.blocks[e.dest].function)

    ranked: list[Candidate] = []
    for path in paths:
        fn = path.function
        if fn not in called or branches.get(fn, 0) == 0:
            continue
        if all(loops.membership[b] for b in path.blocks):
            priority: int | None = 1
        elif fn == max_branch_fn:
            priority = 2
        elif fn in called_from_hot:
            priority = 3
        else:
            priority = None
        ranked.append(Candidate(path.transfers, 0, priority))
    ranked.sort(key=lambda c: (c.static_priority or 4, c.length, c.entries))
    return ranked


def static_candidates(cfg: CFG, max_paths_per_segment: int = 10_000) -> list[Candidate]:
    """Full static pipeline: segment, merge, enumerate, rank."""
    loops = find_loops(cfg)
    segments = merge_segments(segment_cfg(cfg, loops))
    paths: list[SegmentPath] = []
    for seg in segments:
        paths.extend(enumerate_segment_paths(seg, cfg, max_paths_per_segment))
    return rank_static(cfg, paths)


def _shares_pair(a: tuple, b: tuple) -> bool:
    return bool(set(a) & set(b))


def select_static(
    ranked: Sequence[Candidate],
    n_paths: int,
    budget_bytes: int,
    config: EngineConfig,
) -> list[SubPathSpec]:
    """Greedy rank-order selection of mutually non-overlapping paths (no
    shared transfer pair) until the count bound or byte budget is reached."""
    selected: list[Candidate] = []
    remaining = budget_bytes
    for c in ranked:
        if len(selected) >= n_paths:
            break
        if any(_shares_pair(c.entries, s.entries) for s in selected):
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
    logs, minus its block-memory cost; negative when it never pays off."""
    saved = 0
    for log in logs:
        trace = _raw_keys(log, config.mode)
        if config.mode is Mode.DEST:
            trace = [*map(RawDest, trace)]  # the engine reads a transfer's dest
        saved += log.size_bytes - compress_trace(trace, [spec], config).size_bytes
    return saved - blockmem_block_bytes(spec.length, config)
