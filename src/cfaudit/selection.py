"""Sub-path selection: candidate mining from prior logs, the three
log-driven policies (top / minimize / select), static CFG ranking, and
per-spec savings estimation.

Occurrence counting is greedy left-to-right and non-overlapping, which is
exactly what the run-time engine can replace.  "Non-overlapping" for the
top policy means no selected path is a contiguous subsequence of another
selected path; for static selection it means no shared transfer pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
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


def _raw_keys(log: Log, mode: Mode) -> Sequence:
    """The transfer keys of a raw log of ``mode``: ``(src, dest)`` pairs in
    pair mode, destinations in dest mode.  A log that carries words of this
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
        return [*zip(it, it)]
    raw = RawPair if pair else RawDest
    for e in log.elements:
        if type(e) is not raw:
            if isinstance(e, (RawPair, RawDest)):
                other = "pair" if mode is Mode.DEST else "dest"
                raise ModeMismatch(f"{other} elements in {mode.value}-mode input")
            raise ValueError("input must be raw (expanded) logs")
    return log.elements if pair else [e.dest for e in log.elements]


def enumerate_candidates(
    logs: Iterable[Log],
    len_range: tuple[int, int] = DEFAULT_LEN_RANGE,
    *,
    mode: Mode = Mode.PAIR,
) -> list[Candidate]:
    """Every distinct contiguous window with length in ``len_range``,
    counted greedily left-to-right without overlap, summed over logs.

    Windows are hash-consed into a trie of node ids: each distinct key is
    interned to a small int, and each start's ``lo``-long window is
    interned as a root node.  A longer window's node is its one-shorter
    prefix's node extended by its last key id, one int lookup in
    ``child``.  A node fixes its window's length, so one greedy
    ``next_free`` per node counts per (length, window).  Positions run on
    from log to log, so an occurrence in one log never blocks one in the
    next."""
    lo, hi = len_range
    if lo < 1 or hi < lo:
        raise ValueError(f"bad len_range {len_range}: need 1 <= lo <= hi")
    pair = mode is Mode.PAIR
    keyed = [_raw_keys(log, mode) for log in logs]
    # a RawPair key hashes and compares as its tuple
    key_ids = {k: i for i, k in enumerate(dict.fromkeys(chain.from_iterable(keyed)))}
    seqs = [[*map(key_ids.__getitem__, keys)] for keys in keyed]
    objs = [Transfer(*k) for k in key_ids] if pair else list(key_ids)
    radix = len(objs) or 1
    roots: dict[tuple, int] = {}  # lo key ids -> node
    child: dict[int, int] = {}  # node * radix + key id -> node
    find = child.get
    entries: list[tuple] = []  # per node
    count: list[int] = []
    next_free: list[int] = []
    start = 0  # position of the current log's first key across all logs
    for ids in seqs:
        n = len(ids)
        for i, window in enumerate(zip(*(ids[k:] for k in range(lo)))):
            node = roots.get(window)
            if node is None:
                node = roots[window] = len(entries)
                entries.append(tuple(map(objs.__getitem__, window)))
                count.append(0)
                next_free.append(0)
            at = start + i
            # greedy: an occurrence counts only if it starts at or after
            # the end of the previously counted one
            if next_free[node] <= at:
                count[node] += 1
                next_free[node] = at + lo
            for j in range(i + lo, min(i + hi, n)):
                edge = node * radix + ids[j]
                node_next = find(edge)
                if node_next is None:
                    node_next = child[edge] = len(entries)
                    entries.append(entries[node] + (objs[ids[j]],))
                    count.append(0)
                    next_free.append(0)
                node = node_next
                if next_free[node] <= at:
                    count[node] += 1
                    next_free[node] = start + j + 1
        start += n
    # every node was counted at its first occurrence
    return sorted(
        (Candidate(e, c) for e, c in zip(entries, count)),
        key=lambda c: (len(c.entries), c.entries),
    )


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
    selected one; ties break on shorter length, then entry order."""
    selected: list[Candidate] = []
    for c in _mined_order(candidates):
        if len(selected) >= n_paths:
            break
        if any(_is_nested(c.entries, s.entries) for s in selected):
            continue
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
