"""Control-flow graphs: document parsing, natural loops, segmentation,
and per-segment path enumeration.

The CFG document is line-based text:

    function <name> <entry_block_id>
    block <id> <start_hex> <end_hex> <function_name>
    edge <src_id> <dest_id> <kind>

with kinds jump, cond_true, cond_false, call, return, fallthrough.  The
first function line names the program entry.  A CFG edge maps to the
transfer (src block end address, dest block start address).

Segmentation cuts the graph at back edges, at call and return edges, and
at every edge whose endpoints differ in function or in loop membership, so
each segment is a forward-edge subgraph whose blocks share one function
and one loop context.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import MalformedCFG, ParseError, PathExplosion
from .files import hex_value, records
from .model import Transfer

EDGE_KINDS = ("jump", "cond_true", "cond_false", "call", "return", "fallthrough")
CROSS_FUNCTION_KINDS = frozenset({"call", "return"})

DEFAULT_PATH_CAP = 10_000


@dataclass(frozen=True)
class Block:
    id: str
    start: int
    end: int
    function: str


@dataclass(frozen=True)
class Edge:
    src: str
    dest: str
    kind: str


@dataclass(frozen=True)
class CFG:
    functions: tuple[tuple[str, str], ...]  # (name, entry block id), document order
    blocks: Mapping[str, Block]
    edges: tuple[Edge, ...]

    @property
    def entry_function(self) -> str:
        return self.functions[0][0]

    def entry_block(self) -> Block:
        return self.blocks[self.functions[0][1]]

    def function_blocks(self, function: str) -> list[Block]:
        return [b for b in self.blocks.values() if b.function == function]

    def valid_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (self.blocks[e.src].end, self.blocks[e.dest].start) for e in self.edges
        )

    def valid_dests(self) -> frozenset[int]:
        return frozenset(self.blocks[e.dest].start for e in self.edges)


def build_cfg(document: str) -> CFG:
    functions: list[tuple[str, str]] = []
    blocks: dict[str, Block] = {}
    edges: list[Edge] = []
    for lineno, tokens in records(document):
        kind, args = tokens[0], tokens[1:]
        if kind == "function":
            if len(args) != 2:
                raise ParseError(lineno, "function lines need <name> <entry_block>")
            if any(fn == args[0] for fn, _ in functions):
                raise ParseError(lineno, f"duplicate function {args[0]}")
            functions.append((args[0], args[1]))
        elif kind == "block":
            if len(args) != 4:
                raise ParseError(lineno, "block lines need <id> <start> <end> <function>")
            bid, start_s, end_s, fn = args
            if bid in blocks:
                raise ParseError(lineno, f"duplicate block {bid}")
            blocks[bid] = Block(bid, hex_value(start_s, lineno), hex_value(end_s, lineno), fn)
        elif kind == "edge":
            if len(args) != 3 or args[2] not in EDGE_KINDS:
                raise ParseError(lineno, "edge lines need <src> <dest> <kind>")
            edges.append(Edge(args[0], args[1], args[2]))
        else:
            raise ParseError(lineno, f"unknown directive {kind!r}")

    if not functions:
        raise MalformedCFG("document defines no functions")
    fn_names = {fn for fn, _ in functions}
    for fn, entry in functions:
        if entry not in blocks:
            raise MalformedCFG(f"function {fn} entry block {entry} does not exist")
        if blocks[entry].function != fn:
            raise MalformedCFG(f"entry block {entry} belongs to {blocks[entry].function}, not {fn}")
    for b in blocks.values():
        if b.function not in fn_names:
            raise MalformedCFG(f"block {b.id} references unknown function {b.function}")
        if b.start > b.end:
            raise MalformedCFG(f"block {b.id} has start > end")
    for e in edges:
        if e.src not in blocks or e.dest not in blocks:
            raise MalformedCFG(f"edge {e.src}->{e.dest} has a dangling endpoint")
    return CFG(tuple(functions), dict(blocks), tuple(edges))


def write_cfg_document(cfg: CFG) -> str:
    lines = [f"function {fn} {entry}" for fn, entry in cfg.functions]
    for b in cfg.blocks.values():
        lines.append(f"block {b.id} {b.start:04x} {b.end:04x} {b.function}")
    for e in cfg.edges:
        lines.append(f"edge {e.src} {e.dest} {e.kind}")
    return "\n".join(lines) + "\n"


# --- dominators and natural loops -------------------------------------------

def _intra_edges(cfg: CFG, function: str) -> list[Edge]:
    return [
        e
        for e in cfg.edges
        if e.kind not in CROSS_FUNCTION_KINDS
        and cfg.blocks[e.src].function == function
        and cfg.blocks[e.dest].function == function
    ]


def _dominators(nodes: list[str], entry: str, preds: Mapping[str, list[str]]) -> dict[str, set[str]]:
    """Iterative set-intersection dominator computation over reachable nodes."""
    doms: dict[str, set[str]] = {entry: {entry}}
    everything = set(nodes)
    for n in nodes:
        if n != entry:
            doms[n] = set(everything)
    changed = True
    while changed:
        changed = False
        for n in nodes:
            if n == entry:
                continue
            incoming = [doms[p] for p in preds.get(n, []) if p in doms]
            new = set.intersection(*incoming) | {n} if incoming else {n}
            if new != doms[n]:
                doms[n] = new
                changed = True
    return doms


@dataclass(frozen=True)
class LoopInfo:
    back_edges: frozenset[tuple[str, str]]
    loops: Mapping[str, frozenset[str]]  # header block id -> member block ids
    membership: Mapping[str, frozenset[str]]  # block id -> headers of containing loops


def find_loops(cfg: CFG) -> LoopInfo:
    back_edges: set[tuple[str, str]] = set()
    loops: dict[str, set[str]] = {}
    for fn, entry in cfg.functions:
        edges = _intra_edges(cfg, fn)
        succs: dict[str, list[str]] = {}
        preds: dict[str, list[str]] = {}
        for e in edges:
            succs.setdefault(e.src, []).append(e.dest)
            preds.setdefault(e.dest, []).append(e.src)
        # reachable blocks only; unreachable code cannot form natural loops
        reach = [entry]
        seen = {entry}
        for n in reach:
            for s in succs.get(n, []):
                if s not in seen:
                    seen.add(s)
                    reach.append(s)
        doms = _dominators(reach, entry, preds)
        for e in edges:
            if e.src in seen and e.dest in doms.get(e.src, set()):
                back_edges.add((e.src, e.dest))
                members = loops.setdefault(e.dest, {e.dest})
                # walk predecessors from the latch without crossing the header
                stack = [e.src]
                while stack:
                    n = stack.pop()
                    if n in members:
                        continue
                    members.add(n)
                    stack.extend(p for p in preds.get(n, []) if p in seen)
    membership: dict[str, set[str]] = {b: set() for b in cfg.blocks}
    for header, members in loops.items():
        for b in members:
            membership[b].add(header)
    return LoopInfo(
        frozenset(back_edges),
        {h: frozenset(m) for h, m in loops.items()},
        {b: frozenset(m) for b, m in membership.items()},
    )


# --- segmentation ------------------------------------------------------------

@dataclass
class Segment:
    id: int
    blocks: frozenset[str]
    edges: tuple[Edge, ...] = ()  # internal forward edges only


def segment_cfg(cfg: CFG, loops: LoopInfo | None = None) -> list[Segment]:
    """Cut the graph at back edges, call and return edges, and edges whose
    endpoints differ in function or loop membership; the remaining edges
    join blocks into segments, numbered in the document order of their
    first block."""
    loops = loops or find_loops(cfg)
    blocks, membership = cfg.blocks, loops.membership
    keep = [
        e
        for e in cfg.edges
        if e.kind not in CROSS_FUNCTION_KINDS
        and (e.src, e.dest) not in loops.back_edges
        and blocks[e.src].function == blocks[e.dest].function
        and membership[e.src] == membership[e.dest]
    ]

    parent: dict[str, str] = {b: b for b in blocks}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in keep:
        parent[find(e.src)] = find(e.dest)

    members: dict[str, list[str]] = {}
    for b in blocks:
        members.setdefault(find(b), []).append(b)
    edges: dict[str, list[Edge]] = {root: [] for root in members}
    for e in keep:
        edges[find(e.src)].append(e)
    return [
        Segment(i, frozenset(blks), tuple(edges[root]))
        for i, (root, blks) in enumerate(members.items())
    ]


# --- per-segment path enumeration --------------------------------------------

@dataclass(frozen=True)
class SegmentPath:
    blocks: tuple[str, ...]
    transfers: tuple[Transfer, ...]


def enumerate_segment_paths(
    segment: Segment, cfg: CFG, max_paths: int = DEFAULT_PATH_CAP
) -> list[SegmentPath]:
    """All source-to-sink block paths of the segment's internal DAG,
    as transfer sequences; single-block paths carry no transfers and
    are dropped."""
    succs: dict[str, list[str]] = {b: [] for b in segment.blocks}
    indeg: dict[str, int] = {b: 0 for b in segment.blocks}
    for e in segment.edges:
        succs[e.src].append(e.dest)
        indeg[e.dest] += 1
    sources = sorted(b for b in segment.blocks if indeg[b] == 0)

    # topological order; a block it never reaches lies on or behind a cycle
    order = list(sources)
    for b in order:
        for s in succs[b]:
            indeg[s] -= 1
            if not indeg[s]:
                order.append(s)
    if len(order) != len(segment.blocks):
        raise MalformedCFG(f"segment {segment.id} has a cycle of forward edges")

    # count source-to-sink paths first so explosion is caught before listing
    counts: dict[str, int] = {}
    for b in reversed(order):
        counts[b] = sum(counts[s] for s in succs[b]) if succs[b] else 1
    total = sum(counts[s] for s in sources)
    if total > max_paths:
        raise PathExplosion(f"segment {segment.id} has {total} paths, cap {max_paths}")

    # depth first, successors in sorted order
    paths: list[SegmentPath] = []
    stack = [(s,) for s in reversed(sources)]
    while stack:
        acc = stack.pop()
        nexts = succs[acc[-1]]
        if nexts:
            stack.extend(acc + (s,) for s in sorted(nexts, reverse=True))
        elif len(acc) > 1:
            transfers = tuple(
                Transfer(cfg.blocks[a].end, cfg.blocks[b].start) for a, b in zip(acc, acc[1:])
            )
            paths.append(SegmentPath(acc, transfers))
    return paths
