"""Seeded synthetic workload generation: weighted random walks over a CFG.

A profile fixes the seed, the step budget, and a weight for loop back
edges; every other edge weighs 1.  Generation is a pure function of
(cfg, profile): identical inputs yield identical traces, and every
emitted transfer is a real CFG edge.

Before walking, ``generate_trace`` builds one table row per block with
out-edges: the block's out-steps ``(src end, dest start, dest block)`` in
edge order, their cumulative weights, the total and the last index.  Each
step then draws exactly as ``Random.choices(steps, weights)`` does (one
``random()`` scaled by the total, bisected with ``hi`` the last index), so
traces equal those of a walk that calls ``choices`` per step, without
rebuilding the weights each time.  A block with no out-edge ends the walk
before any draw.  Each step emits a fresh ``Transfer`` whose addresses are
the blocks' own int objects.
"""

from __future__ import annotations

import math
import random
import sys
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate

from .cfg import CFG, find_loops
from .model import Transfer


@dataclass(frozen=True)
class WorkloadProfile:
    seed: int
    steps: int
    loop_bias: float = 1.0

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ValueError("steps must be non-negative")
        if not 0 < self.loop_bias <= sys.float_info.max:  # false for nan, and ints no float holds
            raise ValueError("loop_bias must be a finite positive number")


def generate_trace(cfg: CFG, profile: WorkloadProfile) -> list[Transfer]:
    back_edges = find_loops(cfg).back_edges
    blocks = cfg.blocks
    out_edges: dict[str, list] = {}
    for e in cfg.edges:
        out_edges.setdefault(e.src, []).append(e)
    table = {}
    for b, edges in out_edges.items():
        cum = list(accumulate(
            profile.loop_bias if (b, e.dest) in back_edges else 1.0 for e in edges
        ))
        total = cum[-1] + 0.0  # a float, as Random.choices takes it
        if not math.isfinite(total):
            raise ValueError(f"block {b!r}: total out-edge weight overflows")
        steps = [(blocks[b].end, blocks[e.dest].start, e.dest) for e in edges]
        table[b] = (steps, cum, total, len(steps) - 1)

    random_ = random.Random(profile.seed).random
    new = tuple.__new__  # what Transfer(src, dest) calls, minus one frame
    trace: list[Transfer] = []
    append = trace.append
    current = cfg.entry_block().id
    for _ in range(profile.steps):
        row = table.get(current)
        if row is None:
            break
        steps, cum, total, hi = row
        src, dest, current = steps[bisect(cum, random_() * total, 0, hi)]
        append(new(Transfer, (src, dest)))
    return trace
