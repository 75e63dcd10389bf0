"""Seeded synthetic workload generation: weighted random walks over a CFG.

A profile fixes the seed, the step budget, and a weight for loop back
edges; every other edge weighs 1.  Generation is a pure function of
(cfg, profile): identical inputs yield identical traces, and every
emitted transfer is a real CFG edge.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

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
        if self.loop_bias <= 0:
            raise ValueError("loop_bias must be positive")


def generate_trace(cfg: CFG, profile: WorkloadProfile) -> list[Transfer]:
    loops = find_loops(cfg)
    out_edges: dict[str, list] = {b: [] for b in cfg.blocks}
    for e in cfg.edges:
        out_edges[e.src].append(e)

    rng = random.Random(profile.seed)
    current = cfg.entry_block().id
    trace: list[Transfer] = []
    for _ in range(profile.steps):
        edges = out_edges[current]
        if not edges:
            break
        weights = [
            profile.loop_bias if (e.src, e.dest) in loops.back_edges else 1.0 for e in edges
        ]
        edge = rng.choices(edges, weights=weights)[0]
        trace.append(Transfer(cfg.blocks[edge.src].end, cfg.blocks[edge.dest].start))
        current = edge.dest
    return trace
