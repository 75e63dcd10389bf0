"""Shared fixtures: seeded random instance generation and hypothesis strategies."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from cfaudit.cfg import CFG, EDGE_KINDS, Block, Edge
from cfaudit.codec import serialize_blockmem
from cfaudit.model import (
    EngineConfig,
    Mode,
    RawDest,
    RawPair,
    RepeatCount,
    SubPathSpec,
    Symbol,
    Transfer,
    make_log,
)

CONFIG_GRID = [
    EngineConfig(mode=Mode.PAIR, addr_width=16),
    EngineConfig(mode=Mode.PAIR, addr_width=32),
    EngineConfig(mode=Mode.DEST, addr_width=16),
    EngineConfig(mode=Mode.DEST, addr_width=32),
]


def blockmem_bytes(specs, config: EngineConfig) -> int:
    """Serialized block-memory bytes of any number of specs.  One block
    memory holds at most ``max_sub_paths`` specs; blocks concatenate, so
    the bytes of such groups add up."""
    n = config.max_sub_paths
    return sum(len(serialize_blockmem(specs[i : i + n], config).data)
               for i in range(0, len(specs), n))


def address_pool(config: EngineConfig, size: int, rng: random.Random) -> list[int]:
    lo, hi = config.min_code_addr, config.counter_tag
    pool = set()
    while len(pool) < size:
        pool.add(rng.randrange(lo, hi))
    return sorted(pool)


def random_trace(rng: random.Random, config: EngineConfig, length: int, alphabet=None):
    """Random transfer sequence over a small address alphabet so that
    sub-path matches actually occur."""
    pool = alphabet or address_pool(config, 6, rng)
    trace = []
    for _ in range(length):
        src = rng.choice(pool)
        dest = rng.choice(pool)
        trace.append(Transfer(src, dest))
    return trace


def random_specs(rng: random.Random, config: EngineConfig, trace, max_specs=8, max_len=16):
    """Spec set drawn mostly from trace windows (guaranteeing matches) plus
    a few random ones; unique entries so ids stay distinct in behavior."""
    n = rng.randint(0, max_specs)
    specs = []
    seen = set()
    attempts = 0
    while len(specs) < n and attempts < 50:
        attempts += 1
        length = rng.randint(1, max_len)
        if trace and rng.random() < 0.8 and len(trace) >= length:
            start = rng.randrange(0, len(trace) - length + 1)
            window = trace[start : start + length]
        else:
            window = random_trace(rng, config, length)
        if config.mode is Mode.PAIR:
            entries = tuple(Transfer(t.src, t.dest) for t in window)
        else:
            entries = tuple(t.dest for t in window)
        if entries in seen:
            continue
        seen.add(entries)
        specs.append(SubPathSpec(len(specs) + 1, entries))
    return specs


def random_instance(seed: int, max_trace: int = 400):
    """One (trace, specs, config) triple; configs cycle across the grid."""
    rng = random.Random(seed)
    config = CONFIG_GRID[seed % len(CONFIG_GRID)]
    length = rng.randint(0, max_trace)
    trace = random_trace(rng, config, length)
    specs = random_specs(rng, config, trace)
    return trace, specs, config


# --- hypothesis strategies ----------------------------------------------------

def addresses(config: EngineConfig):
    return st.integers(min_value=config.min_code_addr, max_value=config.counter_tag - 1)


def log_elements(config: EngineConfig):
    """Well-formed element groups: raw elements, symbols, symbol+count."""
    addr = addresses(config)
    if config.mode is Mode.PAIR:
        raw = st.builds(RawPair, addr, addr)
    else:
        raw = st.builds(RawDest, addr)
    sym = st.builds(Symbol, st.integers(1, 255))
    sym_count = st.tuples(sym, st.builds(RepeatCount, st.integers(2, 32767))).map(list)
    group = st.one_of(raw.map(lambda e: [e]), sym.map(lambda e: [e]), sym_count)
    return st.lists(group, max_size=30).map(lambda gs: [e for g in gs for e in g])


def logs(config: EngineConfig):
    return log_elements(config).map(lambda els: make_log(els, config))


def spec_sets(config: EngineConfig, max_specs: int = 8, max_len: int = 16):
    addr = addresses(config)
    if config.mode is Mode.PAIR:
        entry = st.tuples(addr, addr).map(lambda p: Transfer(*p))
    else:
        entry = addr
    entries = st.lists(entry, min_size=1, max_size=max_len).map(tuple)
    return st.lists(entries, min_size=0, max_size=max_specs, unique_by=lambda e: e).map(
        lambda groups: [SubPathSpec(i + 1, g) for i, g in enumerate(groups)]
    )


@st.composite
def random_cfgs(draw):
    """1-3 functions of 1-8 blocks each.  Each block has 0-3 out-edges: a
    jump, branch or fallthrough to any block (one in eight) or else to a
    block of its own function (one in four back to itself or an earlier
    block), a call to a function entry, or a return to any block."""
    functions, blocks = [], {}
    for f in range(draw(st.integers(1, 3))):
        ids = [f"f{f}b{i}" for i in range(draw(st.integers(1, 8)))]
        functions.append((f"f{f}", ids[0]))
        for b in ids:
            start = 0x0400 + 4 * len(blocks)
            blocks[b] = Block(b, start, start + 2, f"f{f}")
    edges = []
    for b in blocks.values():
        own = [x for x in blocks if blocks[x].function == b.function]
        earlier, later = own[: own.index(b.id) + 1], own[own.index(b.id) + 1 :]
        for kind in draw(st.lists(st.sampled_from(EDGE_KINDS), max_size=3)):
            if kind == "call":
                dests = [entry for _, entry in functions]
            elif kind == "return" or draw(st.integers(0, 7)) == 0:
                dests = list(blocks)
            else:
                dests = earlier if not later or draw(st.integers(0, 3)) == 0 else later
            edges.append(Edge(b.id, draw(st.sampled_from(dests)), kind))
    return CFG(tuple(functions), blocks, tuple(edges))
