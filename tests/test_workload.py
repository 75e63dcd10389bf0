import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfaudit.cfg import CFG, Block, Edge, find_loops
from cfaudit.codec import encode_raw
from cfaudit.fixtures import (
    BRANCHY_LEN_RANGE,
    SENSOR_LEN_RANGE,
    branchy_cfg,
    branchy_profile,
    sensor_cfg,
    sensor_profile,
    static_demo_cfg,
    write_fixture_files,
)
from cfaudit.model import EngineConfig, Mode, Transfer
from cfaudit.protocol import validate_against_cfg
from cfaudit.selection import enumerate_candidates
from cfaudit.workload import WorkloadProfile, generate_trace

from conftest import random_cfgs

PAIR16 = EngineConfig()


def test_zero_steps():
    assert generate_trace(sensor_cfg(), WorkloadProfile(seed=1, steps=0)) == []


def test_determinism():
    cfg = branchy_cfg()
    profile = branchy_profile(seed=42, steps=500)
    assert generate_trace(cfg, profile) == generate_trace(cfg, profile)
    other = generate_trace(cfg, branchy_profile(seed=43, steps=500))
    assert other != generate_trace(cfg, profile)


def test_generated_transfers_are_cfg_edges():
    for cfg, profile in (
        (sensor_cfg(), sensor_profile(steps=400)),
        (branchy_cfg(), branchy_profile(steps=400)),
    ):
        trace = generate_trace(cfg, profile)
        log = encode_raw(trace, PAIR16)
        assert validate_against_cfg(log, cfg) is None


def test_walk_stops_at_sink():
    cfg = static_demo_cfg()  # m4 is terminal
    trace = generate_trace(cfg, WorkloadProfile(seed=0, steps=10_000))
    assert len(trace) < 10_000


def test_loop_bias_dominates_counts():
    """With a large back-edge bias, loop-body windows out-count every
    candidate that strays outside the body (rotated body windows tie)."""
    cfg = sensor_cfg()
    trace = generate_trace(cfg, sensor_profile(seed=9, steps=1500))
    log = encode_raw(trace, PAIR16)
    cands = enumerate_candidates([log], SENSOR_LEN_RANGE, mode=Mode.PAIR)
    best = max(cands, key=lambda c: c.count)
    loops = find_loops(cfg)
    body = loops.loops["h"]
    body_addrs = {cfg.blocks[b].start for b in body} | {cfg.blocks[b].end for b in body}

    def in_body(c):
        return all(t.src in body_addrs and t.dest in body_addrs for t in c.entries)

    assert in_body(best)
    outside = [c.count for c in cands if not in_body(c)]
    assert best.count > max(outside)
    assert best.count >= max(c.count for c in cands)


def test_profile_validation():
    with pytest.raises(ValueError):
        WorkloadProfile(seed=1, steps=-1)
    with pytest.raises(ValueError):
        WorkloadProfile(seed=1, steps=1, loop_bias=0)
    for bias in (float("inf"), float("nan"), -float("inf"), -1.0, 10**400):
        with pytest.raises(ValueError, match="loop_bias"):
            WorkloadProfile(seed=1, steps=1, loop_bias=bias)


def test_fixture_files(tmp_path):
    out = write_fixture_files(tmp_path)
    assert set(out) == {
        "sensor.cfg",
        "sensor.trace",
        "branchy.cfg",
        "branchy.trace",
        "static_demo.cfg",
        "demo.key",
    }
    for path in out.values():
        assert path.exists() and path.stat().st_size > 0


def test_sensor_body_share():
    cfg = sensor_cfg()
    trace = generate_trace(cfg, sensor_profile())
    loops = find_loops(cfg)
    body = loops.loops["h"]
    pairs = {
        (cfg.blocks[e.src].end, cfg.blocks[e.dest].start)
        for e in cfg.edges
        if e.src in body and e.dest in body
    }
    inside = sum(1 for t in trace if (t.src, t.dest) in pairs)
    assert inside / len(trace) >= 0.9


def test_branchy_len_range_is_default():
    assert BRANCHY_LEN_RANGE == (2, 16)


def test_overflowing_block_weight_raises_before_the_walk():
    """Two back edges of 1e308 out of one block weigh inf in total: the
    table build rejects the block even when no step would reach it."""
    cfg = CFG(
        (("main", "a"),),
        {"a": Block("a", 0x0400, 0x0402, "main"), "b": Block("b", 0x0410, 0x0412, "main")},
        (Edge("a", "b", "jump"), Edge("b", "b", "jump"), Edge("b", "b", "cond_true")),
    )
    assert generate_trace(cfg, WorkloadProfile(seed=1, steps=50, loop_bias=1e307)) != []
    for steps in (0, 1, 50):
        with pytest.raises(ValueError, match="'b'.*overflows"):
            generate_trace(cfg, WorkloadProfile(seed=1, steps=steps, loop_bias=1e308))


def choices_walk(cfg, profile):
    """Reference walk: one ``rng.choices`` over freshly built weights per
    step, as ``generate_trace`` was first written."""
    loops = find_loops(cfg)
    out_edges = {b: [] for b in cfg.blocks}
    for e in cfg.edges:
        out_edges[e.src].append(e)
    rng = random.Random(profile.seed)
    current = cfg.entry_block().id
    trace = []
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


# a subnormal bias can round a draw up to the total, which only the last
# index (hi = n - 1) keeps inside the block's out-steps
BIASES = st.one_of(
    st.sampled_from([1.0, 60.0, 1e-3, 5e-324]),
    st.floats(min_value=0.0, max_value=1e300, exclude_min=True),
)


@settings(max_examples=300, deadline=None)
@given(random_cfgs(), st.integers(0, 2**64), st.integers(0, 2000), BIASES)
def test_walk_equals_choices_walk(cfg, seed, steps, bias):
    profile = WorkloadProfile(seed=seed, steps=steps, loop_bias=bias)
    trace = generate_trace(cfg, profile)
    assert trace == choices_walk(cfg, profile)
    # the object shape engine timings depend on: a fresh Transfer per step
    # whose addresses are the blocks' own int objects
    assert len({id(t) for t in trace}) == len(trace)
    block_at_start = {b.start: b.id for b in cfg.blocks.values()}
    current = cfg.entry_block().id
    for t in trace:
        assert type(t) is Transfer
        assert t.src is cfg.blocks[current].end
        current = block_at_start[t.dest]
        assert t.dest is cfg.blocks[current].start


# sha256 of the raw-log words of each walk, taken from the rng.choices walk;
# the sessions are those of test_fixture_parity.py
WALK_DIGESTS = {
    "sensor": (sensor_cfg, [sensor_profile()],
               "aab857d6e4087b7bb07e2da073230ad93acc0dd46f7b158fa9ddaf9dafe90c08"),
    "branchy": (branchy_cfg, [branchy_profile()],
                "fb2f358afe19666e356fb565e87a2cfc6e2582ef8bec07fe8fa683ceda78b6c2"),
    "static_demo": (static_demo_cfg, [WorkloadProfile(seed=s, steps=10_000) for s in range(50)],
                    "20063a2aa40112168eec345d62d88aa915cb08fa0213690c1c0785f1cbc997c1"),
    "sensor_session_11": (
        sensor_cfg, [WorkloadProfile(seed=11, steps=20_000, loop_bias=60.0)],
        "48fabefade2d44f9432192cc42ca6f9f9ad79bc5e3b5c4aa808c82218523bb86"),
    "branchy_session_12": (
        branchy_cfg, [WorkloadProfile(seed=12, steps=20_000)],
        "af934a5aafa9e366dae4848b3a4a6be960857a86c1c041146be3978e818c2960"),
}


@pytest.mark.parametrize("name", WALK_DIGESTS)
def test_walks_pinned(name):
    cfg, profiles, digest = WALK_DIGESTS[name]
    graph = cfg()
    trace = [t for profile in profiles for t in generate_trace(graph, profile)]
    assert hashlib.sha256(repr(encode_raw(trace, PAIR16).words).encode()).hexdigest() == digest
