import pytest

from cfaudit.cfg import find_loops
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
from cfaudit.model import EngineConfig, Mode
from cfaudit.protocol import validate_against_cfg
from cfaudit.selection import enumerate_candidates
from cfaudit.workload import WorkloadProfile, generate_trace

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
