"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from cfaudit.cfg import find_loops, segment_cfg
from cfaudit.cli import main as cli_main
from cfaudit.codec import encode_raw, serialize_log
from cfaudit.engine import Engine, compress_trace, expand, slice_compress
from cfaudit.errors import AuditError, AuthError, MalformedFrame
from cfaudit.fixtures import (
    BRANCHY_LEN_RANGE,
    DEMO_KEY,
    SENSOR_LEN_RANGE,
    branchy_cfg,
    branchy_profile,
    sensor_cfg,
    sensor_profile,
    static_demo_cfg,
    write_fixture_files,
)
from cfaudit.metrics import build_report
from cfaudit.model import (
    EngineConfig,
    Mode,
    RawPair,
    RepeatCount,
    SubPathSpec,
    Symbol,
    Transfer,
)
from cfaudit.monitor import Access, AccessEvent, Region, RegionMap, check_access
from cfaudit.oracle import oracle_compress, oracle_slice_compress
from cfaudit.protocol import (
    ACCEPT,
    Channel,
    ChannelFaults,
    Outcome,
    Prover,
    Verifier,
)
from cfaudit.selection import (
    enumerate_candidates,
    policy_minimize,
    policy_select,
    policy_top,
    static_candidates,
)
from cfaudit.workload import generate_trace

from conftest import CONFIG_GRID, blockmem_bytes, random_specs, random_trace
from test_selection import brute_force_top, cand

PAIR16 = EngineConfig()


def _report(num, name, check):
    try:
        check()
    except BaseException:
        print(f"ACCEPTANCE {num:2d} [{name}]: FAIL")
        raise
    print(f"ACCEPTANCE {num:2d} [{name}]: PASS")


def _instance(seed, cap=5000):
    rng = random.Random(seed)
    config = CONFIG_GRID[seed % len(CONFIG_GRID)]
    r = rng.random()
    if r < 0.70:
        length = rng.randint(0, 500)
    elif r < 0.95:
        length = rng.randint(500, 2000)
    else:
        length = cap
    trace = random_trace(rng, config, length)
    specs = random_specs(rng, config, trace, max_specs=8, max_len=16)
    return trace, specs, config


def test_criterion_1_lossless_round_trip():
    def check():
        start = time.perf_counter()
        for seed in range(1000):
            trace, specs, config = _instance(seed)
            compressed = compress_trace(trace, specs, config)
            assert expand(compressed, specs, config) == encode_raw(trace, config)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"round-trip sweep took {elapsed:.2f}s"

    _report(1, "lossless round trip, 1000 seeded instances", check)


def test_criterion_2_oracle_equivalence():
    def check():
        mismatches = 0
        for seed in range(500):
            trace, specs, config = _instance(seed + 10_000, cap=1500)
            a = compress_trace(trace, specs, config)
            b = oracle_compress(trace, specs, config)
            if serialize_log(a, config) != serialize_log(b, config):
                mismatches += 1
        assert mismatches == 0

        # constructed simultaneous-completion tie
        A, B, D, G = 0x0400, 0x0500, 0x0600, 0x0700
        s1 = SubPathSpec(1, (Transfer(A, B), Transfer(B, D)))
        s2 = SubPathSpec(2, (Transfer(A, B), Transfer(B, D), Transfer(D, G)))
        tie_trace = [Transfer(A, B), Transfer(B, D), Transfer(D, G)] * 4
        a = compress_trace(tie_trace, [s1, s2], PAIR16)
        b = oracle_compress(tie_trace, [s1, s2], PAIR16)
        assert serialize_log(a, PAIR16) == serialize_log(b, PAIR16)
        assert a.elements[0] == Symbol(1)

        # slice-boundary straddles
        for seed in range(120):
            trace, specs, config = _instance(seed + 20_000, cap=400)
            config = EngineConfig(
                mode=config.mode,
                addr_width=config.addr_width,
                slice_size_bytes=24,
                retry_on_mismatch=config.retry_on_mismatch,
            )
            ea = slice_compress(trace, specs, config)
            eb = oracle_slice_compress(trace, specs, config)
            assert [serialize_log(s, config) for s in ea] == [
                serialize_log(s, config) for s in eb
            ]

    _report(2, "engine equals scanning oracle byte-for-byte", check)


def test_criterion_3_four_node_subpath_scenario():
    def check():
        A, B, D, G, P, Q = 0x0400, 0x0500, 0x0600, 0x0700, 0x0410, 0x0510
        spec = SubPathSpec(1, (Transfer(A, B), Transfer(B, D), Transfer(D, G)))
        eng = Engine([spec], PAIR16)
        stages = []
        for t in [
            Transfer(A, B), Transfer(B, D), Transfer(D, G),  # (a) -> (b)
            Transfer(G, P), Transfer(P, Q),                  # (c)
            Transfer(A, B), Transfer(B, D), Transfer(D, G),  # (d) -> (e)
            Transfer(G, Q),                                  # (f)
        ]:
            eng.step(t)
            stages.append(eng.snapshot())
        assert stages[0] == (RawPair(A, B),)
        assert stages[1] == (RawPair(A, B), RawPair(B, D))
        assert stages[2] == (Symbol(1),)
        assert stages[3] == (Symbol(1), RawPair(G, P))
        assert stages[4] == (Symbol(1), RawPair(G, P), RawPair(P, Q))
        assert stages[5] == (Symbol(1), RawPair(G, P), RawPair(P, Q), RawPair(A, B))
        assert stages[6][-1] == RawPair(B, D)
        assert stages[7] == (Symbol(1), RawPair(G, P), RawPair(P, Q), Symbol(1))
        assert stages[8] == (
            Symbol(1), RawPair(G, P), RawPair(P, Q), Symbol(1), RawPair(G, Q),
        )

    _report(3, "four-transfer sub-path replacement scenario", check)


def test_criterion_4_coalescing_size_law():
    def check():
        base = 0x0400
        for L in (1, 2, 4, 8):
            entries = tuple(Transfer(base + 2 * i, base + 2 * i + 1) for i in range(L))
            spec = SubPathSpec(1, entries)
            unit = [Transfer(e.src, e.dest) for e in entries]
            for k in (2, 10, 100):
                log = compress_trace(unit * k, [spec], PAIR16)
                assert log.elements == (Symbol(1), RepeatCount(k))
                assert log.size_bytes == 2 * PAIR16.word_bytes  # exactly 2 words
                raw_words = 2 * L * k
                reduction = 1 - Fraction(2, raw_words)
                assert reduction == 1 - Fraction(1, L * k)

    _report(4, "k-repetition collapses to 2 words, exact size law", check)


def test_criterion_5_regime_reproduction():
    def check():
        # sensor: dominant loop with a 10-transfer body
        cfg = sensor_cfg()
        profile = sensor_profile()
        trace = generate_trace(cfg, profile)
        loops = find_loops(cfg)
        body = loops.loops["h"]
        body_pairs = {
            (cfg.blocks[e.src].end, cfg.blocks[e.dest].start)
            for e in cfg.edges
            if e.src in body and e.dest in body
        }
        assert len(body) == 10
        in_body = sum(1 for t in trace if (t.src, t.dest) in body_pairs)
        assert in_body / len(trace) >= 0.90

        log = encode_raw(trace, PAIR16)
        candidates = enumerate_candidates([log], SENSOR_LEN_RANGE, mode=Mode.PAIR)
        top1 = policy_top(candidates, 1)
        rep = build_report("sensor", trace, top1, PAIR16)
        assert rep.reduction_pct >= 90.0, rep.reduction_pct

        # branchy: savings grow (non-strictly) with the spec count
        bcfg = branchy_cfg()
        btrace = generate_trace(bcfg, branchy_profile())
        blog = encode_raw(btrace, PAIR16)
        bcands = enumerate_candidates([blog], BRANCHY_LEN_RANGE, mode=Mode.PAIR)
        reductions = []
        for n in range(1, 9):
            specs = policy_top(bcands, n)
            reductions.append(
                build_report("branchy", btrace, specs, PAIR16).reduction_pct
            )
        assert all(b >= a - 1e-9 for a, b in zip(reductions, reductions[1:])), reductions

    _report(5, "sensor >=90% reduction; branchy monotone over 1..8 specs", check)


def test_criterion_6_policy_correctness():
    def check():
        # top == brute force on candidate sets of size <= 20
        rng = random.Random(99)
        letters = "ABCDE"
        checked = 0
        for _ in range(300):
            pool, seen = [], set()
            for _ in range(rng.randint(0, 20)):
                s = "".join(rng.choice(letters) for _ in range(rng.randint(1, 4)))
                if s not in seen:
                    seen.add(s)
                    pool.append(cand(s, rng.randint(0, 9)))
            n = rng.randint(1, 4)
            assert [sp.entries for sp in policy_top(pool, n)] == brute_force_top(pool, n)
            checked += 1
        assert checked == 300

        # minimize honors the t% replacement rule at t in {0+, 100, 200}
        seed_member = cand("AB", 10)
        longer = cand("CDEF", 25)
        assert policy_minimize([seed_member, longer], 1, 100.0)[0].entries == longer.entries
        assert policy_minimize([seed_member, longer], 1, 200.0)[0].entries == seed_member.entries
        barely = cand("GHIJ", 11)
        assert policy_minimize([seed_member, barely], 1, 1e-9)[0].entries == barely.entries

        # select never exceeds its budget
        violations = 0
        dest16 = EngineConfig(mode=Mode.DEST)
        for i in range(200):
            pool, seen = [], set()
            r = random.Random(1000 + i)
            for _ in range(r.randint(0, 15)):
                s = "".join(r.choice(letters) for _ in range(r.randint(1, 6)))
                if s not in seen:
                    seen.add(s)
                    pool.append(cand(s, r.randint(0, 50)))
            budget = r.randint(0, 100)
            specs = policy_select(pool, budget, dest16)
            if specs and blockmem_bytes(specs, dest16) > budget:
                violations += 1
        assert violations == 0

    _report(6, "top argmax-exact; minimize threshold rule; select within budget", check)


def test_criterion_7_static_analyzer():
    def check():
        cfg = static_demo_cfg()
        info = find_loops(cfg)
        ranked = static_candidates(cfg)
        assert ranked

        # the top-ranked candidate lies within the loop
        body = info.loops["s1"]
        body_addrs = {cfg.blocks[b].start for b in body} | {
            cfg.blocks[b].end for b in body
        }
        top = ranked[0]
        assert top.static_priority == 1
        assert all(
            t.src in body_addrs and t.dest in body_addrs for t in top.entries
        )

        # never-called and branch-free functions contribute nothing
        for fn in ("dead", "leaf"):
            addrs = set()
            for b in cfg.function_blocks(fn):
                addrs.update((b.start, b.end))
            for c in ranked:
                assert all(
                    t.src not in addrs and t.dest not in addrs for t in c.entries
                ), fn

        # every segment is back-edge-free
        for seg in segment_cfg(cfg, info):
            for e in seg.edges:
                assert (e.src, e.dest) not in info.back_edges

    _report(7, "static ranking: loop first, exclusions hold, segments acyclic", check)


def test_criterion_8_memory_monitor_truth_table():
    def check():
        regions = RegionMap(tcb=Region(0x9000, 0x9FFF), blockmem=Region(0xA000, 0xA0FF))
        rows = 0
        for pc_in, w_en, d_in, dma_hit in itertools.product((False, True), repeat=4):
            event = AccessEvent(
                pc=0x9100 if pc_in else 0x4000,
                w_en=w_en,
                d_addr=((0xA010 if d_in else 0x5000) if w_en else None),
                dma_en=dma_hit,
                dma_addr=0xA020 if dma_hit else None,
            )
            want = (not pc_in and w_en and d_in) or dma_hit
            got = check_access(event, regions)
            assert got is (Access.RESET if want else Access.ALLOW)
            rows += 1
        assert rows == 16

    _report(8, "write-protection rule matches the full 16-row truth table", check)


def test_criterion_9_protocol_adversarial_suite():
    def check():
        start = time.perf_counter()
        config = EngineConfig(slice_size_bytes=64)
        A, B, D = 0x0400, 0x0500, 0x0600
        spec = SubPathSpec(1, (Transfer(A, B), Transfer(B, D)))
        trace = [Transfer(A, B), Transfer(B, D), Transfer(D, A)] * 40

        def fresh_session():
            verifier = Verifier(DEMO_KEY, config)
            request = verifier.open_session((spec,))
            prover = Prover(DEMO_KEY, config)
            prover.handle_request(request.encode())
            return verifier, request, prover.run(trace)

        # benign end-to-end run
        verifier, _, slices = fresh_session()
        for s in slices:
            assert verifier.verify_slice(s.encode()) == ACCEPT
        verdict = verifier.assemble()
        assert verdict.outcome is Outcome.AUTHENTIC_AND_VALID
        assert verdict.raw_log == encode_raw(trace, config)

        # 100 randomized single-bit corruptions across request and slices
        rng = random.Random(4242)
        rejected = 0
        for i in range(100):
            verifier, request, slices = fresh_session()
            frames = [s.encode() for s in slices]
            if i % 3 == 0:
                raw = bytearray(request.encode())
                bit = rng.randrange(len(raw) * 8)
                raw[bit // 8] ^= 1 << (bit % 8)
                fresh_prover = Prover(DEMO_KEY, config)
                with pytest.raises((AuthError, MalformedFrame, AuditError)):
                    fresh_prover.handle_request(bytes(raw))
                rejected += 1
            else:
                target = rng.randrange(len(frames))
                raw = bytearray(frames[target])
                bit = rng.randrange(len(raw) * 8)
                raw[bit // 8] ^= 1 << (bit % 8)
                frames[target] = bytes(raw)
                results = [verifier.verify_slice(f) for f in frames]
                assert results[target] != ACCEPT
                assert verifier.assemble().outcome is not Outcome.AUTHENTIC_AND_VALID
                rejected += 1
        assert rejected == 100

        # replay, omission, reorder
        for faults, broken in (
            (ChannelFaults(replay={1}), False),
            (ChannelFaults(drop={1}), True),
            (ChannelFaults(reorder={1}), True),
        ):
            verifier, _, slices = fresh_session()
            channel = Channel(faults)
            for s in slices:
                channel.send(s.encode())
            results = [verifier.verify_slice(f) for f in channel.drain()]
            assert any(r != ACCEPT for r in results)
            if broken:
                assert verifier.assemble().outcome is not Outcome.AUTHENTIC_AND_VALID

        # cross-challenge injection
        v1 = Verifier(DEMO_KEY, config)
        r1 = v1.open_session((spec,), challenge=b"\x01" * 16)
        p1 = Prover(DEMO_KEY, config)
        p1.handle_request(r1.encode())
        foreign = p1.run(trace)
        v2 = Verifier(DEMO_KEY, config)
        v2.open_session((spec,), challenge=b"\x02" * 16)
        assert v2.verify_slice(foreign[0].encode()) == "bad_mac"

        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"adversarial suite took {elapsed:.2f}s"

    _report(9, "tamper evidence, ordering, session binding, benign recovery", check)


def test_criterion_10_baseline_slice_comparison(tmp_path):
    def check():
        fixtures = write_fixture_files(tmp_path)
        report_path = tmp_path / "sim.report.json"
        code = cli_main([
            "simulate", str(fixtures["sensor.cfg"]),
            "--key", str(fixtures["demo.key"]),
            "--policy", "top", "--min-len", "10", "--max-len", "16",
            "--max-paths", "1", "--steps", "2600", "--seed", "2024",
            "--loop-bias", "60", "--slice-size", "256",
            "--report", str(report_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["slice_count"] < report["slice_count_baseline"]

    _report(10, "mined specs need strictly fewer 256-byte slices than baseline", check)
