import dataclasses
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfaudit import selection
from cfaudit.codec import blockmem_block_bytes, encode_raw
from cfaudit.errors import ModeMismatch
from cfaudit.fixtures import (
    BRANCHY_LEN_RANGE,
    SENSOR_LEN_RANGE,
    branchy_cfg,
    branchy_profile,
    sensor_cfg,
    sensor_profile,
    static_demo_cfg,
)
from cfaudit.engine import compress_trace
from cfaudit.model import (
    EngineConfig,
    Log,
    Mode,
    RawDest,
    RawPair,
    SubPathSpec,
    Symbol,
    Transfer,
    make_log,
)
from cfaudit.oracle import oracle_compress
from cfaudit.selection import (
    Candidate,
    choose,
    enumerate_candidates,
    estimate_savings,
    policy_minimize,
    policy_select,
    policy_top,
    select_static,
    static_candidates,
)
from cfaudit.workload import generate_trace

from conftest import CONFIG_GRID, blockmem_bytes, random_specs, random_trace

PAIR16 = EngineConfig()
DEST16 = EngineConfig(mode=Mode.DEST)


def dest_log(symbols, base=0x0400):
    """Letter string -> dest-mode raw log over distinct addresses."""
    trace = [Transfer(None, base + 0x10 * (ord(c) - ord("A"))) for c in symbols]
    return encode_raw(trace, DEST16)


def addr(c, base=0x0400):
    return base + 0x10 * (ord(c) - ord("A"))


def naive_count(keys, window):
    """Reference greedy non-overlapping counter, one window at a time."""
    count = i = 0
    n, k = len(keys), len(window)
    while i + k <= n:
        if tuple(keys[i : i + k]) == window:
            count += 1
            i += k
        else:
            i += 1
    return count


class TestEnumerate:
    def test_ababab(self):
        log = dest_log("ABABAB")
        cands = enumerate_candidates([log], (2, 2), mode=Mode.DEST)
        by_entries = {c.entries: c.count for c in cands}
        assert by_entries[(addr("A"), addr("B"))] == 3
        assert by_entries[(addr("B"), addr("A"))] == 2

    def test_aaaa(self):
        log = dest_log("AAAA")
        cands = enumerate_candidates([log], (2, 2), mode=Mode.DEST)
        assert {c.entries: c.count for c in cands} == {(addr("A"), addr("A")): 2}

    def test_empty(self):
        assert enumerate_candidates([], (2, 4), mode=Mode.DEST) == []
        assert enumerate_candidates([dest_log("")], (2, 4), mode=Mode.DEST) == []

    def test_counts_match_naive_oracle(self):
        rng = random.Random(3)
        for _ in range(20):
            trace = random_trace(rng, DEST16, rng.randint(0, 60))
            log = encode_raw(trace, DEST16)
            keys = [t.dest for t in trace]
            for c in enumerate_candidates([log], (2, 5), mode=Mode.DEST):
                assert c.count == naive_count(keys, c.entries), c.entries

    def test_counts_sum_over_logs(self):
        log = dest_log("ABAB")
        cands = enumerate_candidates([log, log], (2, 2), mode=Mode.DEST)
        assert {c.entries: c.count for c in cands}[(addr("A"), addr("B"))] == 4

    def test_pair_mode_windows(self):
        trace = [Transfer(0x0400, 0x0500), Transfer(0x0500, 0x0400)] * 2
        log = encode_raw(trace, PAIR16)
        cands = enumerate_candidates([log], (2, 2), mode=Mode.PAIR)
        best = max(cands, key=lambda c: c.count)
        assert best.count == 2
        assert best.entries == (Transfer(0x0400, 0x0500), Transfer(0x0500, 0x0400))


def _reference_enumerate(logs, len_range, mode):
    """The per-length tuple-window miner that the interned trie replaced:
    one fresh key tuple per window, one greedy ``next_free`` per length."""
    lo, hi = len_range
    counts = {}
    for log in logs:
        if mode is Mode.PAIR:
            keys = [(e.src, e.dest) for e in log.elements]
        else:
            keys = [e.dest for e in log.elements]
        n = len(keys)
        for length in range(lo, hi + 1):
            if length > n:
                break
            next_free = {}
            for i in range(n - length + 1):
                window = tuple(keys[i : i + length])
                if next_free.get(window, 0) <= i:
                    counts[window] = counts.get(window, 0) + 1
                    next_free[window] = i + length
    return [
        Candidate(tuple(Transfer(*k) for k in w) if mode is Mode.PAIR else w, c)
        for w, c in sorted(counts.items(), key=lambda kv: (len(kv[0]), kv[0]))
    ]


@st.composite
def periodic_trace(draw, transfer):
    """A block of 1-12 transfers repeated, with at most one changed: its
    windows have borders as long as a sensor loop's."""
    trace = draw(st.lists(transfer, min_size=1, max_size=12)) * draw(st.integers(1, 8))
    if draw(st.booleans()):
        trace[draw(st.integers(0, len(trace) - 1))] = draw(transfer)
    return trace


@st.composite
def mining_inputs(draw):
    """0-3 raw logs over a 1-4 address alphabet (so windows repeat) and a
    length range from lo = 1: either i.i.d. draws with hi up to past the
    longest log, or periodic logs with hi up to 16."""
    config = draw(st.sampled_from([PAIR16, DEST16]))
    alphabet = [0x0400 + 0x10 * k for k in range(draw(st.integers(1, 4)))]
    addr = st.sampled_from(alphabet)
    transfer = st.builds(Transfer, addr, addr)
    periodic = draw(st.booleans())
    log = periodic_trace(transfer) if periodic else st.lists(transfer, max_size=40)
    traces = draw(st.lists(log, max_size=3))
    if config.mode is Mode.DEST:
        traces = [[Transfer(None, t.dest) for t in trace] for trace in traces]
    lo = draw(st.integers(1, 5))
    hi = draw(st.integers(lo, 16 if periodic else 45))
    return [encode_raw(t, config) for t in traces], (lo, hi), config.mode


class TestMiningParity:
    @settings(max_examples=300, deadline=None)
    @given(mining_inputs())
    def test_equals_reference(self, case):
        logs, len_range, mode = case
        got = enumerate_candidates(logs, len_range, mode=mode)
        assert got == _reference_enumerate(logs, len_range, mode)
        copies = [Log(log.elements, log.size_bytes) for log in logs]  # element logs
        assert enumerate_candidates(copies, len_range, mode=mode) == got
        entry_type = Transfer if mode is Mode.PAIR else int
        assert all(type(e) is entry_type for c in got for e in c.entries)

    @pytest.mark.parametrize("cfg, profile, len_range, n, digest", [
        (sensor_cfg, sensor_profile, SENSOR_LEN_RANGE, 175,
         "34bda30b69c49474743755354fe74afae759100d5c24af1727fd2966b38b7544"),
        (branchy_cfg, branchy_profile, BRANCHY_LEN_RANGE, 2531,
         "50c2cba8a90f1838b4c0ce991ae7bc706d699301abf9dd81d6af8c606b54a7bd"),
    ])
    def test_fixture_priors_pinned(self, cfg, profile, len_range, n, digest):
        log = encode_raw(generate_trace(cfg(), profile()), PAIR16)
        got = enumerate_candidates([log], len_range, mode=Mode.PAIR)
        assert len(got) == n
        pairs = repr([(c.entries, c.count) for c in got]).encode()
        assert hashlib.sha256(pairs).hexdigest() == digest

    def test_mode_mismatch(self):
        pair_log = encode_raw([Transfer(0x0400, 0x0500)], PAIR16)
        with pytest.raises(ModeMismatch, match="pair elements in dest-mode"):
            enumerate_candidates([pair_log], (1, 2), mode=Mode.DEST)
        with pytest.raises(ModeMismatch, match="dest elements in pair-mode"):
            enumerate_candidates([dest_log("AB")], (1, 2), mode=Mode.PAIR)

    def test_compressed_elements_rejected(self):
        for config, raw in ((PAIR16, RawPair(0x0400, 0x0500)), (DEST16, RawDest(0x0400))):
            log = make_log([raw, Symbol(1)], config)
            with pytest.raises(ValueError, match="must be raw"):
                enumerate_candidates([log], (1, 2), mode=config.mode)

    @pytest.mark.parametrize("config", [PAIR16, DEST16])
    def test_word_logs_raise_as_element_logs(self, config):
        # a log the engine made is keyed on its words; it gives what the
        # same elements give in a hand-built log, errors included
        trace = [Transfer(0x0400, 0x0500), Transfer(0x0500, 0x0400)] * 3
        keys = trace if config.mode is Mode.PAIR else [t.dest for t in trace]
        spec = SubPathSpec(1, keys[1:3])
        other = DEST16 if config is PAIR16 else PAIR16
        raw_first = compress_trace(trace, [spec], config)
        symbol_first = compress_trace(trace[1:], [spec], config)
        assert type(raw_first.elements[1]) is type(symbol_first.elements[0]) is Symbol
        cases = [  # log, the config asked for, the outcome
            (encode_raw(trace, config), config, "ok"),
            (encode_raw([], config), other, "ok"),
            (encode_raw(trace, config), other, ModeMismatch),
            (raw_first, config, ValueError),
            (raw_first, other, ModeMismatch),
            (symbol_first, other, ValueError),
        ]

        def outcome(fn, log):
            try:
                return "ok", fn(log)
            except (ModeMismatch, ValueError) as e:
                return type(e), str(e)

        for log, asked, want in cases:
            probe = SubPathSpec(1, (Transfer(0x0400, 0x0500),)
                                if asked.mode is Mode.PAIR else (0x0400,))
            for fn in (lambda x: enumerate_candidates([x], (1, 2), mode=asked.mode),
                       lambda x: estimate_savings(probe, [x], asked)):
                got = outcome(fn, log)
                assert got == outcome(fn, Log(log.elements, log.size_bytes))
                assert got[0] == want


class TestKeysMemo:
    """``_raw_keys`` remembers the last log it keyed, so a select keys its
    prior once for mining and every chosen spec's estimate."""

    @pytest.fixture
    def built(self, monkeypatch):
        logs = []
        build = selection._build_raw_keys

        def counting(log, mode):
            logs.append(log)
            return build(log, mode)

        monkeypatch.setattr(selection, "_build_raw_keys", counting)
        return logs

    @pytest.mark.parametrize("config", [PAIR16, DEST16])
    def test_prior_keyed_once(self, built, config):
        trace = generate_trace(branchy_cfg(), branchy_profile())
        if config.mode is Mode.DEST:
            trace = [Transfer(None, t.dest) for t in trace]
        log = encode_raw(trace, config)
        mined = enumerate_candidates([log], BRANCHY_LEN_RANGE, mode=config.mode)
        specs = policy_top(mined, 4)
        savings = [estimate_savings(s, [log], config) for s in specs]
        assert len(built) == 1 and built[0] is log
        assert savings == [oracle_savings(s, [log], config) for s in specs]
        # an equal log that is another object is keyed afresh
        again = encode_raw(trace, config)
        assert estimate_savings(specs[0], [again], config) == savings[0]
        assert len(built) == 2 and built[1] is again

    def test_other_mode_still_raises(self, built):
        log = encode_raw([Transfer(0x0400, 0x0500), Transfer(0x0500, 0x0400)] * 2, PAIR16)
        assert enumerate_candidates([log], (1, 2), mode=Mode.PAIR)
        for _ in range(2):
            with pytest.raises(ModeMismatch, match="pair elements in dest-mode"):
                enumerate_candidates([log], (1, 2), mode=Mode.DEST)
            with pytest.raises(ModeMismatch, match="pair elements in dest-mode"):
                estimate_savings(SubPathSpec(1, (0x0500,)), [log], DEST16)
        # failures are not remembered, and the pair-mode keys still are
        assert len(built) == 5
        estimate_savings(SubPathSpec(1, (Transfer(0x0400, 0x0500),)), [log], PAIR16)
        assert len(built) == 5


def cand(letters, count):
    return Candidate(tuple(addr(c) for c in letters), count)


def brute_force_top(candidates, n_paths):
    """Lexicographically best valid subset under the policy's total order."""
    order = sorted(candidates, key=lambda c: (-c.count, c.length, c.entries))
    rank = {id(c): i for i, c in enumerate(order)}

    def nested(a, b):
        small, big = (a, b) if len(a) <= len(b) else (b, a)
        k = len(small)
        return any(big[i : i + k] == small for i in range(len(big) - k + 1))

    best = None
    for size in range(0, min(n_paths, len(order)) + 1):
        for combo in itertools.combinations(order, size):
            if any(nested(a.entries, b.entries) for a, b in itertools.combinations(combo, 2)):
                continue
            key = tuple(sorted(rank[id(c)] for c in combo))
            key += (float("inf"),) * (n_paths - len(key))
            if best is None or key < best[0]:
                best = (key, combo)
    return [c.entries for c in sorted(best[1], key=lambda c: rank[id(c)])]


class TestTop:
    def test_direct_argmax(self):
        cands = [cand("AB", 10), cand("CD", 7), cand("EF", 3)]
        specs = policy_top(cands, 2)
        assert [s.entries for s in specs] == [cands[0].entries, cands[1].entries]
        assert [s.id for s in specs] == [1, 2]

    def test_nested_skipped(self):
        big = cand("ABC", 10)
        nested = cand("AB", 7)
        other = cand("DE", 3)
        specs = policy_top([big, nested, other], 2)
        assert [s.entries for s in specs] == [big.entries, other.entries]

    def test_n_larger_than_pool(self):
        cands = [cand("AB", 2)]
        assert len(policy_top(cands, 8)) == 1

    def test_repeated_candidates(self):
        # equal sort keys fall back to input position, never to Candidate
        pool = [cand("AB", 5), cand("CD", 5), cand("AB", 5)]
        assert [s.entries for s in policy_top(pool, 3)] == [pool[0].entries, pool[1].entries]

    def test_matches_brute_force_exhaustive_small(self):
        universe = [cand("AB", 5), cand("ABC", 5), cand("BC", 4), cand("CD", 4), cand("ABCD", 6)]
        for r in range(len(universe) + 1):
            for pool in itertools.combinations(universe, r):
                for n in (1, 2, 3):
                    got = [s.entries for s in policy_top(list(pool), n)]
                    assert got == brute_force_top(list(pool), n)

    def test_matches_brute_force_random_sets(self):
        rng = random.Random(17)
        letters = "ABCDE"
        for _ in range(120):
            pool = []
            seen = set()
            for _ in range(rng.randint(0, 12)):
                k = rng.randint(1, 4)
                s = "".join(rng.choice(letters) for _ in range(k))
                if s in seen:
                    continue
                seen.add(s)
                pool.append(cand(s, rng.randint(0, 9)))
            n = rng.randint(1, 4)
            got = [s.entries for s in policy_top(pool, n)]
            assert got == brute_force_top(pool, n)


class TestMinimize:
    def test_same_length_equals_top(self):
        cands = [cand("AB", 9), cand("BC", 7), cand("CD", 5), cand("DE", 3)]
        for n in (1, 2, 3):
            top = [s.entries for s in policy_top(cands, n)]
            mini = [s.entries for s in policy_minimize(cands, n, 100.0)]
            assert sorted(top) == sorted(mini)

    def test_replacement_rule_t100(self):
        seed_member = cand("AB", 10)
        longer = cand("CDEF", 25)
        specs = policy_minimize([seed_member, longer], 1, 100.0)
        assert specs[0].entries == longer.entries  # 25 > 20

    def test_replacement_rule_t200(self):
        seed_member = cand("AB", 10)
        longer = cand("CDEF", 25)
        specs = policy_minimize([seed_member, longer], 1, 200.0)
        assert specs[0].entries == seed_member.entries  # 25 <= 30

    def test_t_to_infinity_keeps_seed(self):
        cands = [cand("AB", 1), cand("CDEF", 1000)]
        specs = policy_minimize(cands, 1, 1e12)
        assert specs[0].entries == cand("AB", 1).entries

    def test_tiny_t_degenerates_toward_top(self):
        cands = [cand("AB", 10), cand("CDE", 11), cand("FG", 2)]
        specs = policy_minimize(cands, 1, 1e-9)
        assert specs[0].entries == cand("CDE", 11).entries

    def test_seed_prefers_smallest_lengths(self):
        cands = [cand("ABCD", 100), cand("EF", 1), cand("GH", 2)]
        specs = policy_minimize(cands, 2, 1e12)
        assert {s.entries for s in specs} == {cand("EF", 1).entries, cand("GH", 2).entries}


class TestSelect:
    def test_budget_exactly_one_block(self):
        cands = [cand("ABCD", 9), cand("EF", 5)]
        budget = blockmem_block_bytes(4, DEST16)
        specs = policy_select(cands, budget, DEST16)
        assert [s.entries for s in specs] == [cands[0].entries]

    def test_scan_continues_past_oversized(self):
        cands = [cand("ABCDEFG", 9), cand("AB", 5), cand("CD", 4)]
        budget = blockmem_block_bytes(2, DEST16) * 2
        specs = policy_select(cands, budget, DEST16)
        assert [s.entries for s in specs] == [cands[1].entries, cands[2].entries]

    def test_budget_zero(self):
        assert policy_select([cand("AB", 5)], 0, DEST16) == []

    def test_never_exceeds_budget_200_random(self):
        rng = random.Random(23)
        letters = "ABCDEF"
        for _ in range(200):
            pool = []
            seen = set()
            for _ in range(rng.randint(0, 15)):
                k = rng.randint(1, 6)
                s = "".join(rng.choice(letters) for _ in range(k))
                if s not in seen:
                    seen.add(s)
                    pool.append(cand(s, rng.randint(0, 50)))
            budget = rng.randint(0, 80)
            specs = policy_select(pool, budget, DEST16)
            if specs:
                assert blockmem_bytes(specs, DEST16) <= budget


class TestStatic:
    def test_demo_ranking(self):
        ranked = static_candidates(static_demo_cfg())
        assert ranked, "demo CFG must yield candidates"
        top = ranked[0]
        assert top.static_priority == 1
        # classes never regress along the ranking
        priorities = [c.static_priority or 4 for c in ranked]
        assert priorities == sorted(priorities)

    def test_excluded_functions_contribute_nothing(self):
        cfg = static_demo_cfg()
        ranked = static_candidates(cfg)
        dead_addrs = {b.start for b in cfg.function_blocks("dead")}
        dead_addrs |= {b.end for b in cfg.function_blocks("dead")}
        leaf_addrs = {b.start for b in cfg.function_blocks("leaf")}
        leaf_addrs |= {b.end for b in cfg.function_blocks("leaf")}
        for c in ranked:
            for t in c.entries:
                assert t.src not in dead_addrs and t.dest not in dead_addrs
                assert t.src not in leaf_addrs and t.dest not in leaf_addrs

    def test_loop_path_outranks_equal_length_branchy_path(self):
        ranked = static_candidates(static_demo_cfg())
        first_p2 = next(i for i, c in enumerate(ranked) if c.static_priority == 2)
        assert ranked[0].static_priority == 1
        assert first_p2 > 0

    def test_select_static_shorter_first(self):
        a = Candidate((Transfer(0x0400, 0x0500),), 0, static_priority=1)
        b = Candidate((Transfer(0x0600, 0x0700), Transfer(0x0700, 0x0400)), 0, static_priority=1)
        specs = select_static(rank_static_like([b, a]), 2, 10_000, PAIR16)
        assert specs[0].entries == a.entries

    def test_select_static_skips_overlap(self):
        shared = Transfer(0x0400, 0x0500)
        a = Candidate((shared,), 0, static_priority=1)
        b = Candidate((shared, Transfer(0x0500, 0x0600)), 0, static_priority=1)
        c = Candidate((Transfer(0x0600, 0x0700),), 0, static_priority=2)
        specs = select_static([a, b, c], 3, 10_000, PAIR16)
        assert [s.entries for s in specs] == [a.entries, c.entries]

    def test_select_static_budget_prefix(self):
        cands = [
            Candidate((Transfer(0x0400 + i, 0x0500 + i),), 0, static_priority=1)
            for i in range(5)
        ]
        budget = blockmem_block_bytes(1, PAIR16) * 2
        specs = select_static(cands, 8, budget, PAIR16)
        assert len(specs) == 2


def rank_static_like(cands):
    return sorted(cands, key=lambda c: (c.static_priority or 4, c.length, c.entries))


class TestEstimateSavings:
    def test_never_occurring_is_negative(self):
        spec = SubPathSpec(1, (Transfer(0x0400, 0x0500),))
        log = encode_raw([Transfer(0x0600, 0x0700)] * 5, PAIR16)
        assert estimate_savings(spec, [log], PAIR16) == -blockmem_block_bytes(1, PAIR16)

    def test_len4_spec_100_consecutive(self):
        entries = tuple(Transfer(0x0400 + i, 0x0500 + i) for i in range(4))
        spec = SubPathSpec(1, entries)
        trace = [Transfer(e.src, e.dest) for e in entries] * 100
        log = encode_raw(trace, PAIR16)
        # 1600 raw bytes collapse to [symbol, count] = 4 bytes; the block
        # costs (1 + 8) words = 18 bytes
        assert estimate_savings(spec, [log], PAIR16) == 1600 - 4 - 18 == 1578

    def test_empty_log(self):
        spec = SubPathSpec(1, (Transfer(0x0400, 0x0500),))
        log = encode_raw([], PAIR16)
        assert estimate_savings(spec, [log], PAIR16) == -blockmem_block_bytes(1, PAIR16)

    def test_dest_spec_over_pair_log_rejected(self):
        # 20 pair elements are 80 bytes; read as dest elements they would
        # be 40, so a silent dest-mode estimate counts 40 bytes too many
        trace = [Transfer(0x0400, 0x0500), Transfer(0x0500, 0x0600)] * 10
        spec = SubPathSpec(1, (0x0500, 0x0600))
        assert estimate_savings(spec, [encode_raw(trace, DEST16)], DEST16) == 30
        with pytest.raises(ModeMismatch, match="pair elements in dest-mode"):
            estimate_savings(spec, [encode_raw(trace, PAIR16)], DEST16)

    def test_pair_spec_over_dest_log_rejected(self):
        spec = SubPathSpec(1, (Transfer(0x0400, 0x0500),))
        with pytest.raises(ModeMismatch, match="dest elements in pair-mode"):
            estimate_savings(spec, [dest_log("ABAB")], PAIR16)

    def test_compressed_elements_rejected(self):
        spec = SubPathSpec(1, (Transfer(0x0400, 0x0500),))
        log = make_log([RawPair(0x0400, 0x0500), Symbol(1)], PAIR16)
        with pytest.raises(ValueError, match="must be raw"):
            estimate_savings(spec, [log], PAIR16)


def oracle_savings(spec, logs, config):
    """``estimate_savings`` as computed before it ran on the engine."""
    saved = sum(
        log.size_bytes - oracle_compress(log.elements, [spec], config).size_bytes
        for log in logs
    )
    return saved - blockmem_block_bytes(spec.length, config)


class TestSavingsParity:
    @pytest.mark.parametrize("cfg, profile, len_range", [
        (sensor_cfg, sensor_profile, SENSOR_LEN_RANGE),
        (branchy_cfg, branchy_profile, BRANCHY_LEN_RANGE),
    ])
    def test_fixture_priors_top_specs(self, cfg, profile, len_range):
        logs = [encode_raw(generate_trace(cfg(), profile()), PAIR16)]
        specs = policy_top(enumerate_candidates(logs, len_range, mode=Mode.PAIR), 8)
        assert len(specs) == 8
        for spec in specs:
            assert estimate_savings(spec, logs, PAIR16) == oracle_savings(spec, logs, PAIR16)

    @pytest.mark.parametrize("retry", [False, True])
    @pytest.mark.parametrize("base", CONFIG_GRID, ids=lambda c: f"{c.mode.value}{c.addr_width}")
    def test_config_grid(self, base, retry):
        config = dataclasses.replace(base, retry_on_mismatch=retry)
        rng = random.Random(2 * CONFIG_GRID.index(base) + retry)
        for _ in range(15):
            traces = [random_trace(rng, config, rng.randint(0, 120)) for _ in range(3)]
            if config.mode is Mode.DEST:
                traces = [[Transfer(None, t.dest) for t in trace] for trace in traces]
            logs = [encode_raw(t, config) for t in traces]
            for n_logs in (1, 3):  # one log, then a multi-log input
                for spec in random_specs(rng, config, traces[0], max_len=6):
                    assert estimate_savings(spec, logs[:n_logs], config) == oracle_savings(
                        spec, logs[:n_logs], config
                    )


class TestChoose:
    """``choose`` is the one dispatch point; it must pick exactly what the
    direct policy calls pick, capped to ``n_paths``."""

    @pytest.fixture(scope="class")
    def mined(self):
        log = encode_raw(generate_trace(branchy_cfg(), branchy_profile()), PAIR16)
        return enumerate_candidates([log], BRANCHY_LEN_RANGE, mode=Mode.PAIR)

    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_parity_with_direct_calls(self, mined, n):
        ranked = static_candidates(static_demo_cfg())
        assert choose("top", mined, n, 256, 100.0, PAIR16) == policy_top(mined, n)
        assert choose("minimize", mined, n, 256, 50.0, PAIR16) == policy_minimize(mined, n, 50.0)
        assert choose("static", ranked, n, 256, 100.0, PAIR16) == select_static(
            ranked, n, 256, PAIR16
        )
        # select is budget-bound: the cap keeps the highest-ranked prefix
        uncapped = policy_select(mined, 256, PAIR16)
        assert len(uncapped) > n
        assert choose("select", mined, n, 256, 100.0, PAIR16) == uncapped[:n]

    def test_sweep_budget_per_count(self, mined):
        for n in range(1, 9):
            direct = policy_select(mined, n * 48, PAIR16)[:n]
            assert choose("select", mined, n, n * 48, 100.0, PAIR16) == direct

    def test_unknown_policy(self, mined):
        with pytest.raises(ValueError, match="unknown policy"):
            choose("best", mined, 8, 256, 100.0, PAIR16)


@pytest.mark.parametrize("len_range", [(0, 4), (-1, 2), (5, 4)])
def test_enumerate_rejects_bad_len_range(len_range):
    with pytest.raises(ValueError, match="bad len_range"):
        enumerate_candidates([dest_log("ABAB")], len_range, mode=Mode.DEST)
