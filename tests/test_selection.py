import copy
import dataclasses
import gc
import hashlib
import itertools
import pickle
import random
from heapq import heapify, heappop

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfaudit import cfg as cfg_module
from cfaudit import selection
from cfaudit.cfg import build_cfg, find_loops, segment_cfg
from cfaudit.codec import blockmem_block_bytes, encode_raw, write_spec_document
from cfaudit.errors import (
    AddressOutOfRange,
    ConfigMismatch,
    EncodingOverlap,
    MalformedCFG,
    ModeMismatch,
    PathExplosion,
)
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
    MAX_REPEAT_COUNT,
    EngineConfig,
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

from conftest import (
    CONFIG_GRID,
    address_pool,
    blockmem_bytes,
    random_cfgs,
    random_specs,
    random_trace,
)
from test_cfg import dead_diamonds_document, long_path_document, looped_diamonds_document

PAIR16 = EngineConfig()
PAIR32 = EngineConfig(addr_width=32)
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
        entry_type = Transfer if mode is Mode.PAIR else int
        assert all(type(e) is entry_type for c in got for e in c.entries)

    @pytest.mark.parametrize("cfg, profile, len_range, config, n, digest", [
        (sensor_cfg, sensor_profile, SENSOR_LEN_RANGE, PAIR16, 175,
         "34bda30b69c49474743755354fe74afae759100d5c24af1727fd2966b38b7544"),
        (branchy_cfg, branchy_profile, BRANCHY_LEN_RANGE, PAIR16, 2531,
         "50c2cba8a90f1838b4c0ce991ae7bc706d699301abf9dd81d6af8c606b54a7bd"),
        (sensor_cfg, sensor_profile, SENSOR_LEN_RANGE, DEST16, 168,
         "bed13083afcd4659231d416c1bfd24d82f86b70c0a8509c0523457e5e5200774"),
        (branchy_cfg, branchy_profile, BRANCHY_LEN_RANGE, DEST16, 2042,
         "f592c34d57eef9dd6f70d260cabccd3c023d5aa345fd58255dd6b705edd239c7"),
    ])
    def test_fixture_priors_pinned(self, cfg, profile, len_range, config, n, digest):
        log = encode_raw(generate_trace(cfg(), profile()), config)
        got = enumerate_candidates([log], len_range, mode=config.mode)
        assert len(got) == n
        pairs = repr([(c.entries, c.count) for c in got]).encode()
        assert hashlib.sha256(pairs).hexdigest() == digest

    @settings(max_examples=200, deadline=None)
    @given(mining_inputs(), st.integers(1, 8))
    def test_top_takes_only_the_shortest_length(self, case, n_paths):
        # a longer window's prefix of length lo counts at least as often and
        # sorts first, so top never reaches a longer candidate
        logs, (lo, hi), mode = case
        specs = policy_top(enumerate_candidates(logs, (lo, hi), mode=mode), n_paths)
        assert all(s.length == lo for s in specs)

    @pytest.mark.parametrize("n_keys", [300, 0xD800 + 300])
    def test_wide_key_alphabets(self, n_keys):
        # keys past 255 need wide characters, past 0xD800 surrogate code
        # points; a repeated run of keys has borders
        keys = [Transfer(0x0400 + i // 200, 0x0400 + i % 200) for i in range(n_keys)]
        trace = keys[-40:] * 3 + keys + keys[:5] * 4
        log = encode_raw(trace, PAIR16)
        got = enumerate_candidates([log], (1, 3), mode=Mode.PAIR)
        assert got == _reference_enumerate([log], (1, 3), Mode.PAIR)
        # a plain tuple of the same fields would compare equal too
        assert all(type(c) is Candidate for c in got)

    def test_more_keys_than_characters_raise(self, monkeypatch):
        # each key is one character, so the alphabet bounds the keys
        monkeypatch.setattr(selection, "sys", type("Sys", (), {"maxunicode": 2}))
        log = encode_raw([Transfer(0x0400 + i, 0x0500) for i in range(3)], PAIR16)
        with pytest.raises(ValueError, match="3 distinct keys"):
            enumerate_candidates([log], (1, 2), mode=Mode.PAIR)

    def test_candidate_is_a_tuple_of_its_fields(self):
        c = Candidate((0x0400, 0x0410), 3)
        assert c == ((0x0400, 0x0410), 3, None) and c.length == 2

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
        # a log is keyed on its words: a log of the other mode raises
        # ModeMismatch whatever its words, and a compressed one ValueError
        trace = [Transfer(0x0400, 0x0500), Transfer(0x0500, 0x0400)] * 3
        keys = trace if config.mode is Mode.PAIR else [t.dest for t in trace]
        spec = SubPathSpec(1, keys[1:3])
        other = DEST16 if config is PAIR16 else PAIR16
        raw_first = compress_trace(trace, [spec], config)
        symbol_first = compress_trace(trace[1:], [spec], config)
        assert type(raw_first.elements[1]) is type(symbol_first.elements[0]) is Symbol
        cases = [  # log, the config asked for, the outcome
            (encode_raw(trace, config), config, "ok"),
            (encode_raw([], config), other, ModeMismatch),
            (encode_raw(trace, config), other, ModeMismatch),
            (raw_first, config, ValueError),
            (raw_first, other, ModeMismatch),
            (symbol_first, config, ValueError),
            (symbol_first, other, ModeMismatch),
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
                assert outcome(fn, log)[0] == want


def keys_cached(monkeypatch):
    """The logs ``selection`` caches keys on, in order, one entry per
    keying."""
    logs = []
    set_keys = selection._set_keys

    def counting(log, keys):
        logs.append(log)
        set_keys(log, keys)

    monkeypatch.setattr(selection, "_set_keys", counting)
    return logs


def decoded(codes):
    """Pair-mode keys, ``src << 32 | dest`` codes, back as ``(src, dest)``."""
    return tuple((k >> 32, k & 0xFFFFFFFF) for k in codes)


def held_by_selection(obj):
    """The objects that hold ``obj`` and are ``selection``'s globals or
    sit in them, directly or in a container."""
    module = vars(selection)
    return [r for r in gc.get_referrers(obj)
            if r is module or any(h is module for h in gc.get_referrers(r))]


class TestKeysMemo:
    """``_raw_keys`` caches a log's keys on the log, so a select keys its
    prior once for mining and every chosen spec's estimate."""

    @pytest.fixture
    def built(self, monkeypatch):
        return keys_cached(monkeypatch)

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
        # failures key nothing, and the pair-mode keys are still cached
        assert built == [log]
        keys = log._keys
        estimate_savings(SubPathSpec(1, (Transfer(0x0400, 0x0500),)), [log], PAIR16)
        assert built == [log] and log._keys is keys

    def test_memo_dies_with_log(self):
        # the keys live on the log, and nothing in selection holds either
        prior = encode_raw(generate_trace(sensor_cfg(), sensor_profile()), PAIR16)
        mined = enumerate_candidates([prior], SENSOR_LEN_RANGE, mode=Mode.PAIR)
        for spec in policy_top(mined, 2):
            estimate_savings(spec, [prior], PAIR16)
        keys = prior._keys
        assert decoded(keys) == tuple(prior.elements)
        assert held_by_selection(prior) == []
        assert held_by_selection(keys) == []
        # a copy or a pickle carries no keys, and the keys leave equality alone
        for other in (copy.copy(prior), pickle.loads(pickle.dumps(prior))):
            assert other._keys is None
            assert other == prior and hash(other) == hash(prior)


class TestKeysMemoPerLog:
    """Each log carries its own keys, not just the last log keyed."""

    def test_two_prior_select_keys_each_once(self, monkeypatch):
        built = keys_cached(monkeypatch)
        priors = [
            encode_raw(generate_trace(cfg(), profile()), PAIR16)
            for cfg, profile in ((sensor_cfg, sensor_profile), (branchy_cfg, branchy_profile))
        ]
        mined = enumerate_candidates(priors, SENSOR_LEN_RANGE, mode=Mode.PAIR)
        specs = policy_top(mined, 8)
        assert len(specs) == 8
        savings = [estimate_savings(s, priors, PAIR16) for s in specs]
        assert [id(log) for log in built] == [id(log) for log in priors]
        assert savings == [oracle_savings(s, priors, PAIR16) for s in specs]
        assert [decoded(log._keys) for log in priors] == [tuple(log.elements) for log in priors]
        for log in priors:
            assert held_by_selection(log) == []


class TestPairCodes:
    """Pair-mode keys are ``src << 32 | dest`` codes at either width, and
    mined entries are ``Transfer``s over the prior's own word objects."""

    @staticmethod
    def fresh_trace(rng, pool, n):
        # each address a fresh int object, so ``is`` tells whose word it is
        return [Transfer(rng.choice(pool) + 0, rng.choice(pool) + 0) for _ in range(n)]

    @staticmethod
    def assert_own_words(mined, logs):
        words = {id(w) for log in logs for w in log.words}
        for c in mined:
            for e in c.entries:
                assert type(e) is Transfer and id(e.src) in words and id(e.dest) in words

    @staticmethod
    def check_savings(mined, logs, config, rng):
        specs = policy_top(mined, 8)
        specs += random_specs(rng, config, logs[0].elements, max_len=6)
        for spec in specs:
            assert estimate_savings(spec, logs, config) == oracle_savings(spec, logs, config)

    @pytest.mark.parametrize("seed", range(4))
    def test_32_bit_addresses_past_16_bits(self, seed):
        rng = random.Random(seed)
        pool = [0x0400, 0xFFFF, 0x10000, 0x7FFFFFFF] + address_pool(PAIR32, 3, rng)
        assert all(a < PAIR32.counter_tag for a in pool)
        logs = [encode_raw(self.fresh_trace(rng, pool, rng.randint(0, 90)), PAIR32)
                for _ in range(rng.randint(1, 3))]
        mined = enumerate_candidates(logs, (1, 6), mode=Mode.PAIR)
        assert mined == _reference_enumerate(logs, (1, 6), Mode.PAIR)
        assert any(e.src > 0xFFFF or e.dest > 0xFFFF for c in mined for e in c.entries)
        self.assert_own_words(mined, logs)
        self.check_savings(mined, logs, PAIR32, rng)

    @pytest.mark.parametrize("seed", range(4))
    def test_16_and_32_bit_priors_mined_together(self, seed):
        rng = random.Random(seed)
        shared = [0x0400, 0x0410, 0x7FFF]  # addresses both widths hold
        narrow = self.fresh_trace(rng, shared + [0x1234], 60)
        wide = self.fresh_trace(rng, shared + [0x8000, 0x12345678], 60)
        logs = [encode_raw(narrow, PAIR16), encode_raw(wide, PAIR32)]
        mined = enumerate_candidates(logs, (1, 5), mode=Mode.PAIR)
        assert mined == _reference_enumerate(logs, (1, 5), Mode.PAIR)
        self.assert_own_words(mined, logs)
        for log, config in zip(logs, (PAIR16, PAIR32)):
            self.check_savings(enumerate_candidates([log], (1, 5), mode=Mode.PAIR),
                               [log], config, rng)

    @pytest.mark.parametrize("cfg, profile, len_range", [
        (sensor_cfg, sensor_profile, SENSOR_LEN_RANGE),
        (branchy_cfg, branchy_profile, BRANCHY_LEN_RANGE),
    ])
    def test_fixture_entries_are_the_prior_words(self, cfg, profile, len_range):
        log = encode_raw(generate_trace(cfg(), profile()), PAIR16)
        mined = enumerate_candidates([log], len_range, mode=Mode.PAIR)
        self.assert_own_words(mined, [log])


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


def heap_top(candidates, n_paths):
    """``policy_top`` as it popped a heap of the whole pool."""
    def nested(a, b):
        small, big = (a, b) if len(a) <= len(b) else (b, a)
        k = len(small)
        return any(big[i : i + k] == small for i in range(len(big) - k + 1))

    heap = [(-c.count, len(c.entries), c.entries, i, c) for i, c in enumerate(candidates)]
    heapify(heap)
    selected = []
    while heap and len(selected) < n_paths:
        c = heappop(heap)[-1]
        if not any(nested(c.entries, s.entries) for s in selected):
            selected.append(c)
    return selected


@st.composite
def top_pools(draw):
    """Candidate pools: a mined pool, shuffled, or a random one whose few
    counts make large equal-count groups over nested, repeated entries."""
    if draw(st.booleans()):
        logs, len_range, mode = draw(mining_inputs())
        return draw(st.permutations(enumerate_candidates(logs, len_range, mode=mode)))
    letters = st.text("ABC", min_size=1, max_size=4)
    counts = st.integers(0, 2)
    return [cand(w, n) for w, n in draw(st.lists(st.tuples(letters, counts), max_size=40))]


class TestTopOrder:
    @settings(max_examples=300, deadline=None)
    @given(top_pools(), st.integers(0, 9), st.booleans())
    def test_equals_heap_top(self, pool, n_paths, as_generator):
        want = [s.entries for s in heap_top(pool, n_paths)]
        given_pool = (c for c in pool) if as_generator else pool
        specs = policy_top(given_pool, n_paths)
        assert [s.entries for s in specs] == want
        assert [s.id for s in specs] == list(range(1, len(want) + 1))


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

    def test_select_static_skips_paths_too_long_for_a_spec(self):
        ranked = static_candidates(build_cfg(long_path_document()))
        assert {c.length for c in ranked} == {300, 2}
        assert ranked[0].length == 300  # the long paths rank first
        specs = select_static(ranked, 8, 100_000, PAIR16)
        assert len(specs) == 2 and all(s.length == 2 for s in specs)
        long = Candidate(tuple(Transfer(0x0400 + i, 0x0401 + i) for i in range(256)), 0)
        short = Candidate((Transfer(0x0600, 0x0700),), 0)
        assert [s.entries for s in select_static([long, short], 8, 100_000, PAIR16)] == [
            short.entries
        ]

    @pytest.mark.parametrize("cfg, n, ranked_digest, specs_digest", [
        (static_demo_cfg, 5,
         "facc4c7df42a2893a17a75c59b013b024aaf8669e3988bad025ff455ee436de1",
         "3e0b4205bc7df947e2aa7d361d27d24d7cfe663fc8ec5842c9b845fa0fd22f29"),
        (sensor_cfg, 1,
         "6dcb5637676cb8cad5b118e4a099f79ae138aa5c01a41d96cb6e7f8799e35898",
         "797393256b61682276dfe0174342f691980c3035fc8f8c05a71bd9ee64cd6bcb"),
        (branchy_cfg, 16,
         "5879445e60084fa6bba7aef52d4720cb7e5d6287524f7f393a4ae73f539ab2b3",
         "0f755acee9553ca1d8ae88fc89618ab629514d3b3d0e8bd064fbfa854d1410c7"),
        (lambda: build_cfg(long_path_document()), 4,
         "4863484b5867a249ab4c2742f5d4b6d86a94f5ed179b7795774d52939ed6d3d5",
         "afa87d328e07f91cede17bf1fe2f170240c5ff86c2d47d7c1f641a59c5ec50b1"),
    ], ids=["static_demo", "sensor", "branchy", "long_path"])
    def test_static_output_pinned(self, cfg, n, ranked_digest, specs_digest):
        """The ranked candidates, and the spec documents ``choose`` writes
        from them for 1..8 specs under four budgets, pinned by sha256."""
        ranked = static_candidates(cfg())
        assert len(ranked) == n
        pairs = repr([(c.entries, c.static_priority) for c in ranked]).encode()
        assert hashlib.sha256(pairs).hexdigest() == ranked_digest
        documents = "".join(
            write_spec_document(choose("static", ranked, k, budget, 100.0, PAIR16), Mode.PAIR)
            for k in range(1, 9)
            for budget in (16, 64, 256, 100_000)
        )
        assert hashlib.sha256(documents.encode()).hexdigest() == specs_digest

    @settings(max_examples=300, deadline=None)
    @given(random_cfgs())
    def test_candidates_are_edge_chains_inside_one_segment(self, cfg):
        try:
            ranked = static_candidates(cfg)
        except MalformedCFG:  # a cycle no back edge cuts
            return
        loops = find_loops(cfg)
        segment_of = {
            (e.src, e.dest): seg.id for seg in segment_cfg(cfg, loops) for e in seg.edges
        }
        block_at_end = {b.end: b.id for b in cfg.blocks.values()}
        block_at_start = {b.start: b.id for b in cfg.blocks.values()}
        for c in ranked:
            blocks = [block_at_end[c.entries[0].src]] + [block_at_start[t.dest] for t in c.entries]
            assert [block_at_end[t.src] for t in c.entries] == blocks[:-1]
            assert len({segment_of[step] for step in zip(blocks, blocks[1:])}) == 1
            assert len({cfg.blocks[b].function for b in blocks}) == 1
            assert len({loops.membership[b] for b in blocks}) == 1

    def test_path_cap_is_per_segment(self):
        # a loop segment of 2**13 paths exits into a segment of 2**11 paths
        ranked = static_candidates(build_cfg(looped_diamonds_document()))
        assert len(ranked) == 2**13 + 2**11
        assert [c.static_priority for c in ranked].count(1) == 2**13
        with pytest.raises(PathExplosion, match="has 16384 paths, cap 10000"):
            static_candidates(build_cfg(looped_diamonds_document(loop=14, exit=1)))

    @pytest.mark.parametrize("dead", [2, 14])
    def test_uncalled_function_is_neither_enumerated_nor_hot(self, dead):
        # ``dead`` has the most branching blocks, and at 14 diamonds more
        # paths than the cap, but nothing calls it: it is not enumerated,
        # and ``main`` is the max-branching function of class 2
        cfg = build_cfg(dead_diamonds_document(dead))
        b = cfg.blocks
        assert [(c.entries, c.static_priority) for c in static_candidates(cfg)] == [
            ((Transfer(b["a"].end, b[arm].start), Transfer(b[arm].end, b["j"].start)), 2)
            for arm in "tf"
        ]

    def test_static_candidates_find_loops_once(self, monkeypatch):
        calls = []

        def counted(cfg):
            calls.append(cfg)
            return find_loops(cfg)

        monkeypatch.setattr(cfg_module, "find_loops", counted)
        monkeypatch.setattr(selection, "find_loops", counted)
        static_candidates(static_demo_cfg())
        assert len(calls) == 1


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

    @pytest.mark.parametrize("spec, config, error", [
        (SubPathSpec(1, (0x0500,)), PAIR16, ModeMismatch),
        (SubPathSpec(1, (Transfer(0x0400, 0x0500),)), DEST16, ModeMismatch),
        (SubPathSpec(1, (Transfer(0x0400, 0x8000),)), PAIR16, AddressOutOfRange),
        (SubPathSpec(1, (0x0010,)), DEST16, AddressOutOfRange),
    ])
    def test_spec_checked_without_logs(self, spec, config, error):
        # the engine rejects the spec set before it reads a transfer
        with pytest.raises(error):
            compress_trace([], [spec], config)
        with pytest.raises(error):
            estimate_savings(spec, [], config)

    @pytest.mark.parametrize("retry", [False, True])
    def test_mismatch_consumes_transfer(self, retry):
        # mining counts (A, A, B) once over A A A B, but the engine's third
        # A mismatches the B it expects, and nothing is replaced
        config = dataclasses.replace(DEST16, retry_on_mismatch=retry)
        log = dest_log("AAAB")
        spec = SubPathSpec(1, tuple(map(addr, "AAB")))
        mined = enumerate_candidates([log], (3, 3), mode=Mode.DEST)
        assert {c.entries: c.count for c in mined}[spec.entries] == 1
        assert estimate_savings(spec, [log], config) == -blockmem_block_bytes(3, config)


def engine_savings(spec, traces, config):
    """``estimate_savings`` by its definition: one engine pass per log."""
    saved = sum(
        encode_raw(t, config).size_bytes - compress_trace(t, [spec], config).size_bytes
        for t in traces
    )
    return saved - blockmem_block_bytes(spec.length, config)


def engine_error(fn):
    try:
        fn()
    except Exception as e:  # compared by type and message
        return type(e), str(e)
    return None


class TestSavingsEngineParity:
    """The jump scan of ``estimate_savings`` against one engine pass per log."""

    @staticmethod
    def case(config, letters, entries):
        """Traces (one per letter string) and the spec of ``entries`` over
        three transfers named A, B, C."""
        sym = {c: Transfer(addr(c), addr(c, 0x0500)) for c in "ABC"}
        if config.mode is Mode.DEST:
            sym = {c: Transfer(None, t.dest) for c, t in sym.items()}
        key = (lambda t: t) if config.mode is Mode.PAIR else (lambda t: t.dest)
        traces = [[sym[c] for c in text] for text in letters]
        return traces, SubPathSpec(1, tuple(key(sym[c]) for c in entries))

    def check(self, config, traces, spec):
        want = engine_savings(spec, traces, config)
        logs = [encode_raw(t, config) for t in traces]
        assert estimate_savings(spec, logs, config) == want
        return want

    @pytest.mark.parametrize("retry", [False, True])
    @pytest.mark.parametrize("base", CONFIG_GRID, ids=lambda c: f"{c.mode.value}{c.addr_width}")
    def test_random(self, base, retry):
        config = dataclasses.replace(base, retry_on_mismatch=retry)
        rng = random.Random(8 * CONFIG_GRID.index(base) + retry)
        for _ in range(60):
            alphabet = address_pool(config, 2, rng)
            symbols = random_trace(rng, config, 3, alphabet)
            if config.mode is Mode.DEST:
                symbols = [Transfer(None, t.dest) for t in symbols]
            entries = [rng.choice(symbols) for _ in range(rng.randint(1, 5))]
            traces = []
            for _ in range(rng.randint(1, 3)):
                trace = []
                while len(trace) < rng.randint(0, 50):
                    if rng.random() < 0.2:  # back-to-back copies, maybe cut short
                        copies = entries * rng.randint(1, 4)
                        trace += copies[: rng.randint(1, len(copies))]
                    else:
                        trace.append(rng.choice(symbols))
                traces.append(trace)
            keys = entries if config.mode is Mode.PAIR else [t.dest for t in entries]
            self.check(config, traces, SubPathSpec(1, keys))

    @pytest.mark.parametrize("retry", [False, True])
    @pytest.mark.parametrize("base", CONFIG_GRID, ids=lambda c: f"{c.mode.value}{c.addr_width}")
    def test_pinned_walks(self, base, retry):
        config = dataclasses.replace(base, retry_on_mismatch=retry)
        one = blockmem_block_bytes(3, config)
        raw, word = config.raw_element_bytes, config.word_bytes
        # a copy cut off by the log's end is no win
        traces, spec = self.case(config, ["ABCAB"], "ABC")
        assert self.check(config, traces, spec) == 3 * raw - word - one
        # two logs: no run spans them, even when a copy is split across them
        traces, spec = self.case(config, ["ABCABC", "ABCABC"], "ABC")
        assert self.check(config, traces, spec) == 2 * (6 * raw - 2 * word) - one
        traces, spec = self.case(config, ["ABCABCA", "BCABC"], "ABC")
        assert self.check(config, traces, spec) == 6 * raw - 2 * word + 3 * raw - word - one
        # the mismatching A equals the first entry: consumed, it starts no
        # copy; re-tested under retry, it starts the copy that wins
        traces, spec = self.case(config, ["AAB"], "AB")
        saved = self.check(config, traces, spec)
        two = blockmem_block_bytes(2, config)
        assert saved == (2 * raw - word - two if retry else -two)

    @pytest.mark.parametrize("config", [PAIR16, DEST16], ids=["pair", "dest"])
    @pytest.mark.parametrize("run", [
        MAX_REPEAT_COUNT - 1, MAX_REPEAT_COUNT, MAX_REPEAT_COUNT + 1, 2 * MAX_REPEAT_COUNT + 1,
    ])
    def test_long_runs(self, config, run):
        # a counter saturates at MAX_REPEAT_COUNT, and the next win starts
        # a new symbol
        traces, spec = self.case(config, ["C" + "AB" * run + "A", "B" + "AB" * 3], "AB")
        groups, rest = divmod(run, MAX_REPEAT_COUNT)
        words = 2 * groups + (rest > 1) + (rest > 0) + 2
        raw = config.raw_element_bytes
        assert self.check(config, traces, spec) == (
            (2 * run + 6) * raw - words * config.word_bytes - blockmem_block_bytes(2, config)
        )

    @pytest.mark.parametrize("config", CONFIG_GRID, ids=lambda c: f"{c.mode.value}{c.addr_width}")
    def test_errors_match_engine(self, config):
        pair = config.mode is Mode.PAIR
        raw = RawPair if pair else RawDest
        lo, hi, top = config.min_code_addr, config.counter_tag, 1 << 16

        def bad(x):  # a transfer whose destination is ``x``
            return raw(lo, x) if pair else raw(x)

        good = bad(lo + 1)
        # a log holds only code addresses: transfers out of range or
        # without a source are rejected when their log is built
        unbuildable = [[good, bad(hi)], [good, raw(lo - 1, lo) if pair else raw(lo - 1)]]
        if pair:
            unbuildable += [
                [good, RawPair(hi, lo)],
                [good, RawPair(None, lo), RawPair(lo, hi)],
                [good, RawPair(lo, hi), RawPair(None, lo)],
            ]
        for elements in unbuildable:
            with pytest.raises((AddressOutOfRange, EncodingOverlap, ModeMismatch)):
                make_log(elements, config)
        cases = [  # elements, spec entries
            ([good], [bad(hi)]),  # a spec validate_spec_set rejects
            ([good], [lo] if pair else [Transfer(lo, lo)]),  # a spec of the other mode
        ]
        for elements, entries in cases:
            log = make_log(elements, config)
            spec = SubPathSpec(1, [e if pair or type(e) is Transfer else e.dest for e in entries])
            trace = [Transfer(*e) if pair else Transfer(None, e.dest) for e in elements]
            want = engine_error(lambda: compress_trace(trace, [spec], config))
            assert want is not None and want[0] in (AddressOutOfRange, ModeMismatch)
            assert engine_error(lambda: estimate_savings(spec, [log], config)) == want
        if config.addr_width == 16:  # a 32-bit log is not read, whatever its keys
            wide = dataclasses.replace(config, addr_width=32)
            spec = SubPathSpec(1, [good if pair else good.dest])
            for elements in ([good], [good, bad(hi)], [good, bad(top)]):
                with pytest.raises(ConfigMismatch):
                    estimate_savings(spec, [make_log(elements, wide)], config)


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
