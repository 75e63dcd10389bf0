import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfaudit import codec, engine as engine_module, fixtures, model, protocol, workload
from cfaudit.codec import blockmem_block_bytes, encode_raw, serialize_log
from cfaudit.engine import Engine, compress_trace, expand, slice_compress
from cfaudit.errors import (
    AddressOutOfRange,
    ConfigMismatch,
    EncodingOverlap,
    MalformedLog,
    ModeMismatch,
    SliceTooSmall,
    TooManySpecs,
    UnknownSymbol,
)
from cfaudit.metrics import build_report
from cfaudit.model import (
    MAX_REPEAT_COUNT,
    EngineConfig,
    Mode,
    RepeatCount,
    RawDest,
    RawPair,
    SubPathSpec,
    Symbol,
    Transfer,
    make_log,
)
from cfaudit.oracle import oracle_compress, oracle_slice_compress
from cfaudit.selection import enumerate_candidates, estimate_savings, policy_top

from conftest import CONFIG_GRID, random_instance

PAIR16 = EngineConfig()
A, B, D, G, X, Y = 0x0400, 0x0500, 0x0600, 0x0700, 0x0410, 0x0510

ABD_SPEC = SubPathSpec(1, (Transfer(A, B), Transfer(B, D), Transfer(D, G)))
ABD_TRACE = [Transfer(A, B), Transfer(B, D), Transfer(D, G)]


def pairs(*addrs):
    return [Transfer(s, d) for s, d in addrs]


class TestEngineBasics:
    def test_no_specs_equals_encode_raw(self):
        trace = pairs((A, B), (B, D))
        assert compress_trace(trace, [], PAIR16) == encode_raw(trace, PAIR16)

    def test_eight_specs_accepted_nine_rejected(self):
        mk = lambda i: SubPathSpec(i, (Transfer(0x0400 + i, 0x0500),))
        Engine([mk(i) for i in range(1, 9)], PAIR16)
        with pytest.raises(TooManySpecs):
            Engine([mk(i) for i in range(1, 10)], PAIR16)

    def test_mode_mismatch(self):
        with pytest.raises(ModeMismatch):
            Engine([SubPathSpec(1, (0x0400,))], PAIR16)

    def test_address_out_of_range(self):
        eng = Engine([], PAIR16)
        with pytest.raises(AddressOutOfRange):
            eng.step(Transfer(0x0100, 0x0400))

    def test_single_occurrence_replaced(self):
        log = compress_trace(ABD_TRACE, [ABD_SPEC], PAIR16)
        assert log.elements == (Symbol(1),)
        assert log.size_bytes == 2

    def test_double_occurrence_coalesces(self):
        log = compress_trace(ABD_TRACE * 2, [ABD_SPEC], PAIR16)
        assert log.elements == (Symbol(1), RepeatCount(2))
        assert log.size_bytes == 4

    def test_detectors_idle_after_replacement(self):
        # spec 2 is two entries into its match when spec 1 completes; the
        # replacement resets it, so (G, X) must not complete spec 2
        mid = SubPathSpec(2, pairs((B, D), (D, G), (G, X)))
        eng = Engine([ABD_SPEC, mid], PAIR16)
        for t in ABD_TRACE:
            eng.step(t)
        assert eng.snapshot() == (Symbol(1),)
        eng.step(Transfer(G, X))
        assert eng.snapshot() == (Symbol(1), RawPair(G, X))
        # nor does a completed spec resume from a later entry
        log = compress_trace(ABD_TRACE + ABD_TRACE[1:], [ABD_SPEC], PAIR16)
        assert log.elements == (Symbol(1), RawPair(B, D), RawPair(D, G))

    def test_repeat_state_view(self):
        eng = Engine([ABD_SPEC], PAIR16)
        for t in ABD_TRACE * 2:
            eng.step(t)
        assert eng.snapshot() == (Symbol(1), RepeatCount(2))
        # a raw element ends the group: the next occurrence starts a new one
        eng.step(Transfer(G, X))
        for t in ABD_TRACE:
            eng.step(t)
        assert eng.snapshot() == (Symbol(1), RepeatCount(2), RawPair(G, X), Symbol(1))
        log = compress_trace(ABD_TRACE * 2 + [Transfer(G, X)] + ABD_TRACE * 2, [ABD_SPEC], PAIR16)
        assert log.elements == (
            Symbol(1), RepeatCount(2), RawPair(G, X), Symbol(1), RepeatCount(2)
        )


class TestLogGrowthStages:
    """Golden sequence: detect, replace, grow, detect again, grow."""

    def test_stage_by_stage(self):
        eng = Engine([ABD_SPEC], PAIR16)
        # (a) the sub-path streams in raw, then (b) collapses on its last transfer
        eng.step(Transfer(A, B))
        assert eng.snapshot() == (RawPair(A, B),)
        eng.step(Transfer(B, D))
        assert eng.snapshot() == (RawPair(A, B), RawPair(B, D))
        eng.step(Transfer(D, G))
        assert eng.snapshot() == (Symbol(1),)
        # (c) unrelated transfers append without touching the symbol
        eng.step(Transfer(G, X))
        eng.step(Transfer(X, Y))
        assert eng.snapshot() == (Symbol(1), RawPair(G, X), RawPair(X, Y))
        # (d)->(e) the next occurrence collapses as well
        for t in ABD_TRACE:
            eng.step(t)
        assert eng.snapshot() == (
            Symbol(1),
            RawPair(G, X),
            RawPair(X, Y),
            Symbol(1),
        )
        # (f) and execution continues normally
        eng.step(Transfer(G, Y))
        assert eng.snapshot()[-1] == RawPair(G, Y)


class TestPriority:
    def test_lower_index_wins_on_tie(self):
        s1 = SubPathSpec(1, pairs((A, B), (B, D)))
        s2 = SubPathSpec(2, pairs((A, B), (B, D), (D, G)))
        log = compress_trace(pairs((A, B), (B, D)), [s1, s2], PAIR16)
        assert log.elements == (Symbol(1),)

    def test_completion_resets_other_mid_matches(self):
        s1 = SubPathSpec(1, pairs((A, B), (B, D)))
        s2 = SubPathSpec(2, pairs((A, B), (B, D), (D, G)))
        # after s1 fires on (B, D), s2 must restart; the following (D, G)
        # alone cannot complete it
        log = compress_trace(pairs((A, B), (B, D), (D, G)), [s1, s2], PAIR16)
        assert log.elements == (Symbol(1), RawPair(D, G))

    def test_len1_lower_index_beats_longer_completion(self):
        s1 = SubPathSpec(1, pairs((B, D)))
        s2 = SubPathSpec(2, pairs((A, B), (B, D)))
        log = compress_trace(pairs((A, B), (B, D)), [s1, s2], PAIR16)
        assert log.elements == (RawPair(A, B), Symbol(1))

    def test_permuting_specs_without_ties_is_stable(self):
        sa = SubPathSpec(1, pairs((A, B), (B, D)))
        sb = SubPathSpec(2, pairs((X, Y),))
        trace = pairs((A, B), (B, D), (G, G), (X, Y))
        la = compress_trace(trace, [sa, sb], PAIR16)
        sa2 = SubPathSpec(1, pairs((X, Y),))
        sb2 = SubPathSpec(2, pairs((A, B), (B, D)))
        lb = compress_trace(trace, [sa2, sb2], PAIR16)
        ids_a = [e.id for e in la.elements if isinstance(e, Symbol)]
        ids_b = [e.id for e in lb.elements if isinstance(e, Symbol)]
        # same replacement structure, ids renamed by position
        assert len(ids_a) == len(ids_b) == 2
        assert [type(e) for e in la.elements] == [type(e) for e in lb.elements]


class TestMismatchSemantics:
    def test_no_retry_by_default(self):
        spec = SubPathSpec(1, pairs((A, B), (B, D)))
        # the second (A, B) arrives while monitoring, mismatches entry 1,
        # and is consumed without a re-test against entry 0 — so the match
        # never restarts and everything stays raw
        trace = pairs((A, B), (A, B), (B, D))
        log = compress_trace(trace, [spec], PAIR16)
        assert all(type(e) in (RawPair, RawDest) for e in log.elements)

    def test_mismatching_transfer_feeds_idle_detectors(self):
        s1 = SubPathSpec(1, pairs((A, B), (B, D)))
        s2 = SubPathSpec(2, pairs((G, X), (A, B)))
        # (G, X) mismatches s1 mid-match but starts idle detector s2, which
        # then completes on the following (A, B)
        trace = pairs((A, B), (G, X), (A, B))
        log = compress_trace(trace, [s1, s2], PAIR16)
        assert log.elements == (RawPair(A, B), Symbol(2))

    def test_retry_variant_retests_position_zero(self):
        config = EngineConfig(retry_on_mismatch=True)
        spec = SubPathSpec(1, pairs((A, B), (B, D)))
        # with retry, the mismatching (A, B) restarts the match and the
        # following (B, D) completes it; without retry the trace stays raw
        trace = pairs((A, B), (A, B), (B, D))
        log = compress_trace(trace, [spec], config)
        assert log.elements == (RawPair(A, B), Symbol(1))
        plain = compress_trace(trace, [spec], PAIR16)
        assert all(type(e) in (RawPair, RawDest) for e in plain.elements)


class TestFinalize:
    def test_partial_match_stays_raw(self):
        trace = ABD_TRACE[:2]
        assert compress_trace(trace, [ABD_SPEC], PAIR16) == encode_raw(trace, PAIR16)

    def test_occurrence_plus_partial(self):
        trace = ABD_TRACE + ABD_TRACE[:1]
        log = compress_trace(trace, [ABD_SPEC], PAIR16)
        assert log.elements == (Symbol(1), RawPair(A, B))

    def test_empty_trace(self):
        log = compress_trace([], [ABD_SPEC], PAIR16)
        assert log.elements == () and log.size_bytes == 0


class TestRepeatCoalescing:
    @pytest.mark.parametrize("k", [2, 3, 10, 100])
    def test_k_occurrences_two_words(self, k):
        log = compress_trace(ABD_TRACE * k, [ABD_SPEC], PAIR16)
        assert log.elements == (Symbol(1), RepeatCount(k))
        assert log.size_bytes == 4

    def test_interrupted_runs_restart(self):
        trace = ABD_TRACE * 2 + pairs((G, X)) + ABD_TRACE
        log = compress_trace(trace, [ABD_SPEC], PAIR16)
        assert log.elements == (
            Symbol(1),
            RepeatCount(2),
            RawPair(G, X),
            Symbol(1),
        )

    def test_counter_saturates_at_15_bits(self):
        spec = SubPathSpec(1, pairs((A, B)))
        trace = pairs((A, B)) * 32769
        log = compress_trace(trace, [spec], PAIR16)
        assert log.elements == (
            Symbol(1),
            RepeatCount(32767),
            Symbol(1),
            RepeatCount(2),
        )
        # the serialized form stays well-formed
        assert serialize_log(log, PAIR16)

    def test_adjacent_runs_of_different_ids(self):
        s1 = SubPathSpec(1, pairs((A, B)))
        s2 = SubPathSpec(2, pairs((B, D)))
        trace = pairs((A, B), (A, B), (B, D), (B, D))
        log = compress_trace(trace, [s1, s2], PAIR16)
        assert log.elements == (Symbol(1), RepeatCount(2), Symbol(2), RepeatCount(2))


class TestExpand:
    def test_symbol_expands_to_entries(self):
        log = make_log([Symbol(1)], PAIR16)
        assert expand(log, [ABD_SPEC], PAIR16) == encode_raw(ABD_TRACE, PAIR16)

    def test_symbol_with_count_three(self):
        log = make_log([Symbol(1), RepeatCount(3)], PAIR16)
        out = expand(log, [ABD_SPEC], PAIR16)
        assert out == encode_raw(ABD_TRACE * 3, PAIR16)
        assert len(out.elements) == 9

    def test_raw_only_passthrough(self):
        log = encode_raw(pairs((A, B), (B, D)), PAIR16)
        assert expand(log, [ABD_SPEC], PAIR16) == log

    def test_unknown_symbol(self):
        log = make_log([Symbol(9)], PAIR16)
        with pytest.raises(UnknownSymbol):
            expand(log, [ABD_SPEC], PAIR16)

    def test_malformed_count_placement(self):
        with pytest.raises(MalformedLog):
            make_log([RawPair(A, B), RepeatCount(2)], PAIR16)

    def test_other_mode_raw_element_rejected(self):
        dest16 = EngineConfig(mode=Mode.DEST)
        with pytest.raises(ModeMismatch, match="RawDest element in pair-mode"):
            expand(make_log([RawPair(A, B), RawDest(D)], PAIR16), [ABD_SPEC], PAIR16)
        with pytest.raises(ModeMismatch, match="RawPair element in dest-mode"):
            expand(make_log([RawPair(A, B)], dest16), [], dest16)

    def test_element_log_must_fit_the_memory_image(self):
        # a log is memory-image words, so it holds only code addresses
        with pytest.raises(EncodingOverlap, match="address 0x100 collides"):
            make_log([RawPair(0x100, 0x500)], PAIR16)
        with pytest.raises(EncodingOverlap):
            make_log([RawPair(A, 0x8000)], PAIR16)  # a counter word
        with pytest.raises(AddressOutOfRange):
            make_log([RawPair(A, 0x10000)], PAIR16)

    def test_spec_is_checked_when_its_symbol_is_used(self):
        low = SubPathSpec(2, pairs((0x100, B)))
        other_mode = SubPathSpec(3, (A, B))
        log = make_log([RawPair(A, B), Symbol(1)], PAIR16)
        assert expand(log, [ABD_SPEC, low, other_mode], PAIR16) == encode_raw(
            pairs((A, B)) + ABD_TRACE, PAIR16)
        with pytest.raises(AddressOutOfRange):
            expand(make_log([Symbol(2)], PAIR16), [low], PAIR16)
        with pytest.raises(ModeMismatch):
            expand(make_log([Symbol(3)], PAIR16), [other_mode], PAIR16)

    def test_round_trip_property(self):
        for seed in range(60):
            trace, specs, config = random_instance(seed)
            compressed = compress_trace(trace, specs, config)
            assert expand(compressed, specs, config) == encode_raw(trace, config)

    def test_monotone_benefit(self):
        for seed in range(60, 120):
            trace, specs, config = random_instance(seed)
            compressed = compress_trace(trace, specs, config)
            assert compressed.size_bytes <= encode_raw(trace, config).size_bytes


class TestSliceCompress:
    def test_100_pairs_at_256_bytes(self):
        trace = [Transfer(0x0400, 0x0500)] * 100
        slices = slice_compress(trace, [], PAIR16)
        assert [len(s.elements) for s in slices] == [64, 36]
        assert [s.size_bytes for s in slices] == [256, 144]

    def test_short_trace_single_slice(self):
        slices = slice_compress(pairs((A, B)), [], PAIR16)
        assert len(slices) == 1

    def test_empty_trace_single_empty_slice(self):
        slices = slice_compress([], [], PAIR16)
        assert len(slices) == 1 and slices[0].elements == ()

    def test_slice_too_small(self):
        with pytest.raises(SliceTooSmall):
            slice_compress([], [], EngineConfig(slice_size_bytes=3))

    def test_feed_rejects_limit_below_one_raw_element(self):
        eng = Engine([], PAIR16)
        trace = pairs((A, B), (B, D))
        with pytest.raises(SliceTooSmall):
            eng.feed(trace, 2)
        assert eng.snapshot() == () and eng.size_bytes == 0
        # a limit of exactly one raw element holds one per log
        assert eng.feed(trace, 4) == [make_log([RawPair(A, B)], PAIR16)]
        assert eng.finalize() == make_log([RawPair(B, D)], PAIR16)

    def test_match_never_spans_boundary(self):
        # slice budget of 2 pairs; a 3-entry spec occurrence straddling the
        # boundary must stay raw in both slices
        config = EngineConfig(slice_size_bytes=8)
        trace = pairs((G, X)) + ABD_TRACE
        slices = slice_compress(trace, [ABD_SPEC], config)
        assert all(type(e) in (RawPair, RawDest) for s in slices for e in s.elements)
        assert all(s.size_bytes <= 8 for s in slices)

    def test_aligned_match_is_replaced(self):
        config = EngineConfig(slice_size_bytes=12)
        slices = slice_compress(ABD_TRACE * 2, [ABD_SPEC], config)
        assert slices[0].elements[0] == Symbol(1)

    def test_concatenated_expansion_equals_raw(self):
        for seed in range(40):
            trace, specs, config = random_instance(seed, max_trace=200)
            config = EngineConfig(
                mode=config.mode,
                addr_width=config.addr_width,
                slice_size_bytes=32,
                retry_on_mismatch=config.retry_on_mismatch,
            )
            slices = slice_compress(trace, specs, config)
            elements = []
            for s in slices:
                assert s.size_bytes <= config.slice_size_bytes
                elements.extend(expand(s, specs, config).elements)
            assert tuple(elements) == encode_raw(trace, config).elements


def test_engine_rejects_pair_transfer_without_source():
    eng = Engine([], PAIR16)
    with pytest.raises(ModeMismatch):
        eng.step(Transfer(None, 0x0400))


# --- property tests -----------------------------------------------------------

_ADDRS = st.sampled_from([0x0400, 0x0410, 0x0500, 0x0510])
_TRANSFERS = st.tuples(_ADDRS, _ADDRS).map(lambda p: Transfer(*p))


@st.composite
def traces_with_specs(draw):
    """Small-alphabet traces plus specs drawn mostly from their windows,
    so replacements actually fire."""
    trace = draw(st.lists(_TRANSFERS, max_size=80))
    specs, seen = [], set()
    for _ in range(draw(st.integers(0, 4))):
        if trace and draw(st.booleans()):
            length = draw(st.integers(1, min(6, len(trace))))
            start = draw(st.integers(0, len(trace) - length))
            entries = tuple(trace[start : start + length])
        else:
            entries = tuple(draw(st.lists(_TRANSFERS, min_size=1, max_size=4)))
        if entries not in seen:
            seen.add(entries)
            specs.append(SubPathSpec(len(specs) + 1, entries))
    return trace, specs


@given(traces_with_specs())
@settings(max_examples=150, deadline=None)
def test_lossless_and_monotone_property(ts):
    trace, specs = ts
    raw = encode_raw(trace, PAIR16)
    compressed = compress_trace(trace, specs, PAIR16)
    assert expand(compressed, specs, PAIR16) == raw
    assert compressed.size_bytes <= raw.size_bytes
    assert compressed.size_bytes == len(serialize_log(compressed, PAIR16))


@given(traces_with_specs(), st.integers(8, 40))
@settings(max_examples=80, deadline=None)
def test_sliced_expansion_property(ts, slice_size):
    trace, specs = ts
    config = EngineConfig(slice_size_bytes=slice_size)
    elements = []
    for s in slice_compress(trace, specs, config):
        assert s.size_bytes <= slice_size
        elements.extend(expand(s, specs, config).elements)
    assert tuple(elements) == encode_raw(trace, config).elements


# --- transition-table engine against the oracle -------------------------------

@st.composite
def grid_instances(draw):
    """A CONFIG_GRID config with retry on or off and a slice budget from one
    raw element to 64 bytes, a four-address trace, and up to eight specs
    drawn mostly from its windows, so some transfers fall outside them."""
    base = draw(st.sampled_from(CONFIG_GRID))
    config = EngineConfig(
        mode=base.mode,
        addr_width=base.addr_width,
        slice_size_bytes=draw(st.integers(base.raw_element_bytes, 64)),
        retry_on_mismatch=draw(st.booleans()),
    )
    lo = config.min_code_addr
    addr = st.sampled_from([lo, lo + 0x10, lo + 0x100, config.counter_tag - 1])
    trace = draw(st.lists(st.builds(Transfer, addr, addr), max_size=120))
    keys = trace if config.mode is Mode.PAIR else [t.dest for t in trace]
    specs, seen = [], set()
    for _ in range(draw(st.integers(0, 8))):
        if keys and draw(st.integers(0, 3)):
            length = draw(st.integers(1, min(8, len(keys))))
            start = draw(st.integers(0, len(keys) - length))
            entries = tuple(keys[start : start + length])
        else:
            one = st.builds(Transfer, addr, addr) if config.mode is Mode.PAIR else addr
            entries = tuple(draw(st.lists(one, min_size=1, max_size=4)))
        if entries not in seen:
            seen.add(entries)
            specs.append(SubPathSpec(len(specs) + 1, entries))
    return trace, specs, config


def assert_exact_types(elements, config):
    """Raw elements are RawPair/RawDest themselves, never the caller's
    Transfer, which compares equal as a tuple."""
    raw = RawPair if config.mode is Mode.PAIR else RawDest
    assert all(type(e) in (raw, Symbol, RepeatCount) for e in elements)


@given(grid_instances())
@settings(max_examples=300, deadline=None)
def test_slices_equal_oracle_across_grid(inst):
    trace, specs, config = inst
    ours = slice_compress(trace, specs, config)
    oracle = oracle_slice_compress(trace, specs, config)
    assert [s.elements for s in ours] == [s.elements for s in oracle]
    assert [s.size_bytes for s in ours] == [s.size_bytes for s in oracle]
    for s in ours:
        assert_exact_types(s.elements, config)


def assert_same_log(ours, want, config):
    """``ours``, a log the engine emitted, is the oracle's log ``want``
    in every way a caller sees; its image bytes are checked while its
    elements are still undecoded."""
    assert ours.words is not None
    assert serialize_log(ours, config) == serialize_log(want, config)
    assert hash(ours) == hash(want)
    assert repr(ours) == repr(want)
    assert ours.size_bytes == want.size_bytes
    assert ours == want and want == ours
    assert_exact_types(ours.elements, config)


@given(grid_instances(), st.data())
@settings(max_examples=200, deadline=None)
def test_word_logs_equal_oracle_logs(inst, data):
    trace, specs, config = inst
    assert_same_log(compress_trace(trace, specs, config),
                    oracle_compress(trace, specs, config), config)
    ours = slice_compress(trace, specs, config)
    want = oracle_slice_compress(trace, specs, config)
    assert len(ours) == len(want)
    for got, expected in zip(ours, want):
        assert_same_log(got, expected, config)
    # finalize restarts the log, so an engine fed on emits the second part
    k = data.draw(st.integers(0, len(trace)))
    eng = Engine(specs, config)
    for part in (trace[:k], trace[k:]):
        eng.feed(part)
        want = oracle_compress(part, specs, config)
        assert eng.snapshot() == want.elements
        assert_exact_types(eng.snapshot(), config)
        assert_same_log(eng.finalize(), want, config)


def test_word_log_under_another_config_raises():
    trace = ABD_TRACE * 2 + pairs((G, X))
    log = compress_trace(trace, [ABD_SPEC], PAIR16)
    with pytest.raises(ConfigMismatch, match="16-bit log read under a 32-bit config"):
        serialize_log(log, EngineConfig(addr_width=32))
    with pytest.raises(ModeMismatch, match="pair elements in dest-mode input"):
        serialize_log(log, EngineConfig(mode=Mode.DEST))


def _layout(config):
    return config.mode, config.addr_width


@pytest.mark.parametrize("built, read", itertools.product(CONFIG_GRID, repeat=2),
                         ids=lambda c: f"{c.mode.value}{c.addr_width}")
def test_a_log_is_read_only_under_its_layout(built, read):
    # a log's layout is its mode and address width; slice size and retry
    # are no part of it
    def own(config):  # ABD_SPEC and the trace in config's mode
        if config.mode is Mode.PAIR:
            return ABD_SPEC, trace
        return (SubPathSpec(1, [t.dest for t in ABD_SPEC.entries]),
                [Transfer(None, t.dest) for t in trace])

    trace = ABD_TRACE * 3 + pairs((G, X), (X, A)) + ABD_TRACE
    spec, keys = own(built)
    prior = encode_raw(keys, built)
    log = compress_trace(keys, [spec], built)

    def readings(config):
        other = own(config)[0]
        return (serialize_log(log, config), expand(log, [other], config).words,
                enumerate_candidates([prior], (2, 4), mode=config.mode),
                estimate_savings(other, [prior], config))

    if _layout(read) == _layout(built):
        want = readings(built)
        assert want[1] == prior.words
        flipped = not built.retry_on_mismatch
        for same in (dataclasses.replace(read, slice_size_bytes=8),
                     dataclasses.replace(read, retry_on_mismatch=flipped)):
            got = readings(same)
            assert got[:3] == want[:3]
            # the estimate follows the retry of the config read under
            assert got[3] == estimate_savings(spec, [encode_raw(keys, same)], same)
        return
    error = ModeMismatch if read.mode is not built.mode else ConfigMismatch
    other = own(read)[0]
    for reader in (lambda: serialize_log(log, read), lambda: expand(log, [other], read),
                   lambda: estimate_savings(other, [prior], read)):
        with pytest.raises(error):
            reader()
    # mining reads a log under a mode alone, so only another mode raises
    if read.mode is not built.mode:
        with pytest.raises(ModeMismatch):
            enumerate_candidates([prior], (2, 4), mode=read.mode)


@pytest.fixture
def decodes(monkeypatch):
    """Counts the calls of the shared memory-image decoder."""
    calls = []
    decode = model.decode_image

    def counted(words, config):
        calls.append(len(words))
        return decode(words, config)

    for module in (model, engine_module):
        monkeypatch.setattr(module, "decode_image", counted)
    return calls


def test_fast_paths_decode_nothing(decodes):
    trace = (ABD_TRACE * 3 + pairs((G, X))) * 40  # symbols, counters, raw; two slices
    key = b"k" * 32
    prover = protocol.Prover(key, PAIR16)
    prover.handle_request(protocol.Verifier(key, PAIR16).open_session([ABD_SPEC]).encode())
    assert len(prover.run(trace)) == 2
    build_report("fast", trace, [ABD_SPEC], PAIR16, include_baseline=True)
    prior = encode_raw(trace, PAIR16)
    enumerate_candidates([prior], (2, 4))
    estimate_savings(ABD_SPEC, [prior], PAIR16)
    assert decodes == []
    log = compress_trace(trace, [ABD_SPEC], PAIR16)
    assert log.elements[:3] == (Symbol(1), RepeatCount(3), RawPair(G, X))
    assert len(decodes) == 1
    log.elements
    assert len(decodes) == 1


@given(grid_instances())
@settings(max_examples=150, deadline=None)
def test_step_by_step_equals_one_bulk_call(inst):
    trace, specs, config = inst
    stepped, bulk = Engine(specs, config), Engine(specs, config)
    for t in trace:
        stepped.step(t)
    assert bulk.feed(trace) == []
    assert stepped.snapshot() == bulk.snapshot()
    assert_exact_types(stepped.snapshot(), config)
    assert stepped.size_bytes == bulk.size_bytes
    assert stepped.hits == bulk.hits
    log = stepped.finalize()
    assert log == bulk.finalize()
    assert_exact_types(log.elements, config)


class TestErrorParity:
    """Invalid transfers raise wherever they arrive and leave the engine in
    the state it reached before them."""

    DEST16 = EngineConfig(mode=Mode.DEST)
    PREFIXES = {
        "mid_match": ([ABD_SPEC], ABD_TRACE[:2]),
        "outside_alphabet": ([ABD_SPEC], pairs((G, X), (X, Y))),
        "no_specs": ([], ABD_TRACE[:2]),
    }
    BAD = [
        (Transfer(0x0100, B), AddressOutOfRange),
        (Transfer(A, 0x8000), AddressOutOfRange),
        (Transfer(None, B), ModeMismatch),
        (RawDest(B), ModeMismatch),  # not a (src, dest) pair
        ((A, B, D), ModeMismatch),
    ]

    @pytest.mark.parametrize("where", sorted(PREFIXES))
    @pytest.mark.parametrize("bad, error", BAD)
    def test_pair_mode(self, where, bad, error):
        specs, prefix = self.PREFIXES[where]
        self.check(specs, prefix, bad, error, PAIR16)

    @pytest.mark.parametrize("where", sorted(PREFIXES))
    @pytest.mark.parametrize("dest", [0x0100, 0x8000])
    def test_dest_mode(self, where, dest):
        specs, prefix = self.PREFIXES[where]
        specs = [SubPathSpec(s.id, tuple(e.dest for e in s.entries)) for s in specs]
        self.check(specs, prefix, Transfer(A, dest), AddressOutOfRange, self.DEST16)

    def check(self, specs, prefix, bad, error, config):
        eng = Engine(specs, config)
        for t in prefix:
            eng.step(t)
        before = eng.snapshot(), eng.size_bytes
        for _ in range(2):  # a rejected transfer is never remembered as checked
            with pytest.raises(error):
                eng.step(bad)
            assert (eng.snapshot(), eng.size_bytes) == before
        bulk = Engine(specs, config)
        with pytest.raises(error):
            bulk.feed(prefix + [bad] + prefix)
        assert (bulk.snapshot(), bulk.size_bytes) == before
        with pytest.raises(error):
            compress_trace(prefix + [bad], specs, config)
        with pytest.raises(error):
            slice_compress(prefix + [bad], specs, config)

    @pytest.mark.parametrize("mode, tail, error", [
        (Mode.PAIR, None, OSError),
        (Mode.DEST, None, OSError),
        (Mode.DEST, A, AttributeError),  # a dest-mode item with no dest
    ], ids=["pair", "dest", "dest-no-dest"])
    def test_a_source_that_fails_leaves_the_engine_as_it_was(self, mode, tail, error):
        # the engine reads its input before it compresses any of it
        body = pairs((A, B), (B, D))
        spec = SubPathSpec(1, body if mode is Mode.PAIR else [t.dest for t in body])

        def source():
            yield from body + pairs((D, A))
            if tail is None:
                raise OSError("source lost")
            yield tail

        eng = Engine([spec], EngineConfig(mode=mode))
        with pytest.raises(error):
            eng.feed(source())
        assert eng.snapshot() == ()
        assert eng.hits == {1: 0}


# --- no-spec raw path ---------------------------------------------------------

@st.composite
def raw_instances(draw):
    """A CONFIG_GRID config with a slice budget from one raw element to
    96 bytes and a four-address trace, in dest mode with sources that are
    sometimes None."""
    base = draw(st.sampled_from(CONFIG_GRID))
    config = EngineConfig(
        mode=base.mode,
        addr_width=base.addr_width,
        slice_size_bytes=draw(st.integers(base.raw_element_bytes, 96)),
    )
    lo = config.min_code_addr
    addr = st.sampled_from([lo, lo + 0x10, lo + 0x100, config.counter_tag - 1])
    src = addr if config.mode is Mode.PAIR else st.one_of(st.none(), addr)
    return draw(st.lists(st.builds(Transfer, src, addr), max_size=150)), config


SHAPES = [list, tuple, iter]


def state(eng):
    """An engine's pending log, read without finalizing it."""
    return eng.snapshot(), eng.size_bytes


@given(raw_instances(), st.data())
@settings(max_examples=300, deadline=None)
def test_no_spec_engine_equals_oracle(inst, data):
    trace, config = inst
    limit = config.slice_size_bytes
    want = oracle_slice_compress(trace, (), config)
    k = data.draw(st.integers(0, len(trace)))
    shape = data.draw(st.sampled_from(SHAPES))
    for parts in ([trace], [trace[:k], trace[k:]]):
        eng = Engine((), config)
        logs = [log for part in parts for log in eng.feed(shape(part), limit)]
        assert eng.snapshot() == want[-1].elements
        assert eng.size_bytes == want[-1].size_bytes
        logs.append(eng.finalize())
        assert len(logs) == len(want)
        for got, expected in zip(logs, want):
            assert_same_log(got, expected, config)
    whole = oracle_compress(trace, (), config)
    stepped = Engine((), config)
    for t in trace[:k]:
        stepped.step(t)
    stepped.feed(shape(trace[k:]))
    assert stepped.snapshot() == whole.elements
    assert stepped.size_bytes == whole.size_bytes
    assert_same_log(stepped.finalize(), whole, config)
    assert_same_log(compress_trace(shape(trace), (), config), whole, config)
    assert_same_log(encode_raw(shape(trace), config), whole, config)


def bad_transfers(config):
    """One transfer of each ``TestErrorParity.BAD`` kind under ``config``,
    with the error the engine raises for it."""
    ok, low, high = config.min_code_addr, config.min_code_addr - 1, config.counter_tag
    if config.mode is Mode.DEST:
        return [(Transfer(ok, low), AddressOutOfRange), (Transfer(None, high), AddressOutOfRange)]
    return [
        (Transfer(low, ok), AddressOutOfRange),
        (Transfer(ok, high), AddressOutOfRange),
        (Transfer(None, ok), ModeMismatch),
        (RawDest(ok), ModeMismatch),
        ((ok, ok, ok), ModeMismatch),
    ]


@given(raw_instances(), st.data())
@settings(max_examples=200, deadline=None)
def test_no_spec_engine_raises_as_stepping(inst, data):
    trace, config = inst
    bad, error = data.draw(st.sampled_from(bad_transfers(config)))
    i = data.draw(st.integers(0, len(trace)))
    shape = data.draw(st.sampled_from(SHAPES))
    bad_trace = trace[:i] + [bad] + trace[i:]
    stepped = Engine((), config)
    with pytest.raises(error):
        for t in bad_trace:
            stepped.step(t)
    assert stepped.snapshot() == oracle_compress(trace[:i], (), config).elements
    fed = Engine((), config)
    for _ in range(2):  # a rejected transfer is never remembered as checked
        with pytest.raises(error):
            fed.feed(shape(bad_trace))
        assert state(fed) == state(stepped)
        fed.finalize()
    limit = config.slice_size_bytes
    sliced, want = Engine((), config), Engine((), config)
    want.feed(trace[:i], limit)
    if want.size_bytes + config.raw_element_bytes > limit:
        want.finalize()  # the slice is cut before the bad transfer is read
    with pytest.raises(error):
        sliced.feed(shape(bad_trace), limit)
    assert state(sliced) == state(want)
    with pytest.raises(error):
        slice_compress(shape(bad_trace), (), config)


# --- loop-body replay ---------------------------------------------------------

@st.composite
def burst_instances(draw):
    """Runs of 1-12 back-to-back copies of up to four loop bodies mixed with
    noise, under a CONFIG_GRID config with retry on or off and a slice
    budget from one raw element upward, so cuts land inside bursts.  The
    specs are the bodies plus some of their sub-windows, which may win
    inside a body, in shuffled order with shuffled ids.  In dest mode every
    transfer gets its own source, sometimes None, which the engine ignores."""
    base = draw(st.sampled_from(CONFIG_GRID))
    config = EngineConfig(
        mode=base.mode,
        addr_width=base.addr_width,
        slice_size_bytes=draw(st.integers(base.raw_element_bytes, 96)),
        retry_on_mismatch=draw(st.booleans()),
    )
    pair = config.mode is Mode.PAIR
    lo = config.min_code_addr
    addr = st.sampled_from([lo, lo + 0x10, lo + 0x100, config.counter_tag - 1])
    key = st.tuples(addr, addr) if pair else addr
    body = st.lists(key, min_size=1, max_size=5).map(tuple)
    bodies = draw(st.lists(body, min_size=1, max_size=4, unique=True))
    runs = draw(st.lists(st.one_of(
        st.tuples(st.sampled_from(bodies), st.integers(1, 12)),
        st.tuples(st.lists(key, min_size=1, max_size=4), st.just(1)),
    ), max_size=12))
    sources = draw(st.randoms(use_true_random=False))
    trace = []
    for keys, copies in runs:
        for k in list(keys) * copies:
            trace.append(Transfer(*k) if pair else Transfer(sources.choice([None, lo, k]), k))
    windows = sorted({b[i:j] for b in bodies for i in range(len(b))
                      for j in range(i + 1, len(b) + 1)} - set(bodies))
    extra = draw(st.lists(st.sampled_from(windows), max_size=3, unique=True)) if windows else []
    entries = draw(st.permutations(bodies + extra))
    ids = draw(st.lists(st.integers(1, 255), min_size=len(entries), max_size=len(entries),
                        unique=True))
    specs = [SubPathSpec(i, tuple(Transfer(*e) for e in es) if pair else es)
             for i, es in zip(ids, entries)]
    return trace, specs, config


def oracle_hits(elements, specs):
    """Occurrences per spec id in an oracle log: a symbol is one, the
    counter after it adds its count less one."""
    hits = {s.id: 0 for s in specs}
    for e in elements:
        if type(e) is Symbol:
            last = e.id
            hits[last] += 1
        elif type(e) is RepeatCount:
            hits[last] += e.count - 1
    return hits


@given(burst_instances())
@settings(max_examples=300, deadline=None)
def test_burst_traces_equal_oracle(inst):
    trace, specs, config = inst
    want = oracle_slice_compress(trace, specs, config)
    for shape in (list, tuple):
        ours = slice_compress(shape(trace), specs, config)
        assert len(ours) == len(want)
        for got, expected in zip(ours, want):
            assert_same_log(got, expected, config)
    whole = oracle_compress(trace, specs, config)
    assert_same_log(compress_trace(trace, specs, config), whole, config)
    eng = Engine(specs, config)
    assert eng.feed(trace) == []
    assert eng.hits == oracle_hits(whole.elements, specs)
    assert_same_log(eng.finalize(), whole, config)


@given(burst_instances(), st.data())
@settings(max_examples=150, deadline=None)
def test_input_shapes_give_the_same_words_and_hits(inst, data):
    trace, specs, config = inst
    k = data.draw(st.integers(0, len(trace)))
    results = []
    for feed in (
        lambda eng: eng.feed(trace),
        lambda eng: eng.feed(tuple(trace)),
        lambda eng: eng.feed(t for t in trace),
        lambda eng: [eng.step(t) for t in trace],
        lambda eng: (eng.feed(trace[:k]), eng.feed(tuple(trace[k:]))),
    ):
        eng = Engine(specs, config)
        feed(eng)
        results.append((eng.finalize().words, eng.hits))
    assert results.count(results[0]) == len(results)
    limit = config.slice_size_bytes
    sliced = []
    for shape in (list, tuple, iter):
        eng = Engine(specs, config)
        logs = eng.feed(shape(trace), limit)
        sliced.append(([log.words for log in logs] + [eng.finalize().words], eng.hits))
    assert sliced.count(sliced[0]) == len(sliced)


@given(burst_instances(), st.data())
@settings(max_examples=150, deadline=None)
def test_a_sliced_feed_split_in_two_gives_the_same_slices(inst, data):
    trace, specs, config = inst
    k = data.draw(st.integers(0, len(trace)))
    limit = config.slice_size_bytes
    results = []
    for parts in ([trace], [trace[:k], trace[k:]]):
        eng = Engine(specs, config)
        logs = [log.words for part in parts for log in eng.feed(part, limit)]
        logs.append(eng.finalize().words)
        results.append((logs, eng.hits))
    assert results[0] == results[1]


@pytest.mark.parametrize("mode", [Mode.PAIR, Mode.DEST])
@pytest.mark.parametrize("sliced", [False, True], ids=["whole", "sliced"])
def test_a_feed_that_raises_after_wins_keeps_them(mode, sliced):
    # the raise comes after three wins and one transfer into a fourth copy:
    # the engine keeps the wins, the words and the partial match, so the
    # rest of the input completes that copy as it would have
    config = EngineConfig(mode=mode)
    body = pairs((A, B), (B, D))
    spec = SubPathSpec(1, body if mode is Mode.PAIR else [t.dest for t in body])
    prefix = body * 3 + [Transfer(G, X)] + body[:1]
    rest = body[1:] + body * 2 + [Transfer(G, X)]
    limit = 2 * config.raw_element_bytes if sliced else None
    eng, want = Engine([spec], config), Engine([spec], config)
    with pytest.raises(AddressOutOfRange):
        eng.feed(prefix + [Transfer(A, 0x8000)] + rest, limit)
    want.feed(prefix, limit)
    assert want.hits[1] > 0
    assert eng.hits == want.hits
    assert state(eng) == state(want)
    logs = [log.words for log in eng.feed(rest, limit)] + [eng.finalize().words]
    assert logs == [log.words for log in want.feed(rest, limit)] + [want.finalize().words]
    assert eng.hits == want.hits


class TestReplay:
    """Back-to-back copies of a loop body after a coalescing win are
    replayed; each case puts the replay where it could go wrong."""

    @pytest.mark.parametrize("noise", [0, 60, 61, 62])
    def test_burst_past_max_count_cut_mid_burst(self, noise):
        # a 256-byte slice holds 126 words before one more raw pair: after
        # 60-61 raw pairs the burst's counters reach the cut, after 62 its
        # first copy does, and the counter saturates inside the burst
        body = pairs((A, B), (B, D))
        spec = SubPathSpec(1, body)
        copies = 2 * MAX_REPEAT_COUNT + 3
        trace = pairs(*[(G, X)] * noise) + body * copies
        eng = Engine([spec], PAIR16)
        ours = eng.feed(trace, PAIR16.slice_size_bytes) + [eng.finalize()]
        want = oracle_slice_compress(trace, [spec], PAIR16)
        assert len(ours) == len(want) == (1 if noise < 60 else 2)
        for got, expected in zip(ours, want):
            assert_same_log(got, expected, PAIR16)
        # a copy cut by the slice boundary stays raw
        assert eng.hits == {1: copies - (noise >= 60)}
        assert RepeatCount(MAX_REPEAT_COUNT) in ours[0 if noise < 62 else 1].elements
        if noise == 61:
            # cut after the first saturation, inside the copy that follows
            assert ours[0].elements[-4:] == (
                Symbol(1), RepeatCount(MAX_REPEAT_COUNT), Symbol(1), RawPair(A, B))
            assert ours[1].elements[:3] == (RawPair(B, D), Symbol(1), RepeatCount(MAX_REPEAT_COUNT))

    def test_pattern_won_by_lower_index_spec(self):
        # spec 2 wins once, after the raw (D, G); from idle, its next copy
        # completes spec 1 on the same last transfer, and spec 1 wins the
        # tie, so spec 2 never gets a counter
        s1 = SubPathSpec(1, pairs((D, G), (B, D), (A, B)))
        s2 = SubPathSpec(2, pairs((B, D), (D, G), (B, D), (A, B)))
        trace = pairs((D, G)) + list(s2.entries) * 4
        want = (RawPair(D, G), Symbol(2)) + (RawPair(B, D), Symbol(1)) * 3
        for shape in (list, tuple):
            eng = Engine([s1, s2], PAIR16)
            eng.feed(shape(trace))
            assert eng.hits == {1: 3, 2: 1}
            assert_same_log(eng.finalize(), oracle_compress(trace, [s1, s2], PAIR16), PAIR16)
        assert compress_trace(trace, [s1, s2], PAIR16).elements == want

    def test_pattern_won_earlier_only_with_retry(self):
        # without retry the repeated (A, B) resets spec 1, so spec 2 wins
        # every copy; with retry it restarts spec 1, which wins inside
        # each copy, so spec 2 never wins
        s1 = SubPathSpec(1, pairs((A, B), (B, D)))
        s2 = SubPathSpec(2, pairs((A, B), (A, B), (B, D), (D, G)))
        trace = list(s2.entries) * 5
        cases = [
            (PAIR16, (Symbol(2), RepeatCount(5)), {1: 0, 2: 5}),
            (EngineConfig(retry_on_mismatch=True),
             (RawPair(A, B), Symbol(1), RawPair(D, G)) * 5, {1: 5, 2: 0}),
        ]
        for config, want, hits in cases:
            eng = Engine([s1, s2], config)
            eng.feed(trace)
            assert eng.hits == hits
            log = eng.finalize()
            assert log.elements == want
            assert_same_log(log, oracle_compress(trace, [s1, s2], config), config)

    def test_dest_mode_savings_of_a_raw_prior(self):
        # a raw dest-mode prior is a tuple of RawDest, which has no source
        dest16 = EngineConfig(mode=Mode.DEST)
        spec = SubPathSpec(1, (A, B, D))
        trace = pairs((G, X)) + pairs((X, A), (A, B), (B, D)) * 50 + pairs((D, G))
        prior = encode_raw(trace, dest16)
        assert type(prior.elements) is tuple and type(prior.elements[0]) is RawDest
        compressed = oracle_compress(trace, [spec], dest16)
        assert compressed.elements[1:3] == (Symbol(1), RepeatCount(50))
        want = prior.size_bytes - compressed.size_bytes - blockmem_block_bytes(3, dest16)
        assert estimate_savings(spec, [prior], dest16) == want

    # --- runs replayed in blocks of about 64 transfers ----------------------

    @staticmethod
    def body_of(config, n):
        """A spec body of ``n`` distinct transfers, and a transfer outside it."""
        lo, hi = config.min_code_addr, config.counter_tag
        if config.mode is Mode.PAIR:
            return [Transfer(lo + 2 * i, lo + 2 * i + 1) for i in range(n)], Transfer(hi - 2, hi - 1)
        return [Transfer(None, lo + i) for i in range(n)], Transfer(None, hi - 1)

    @staticmethod
    def oracle_hits(logs):
        """Wins per spec id read off oracle logs: a symbol is one, a count
        ``k`` after it ``k - 1`` more."""
        hits = {}
        for log in logs:
            last = None
            for e in log.elements:
                if type(e) is Symbol:
                    hits[e.id] = hits.get(e.id, 0) + 1
                    last = e.id
                elif type(e) is RepeatCount:
                    hits[last] += e.count - 1
        return hits

    def check_replay(self, feeds, specs, config, sliced):
        """Feed each of ``feeds`` as a list, a tuple and a generator; each
        gives the oracle's logs and wins."""
        trace = [t for feed in feeds for t in feed]
        limit = config.slice_size_bytes if sliced else None
        want = oracle_slice_compress(trace, specs, config) if sliced else [
            oracle_compress(trace, specs, config)]
        hits = {s.id: 0 for s in specs}
        hits.update(self.oracle_hits(want))
        for shape in (list, tuple, lambda feed: (t for t in feed)):
            eng = Engine(specs, config)
            ours = [log for feed in feeds for log in eng.feed(shape(feed), limit)]
            ours.append(eng.finalize())
            assert len(ours) == len(want)
            for got, expected in zip(ours, want):
                assert_same_log(got, expected, config)
            assert eng.hits == hits

    @pytest.mark.parametrize("config", CONFIG_GRID, ids=lambda c: f"{c.mode.value}{c.addr_width}")
    @pytest.mark.parametrize("n", [1, 10, 32, 65, 70])
    def test_block_run_lengths(self, config, n):
        # the first copy is a win, the second coalesces; then a run of r
        # copies is replayed, r around one and two blocks of c copies
        body, other = self.body_of(config, n)
        specs = [SubPathSpec(1, [t if config.mode is Mode.PAIR else t.dest for t in body])]
        c = max(1, 64 // n)
        for r in (c - 1, c, c + 1, 2 * c + 1):
            run = [other] + body * (2 + r)
            ends = [[]]  # the input ends with the run
            ends += [body[:k] for k in {1, n // 2, n - 1} if 0 < k < n]  # in a partial copy
            ends += [body[:k] + [other] + body * 3 for k in {0, n - 1}]  # at a mismatch
            for end in ends:
                self.check_replay([run + end], specs, config, sliced=False)
                # the same run split between two feeds, each replayed alone
                cut = len(run) // 2
                self.check_replay([run[:cut], run[cut:] + end], specs, config, sliced=False)

    @pytest.mark.parametrize("config", CONFIG_GRID, ids=lambda c: f"{c.mode.value}{c.addr_width}")
    @pytest.mark.parametrize("n", [1, 2])
    def test_block_run_from_near_saturation(self, config, n):
        # a first feed leaves the counter at start - 1; in the second its
        # first copy coalesces to start, and the rest of it is replayed
        # from there: the block stops short of MAX_REPEAT_COUNT, the
        # counter saturates copy by copy and a new symbol starts
        body, _ = self.body_of(config, n)
        specs = [SubPathSpec(1, [t if config.mode is Mode.PAIR else t.dest for t in body])]
        c = 64 // n
        starts = {MAX_REPEAT_COUNT - k for k in (0, 1, 2)}
        starts |= {MAX_REPEAT_COUNT - c + k for k in (-1, 0, 1)}
        for start in sorted(starts):
            feeds = [body * (start - 1), body * (2 * c + 3)]
            self.check_replay(feeds, specs, config, sliced=False)

    @pytest.mark.parametrize("config", CONFIG_GRID, ids=lambda c: f"{c.mode.value}{c.addr_width}")
    @pytest.mark.parametrize("n", [1, 4, 65])
    def test_room_stops_run(self, config, n):
        # slices of 6 raw elements, or of one copy read raw: behind up to
        # 7 raw transfers, room stops the replay at its start, or the
        # copies that do fit are replayed and the rest stepped
        body, other = self.body_of(config, n)
        specs = [SubPathSpec(1, [t if config.mode is Mode.PAIR else t.dest for t in body])]
        c = max(1, 64 // n)
        for size in {6, n + 1}:
            budget = dataclasses.replace(config, slice_size_bytes=size * config.raw_element_bytes)
            for noise in range(8):
                trace = [other] * noise + body * (3 * c + 2)
                self.check_replay([trace], specs, budget, sliced=True)

    @pytest.mark.parametrize("config", CONFIG_GRID, ids=lambda c: f"{c.mode.value}{c.addr_width}")
    def test_room_stops_run_at_saturation(self, config):
        # slices of 6 raw elements: behind 0-5 raw transfers the replay
        # starts or not, and the new symbol word after MAX_REPEAT_COUNT
        # copies stops it behind 4 (pair mode) or 3 (dest mode)
        body, other = self.body_of(config, 1)
        specs = [SubPathSpec(1, [body[0] if config.mode is Mode.PAIR else body[0].dest])]
        budget = dataclasses.replace(config, slice_size_bytes=6 * config.raw_element_bytes)
        for noise in range(6):
            trace = [other] * noise + body * (MAX_REPEAT_COUNT + 66)
            self.check_replay([trace], specs, budget, sliced=True)


# --- the input's own address objects ------------------------------------------

class CountedAddr(int):
    """An address whose ``==`` counts its calls; it hashes as its value."""

    calls = 0
    __hash__ = int.__hash__

    def __eq__(self, other):
        CountedAddr.calls += 1
        return int.__eq__(self, other)


@pytest.mark.parametrize("mode", [Mode.PAIR, Mode.DEST])
@pytest.mark.parametrize("shape", [list, tuple])
def test_replay_compares_the_inputs_own_addresses(mode, shape):
    # a spec of plain ints, fed copies of its body as fresh transfers over
    # one set of addresses: once the engine holds those addresses, the
    # replay finds each equal by identity, whatever the number of copies
    config = EngineConfig(mode=mode)
    addrs = [CountedAddr(0x0400 + 0x10 * i) for i in range(6)]
    body = list(zip(addrs, addrs[1:] + addrs[:1]))
    pair = mode is Mode.PAIR
    entries = [Transfer(int(s), int(d)) if pair else int(d) for s, d in body]
    spec = SubPathSpec(1, entries)
    held = [*spec.entries]

    def calls(k):
        trace = shape(Transfer(s, d) for _ in range(k) for s, d in body)
        CountedAddr.calls = 0
        eng = Engine([spec], config)
        eng.feed(trace)
        assert eng.hits == {1: k}
        assert eng.finalize().words == (1, config.counter_tag | k)
        return CountedAddr.calls

    assert calls(10) == calls(1000)
    assert all(a is b for a, b in zip(spec.entries, held))


def fresh(x: int) -> int:
    """An int equal to ``x``, a new object unless CPython caches it."""
    return int(repr(x))


def with_fresh_ints(specs, pair):
    return [SubPathSpec(s.id, tuple(Transfer(fresh(e[0]), fresh(e[1])) if pair else fresh(e)
                                    for e in s.entries)) for s in specs]


@given(st.one_of(grid_instances(), burst_instances()), st.data())
@settings(max_examples=200, deadline=None)
def test_specs_of_other_int_objects_give_the_same_logs(inst, data):
    # equal specs built from other objects than the trace's, directly or
    # through block memory, give the oracle's slices, words and hits; a
    # second feed of fresh objects meets the objects the first one left
    trace, specs, config = inst
    pair = config.mode is Mode.PAIR
    decoded = codec.deserialize_blockmem(codec.serialize_blockmem(specs, config), config)
    other = [Transfer(fresh(t.src), fresh(t.dest)) if pair else Transfer(t.src, fresh(t.dest))
             for t in trace]
    limit = config.slice_size_bytes
    want = oracle_slice_compress(trace, specs, config)
    hits = oracle_hits([e for log in want for e in log.elements], specs)
    shape = data.draw(st.sampled_from(SHAPES))
    k = data.draw(st.integers(0, len(trace)))
    for variant in (specs, with_fresh_ints(specs, pair), decoded):
        items = [[*s.entries] for s in variant]
        for parts in ([trace], [trace[:k], other[k:]]):
            eng = Engine(variant, config)
            logs = [log for part in parts for log in eng.feed(shape(part), limit)]
            logs.append(eng.finalize())
            assert len(logs) == len(want)
            for got, expected in zip(logs, want):
                assert_same_log(got, expected, config)
            assert eng.hits == hits
        assert all(a is b for s, i in zip(variant, items) for a, b in zip(s.entries, i))


def test_each_spec_entry_is_adopted_once(monkeypatch):
    # a generated branchy pass with specs decoded from block memory: every
    # step is a fresh Transfer over the CFG's own ints, and the specs hold
    # other int objects; an entry once adopted holds the trace's ints, so
    # an equal transfer met in another state does not adopt it again
    cfg, profile = fixtures.branchy_cfg(), fixtures.branchy_profile()
    prior = workload.generate_trace(cfg, profile)
    specs = policy_top(enumerate_candidates([encode_raw(prior, PAIR16)], (2, 16)), 8)
    specs = codec.deserialize_blockmem(codec.serialize_blockmem(specs, PAIR16), PAIR16)
    trace = workload.generate_trace(
        cfg, workload.WorkloadProfile(seed=1, steps=20_000, loop_bias=profile.loop_bias))
    calls = []
    adopt = Engine._adopt

    def counted(self, k, item):
        calls.append((k, item))
        adopt(self, k, item)

    monkeypatch.setattr(Engine, "_adopt", counted)
    assert slice_compress(trace, specs, PAIR16) == oracle_slice_compress(trace, specs, PAIR16)
    assert calls
    assert len(calls) <= sum(len(set(s.entries)) for s in specs)
    assert len(set(calls)) == len(calls)


def test_prover_keeps_its_specs_across_sessions():
    # the second session's empty block memory keeps the installed set
    config = EngineConfig(slice_size_bytes=64)
    body = [Transfer(0x0400, 0x0500), Transfer(0x0500, 0x0600), Transfer(0x0600, 0x0400)]
    verifier, prover = protocol.Verifier(bytes(32), config), protocol.Prover(bytes(32), config)
    installed = entries = None
    for specs in ([SubPathSpec(1, body)], ()):
        prover.handle_request(verifier.open_session(specs).encode())
        if installed is None:
            installed, entries = prover.specs, [[*s.entries] for s in prover.specs]
        prover.run([Transfer(fresh(s), fresh(d)) for s, d in body * 50])
        assert prover.specs is installed
        assert all(a is b for s, i in zip(installed, entries) for a, b in zip(s.entries, i))
