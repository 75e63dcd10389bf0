import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfaudit import fixtures, protocol
from cfaudit.cfg import build_cfg
from cfaudit.codec import deserialize_log, encode_raw, serialize_log
from cfaudit.engine import expand
from cfaudit.errors import (
    AuthError,
    CapacityExceeded,
    ConfigMismatch,
    DuplicateId,
    FaultOutOfRange,
    MalformedFrame,
    MalformedLog,
    ModeMismatch,
    ProtocolError,
    TooManySpecs,
    UnknownSymbol,
)
from cfaudit.fixtures import branchy_cfg, branchy_profile, sensor_cfg, sensor_profile
from cfaudit.model import EngineConfig, LogFormat, Mode, SubPathSpec, Transfer, make_log
from cfaudit.protocol import (
    ACCEPT,
    ZERO_DIGEST,
    Channel,
    ChannelFaults,
    EvidenceSlice,
    Outcome,
    Prover,
    Request,
    Verdict,
    Verifier,
    _slice_mac,
    make_request,
    new_challenge,
    validate_against_cfg,
)
from cfaudit.workload import generate_trace

from conftest import CONFIG_GRID
from test_fixture_parity import CASES, fixture_inputs

KEY = bytes(range(32))
OTHER_KEY = bytes(range(1, 33))
CONFIG = EngineConfig(slice_size_bytes=64)

A, B, D, G = 0x0400, 0x0500, 0x0600, 0x0700
SPEC = SubPathSpec(1, (Transfer(A, B), Transfer(B, D)))
TRACE = [Transfer(A, B), Transfer(B, D), Transfer(D, G)] * 30
DEST_CONFIG = EngineConfig(mode=Mode.DEST, slice_size_bytes=64)
DEST_SPEC = SubPathSpec(1, (B, D))


def session(specs=(SPEC,), trace=TRACE, faults=None, config=CONFIG, key=KEY):
    verifier = Verifier(key, config)
    request = verifier.open_session(specs)
    prover = Prover(key, config)
    prover.handle_request(request.encode())
    slices = prover.run(trace)
    channel = Channel(faults)
    for s in slices:
        channel.send(s.encode())
    results = [verifier.verify_slice(f) for f in channel.drain()]
    return verifier, results, slices


class TestRequest:
    def test_wire_round_trip(self):
        req = make_request(KEY, new_challenge(), [SPEC], CONFIG)
        assert Request.decode(req.encode()) == req

    def test_empty_specs_keep_current(self):
        prover = Prover(KEY, CONFIG, specs=(SPEC,))
        req = make_request(KEY, new_challenge(), [], CONFIG)
        prover.handle_request(req.encode())
        assert prover.specs == (SPEC,)

    def test_nonempty_replaces(self):
        other = SubPathSpec(2, (Transfer(D, G),))
        prover = Prover(KEY, CONFIG, specs=(SPEC,))
        prover.handle_request(make_request(KEY, new_challenge(), [other], CONFIG).encode())
        assert prover.specs == (other,)

    def test_bit_flip_rejected_and_state_unchanged(self):
        prover = Prover(KEY, CONFIG, specs=())
        req = make_request(KEY, new_challenge(), [SPEC], CONFIG).encode()
        rng = random.Random(1)
        for _ in range(30):
            bit = rng.randrange(len(req) * 8)
            bad = bytearray(req)
            bad[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises((AuthError, Exception)):
                prover.handle_request(bytes(bad))
            assert prover.specs == ()
            assert prover.challenge is None

    def test_distinct_challenges_distinct_macs(self):
        r1 = make_request(KEY, b"\x01" * 16, [SPEC], CONFIG)
        r2 = make_request(KEY, b"\x02" * 16, [SPEC], CONFIG)
        assert r1.mac != r2.mac

    def test_wrong_key_rejected(self):
        req = make_request(OTHER_KEY, new_challenge(), [SPEC], CONFIG)
        with pytest.raises(AuthError):
            Prover(KEY, CONFIG).handle_request(req.encode())

    def test_decode_rejects_mode_byte_outside_0_1(self):
        frame = bytearray(make_request(KEY, new_challenge(), [], DEST_CONFIG).encode())
        frame[16] = 7
        with pytest.raises(MalformedFrame):
            Request.decode(bytes(frame))

    def test_decode_rejects_width_outside_16_32(self):
        frame = bytearray(make_request(KEY, new_challenge(), [SPEC], CONFIG).encode())
        frame[17] = 8
        with pytest.raises(MalformedFrame):
            Request.decode(bytes(frame))

    def test_non_canonical_mode_byte_does_not_install(self):
        # byte 16 of a dest-mode request changed from 1 to 7
        prover = Prover(KEY, DEST_CONFIG)
        frame = bytearray(make_request(KEY, new_challenge(), [DEST_SPEC], DEST_CONFIG).encode())
        frame[16] = 7
        with pytest.raises(MalformedFrame):
            prover.handle_request(bytes(frame))
        assert prover.specs == () and prover.challenge is None

    def test_request_mac_covers_received_bytes(self, monkeypatch):
        # even a decoder that read mode byte 7 as dest mode would not let
        # the frame through: the MAC is checked over the bytes received
        def lenient(cls, frame):
            return Request(frame[:16], frame[26:-32], Mode.DEST, frame[17],
                           int.from_bytes(frame[18:22], "little"), frame[-32:])

        frame = bytearray(make_request(KEY, new_challenge(), [DEST_SPEC], DEST_CONFIG).encode())
        frame[16] = 7
        monkeypatch.setattr(Request, "decode", classmethod(lenient))
        prover = Prover(KEY, DEST_CONFIG)
        with pytest.raises(AuthError):
            prover.handle_request(bytes(frame))
        assert prover.specs == () and prover.challenge is None

    def test_more_specs_than_detectors_rejected_at_request(self):
        specs = [SubPathSpec(i, (Transfer(A + i, B),)) for i in range(1, 10)]
        with pytest.raises(TooManySpecs):
            make_request(KEY, new_challenge(), specs, CONFIG)
        with pytest.raises(TooManySpecs):
            Verifier(KEY, CONFIG).open_session(specs)
        assert make_request(KEY, new_challenge(), specs[:8], CONFIG).blockmem

    def test_config_echo_mismatch(self):
        req = make_request(KEY, new_challenge(), [SPEC], CONFIG)
        other = Prover(KEY, EngineConfig(slice_size_bytes=128))
        with pytest.raises(ConfigMismatch):
            other.handle_request(req.encode())


class TestSliceStream:
    def test_benign_run_accepts_everything(self):
        verifier, results, slices = session()
        assert all(r == ACCEPT for r in results)
        assert slices[-1].is_final and not any(s.is_final for s in slices[:-1])
        assert [s.seq for s in slices] == list(range(len(slices)))
        verdict = verifier.assemble()
        assert verdict.outcome is Outcome.AUTHENTIC_AND_VALID
        assert verdict.raw_log == encode_raw(TRACE, CONFIG)

    def test_empty_trace_single_final_slice(self):
        verifier, results, slices = session(trace=[])
        assert len(slices) == 1 and slices[0].is_final
        assert slices[0].payload == b""
        assert verifier.assemble().outcome is Outcome.AUTHENTIC_AND_VALID

    def test_payload_flip_rejected(self):
        faults = ChannelFaults(flip={1: 9 * 8 + 3})  # inside payload
        verifier, results, _ = session(faults=faults)
        assert "bad_mac" in results
        assert verifier.assemble().outcome is Outcome.AUTH_FAILURE

    def test_replay_second_copy_rejected(self):
        faults = ChannelFaults(replay={0})
        verifier, results, _ = session(faults=faults)
        assert results[0] == ACCEPT and results[1] == "bad_seq"
        # the original stream still completes
        assert verifier.assemble().outcome is Outcome.AUTHENTIC_AND_VALID

    def test_dropped_slice_breaks_sequence(self):
        faults = ChannelFaults(drop={0})
        verifier, results, _ = session(faults=faults)
        assert all(r == "bad_seq" for r in results)
        assert verifier.assemble().outcome is Outcome.AUTH_FAILURE

    def test_reordered_slices_rejected(self):
        faults = ChannelFaults(reorder={0})
        verifier, results, _ = session(faults=faults)
        assert results[0] == "bad_seq"

    def test_slice_after_final_rejected(self):
        verifier, results, slices = session()
        assert verifier.verify_slice(slices[-1].encode()) == "after_final"

    def test_cross_challenge_slices_rejected(self):
        v1 = Verifier(KEY, CONFIG)
        req1 = v1.open_session((SPEC,), challenge=b"\x01" * 16)
        p = Prover(KEY, CONFIG)
        p.handle_request(req1.encode())
        slices = p.run(TRACE)

        v2 = Verifier(KEY, CONFIG)
        v2.open_session((SPEC,), challenge=b"\x02" * 16)
        assert v2.verify_slice(slices[0].encode()) == "bad_mac"

    def test_stale_request_replay_detected_via_challenge(self):
        v = Verifier(KEY, CONFIG)
        old_request = v.open_session((SPEC,), challenge=b"\x0a" * 16)
        fresh_challenge = b"\x0b" * 16
        v.open_session((SPEC,), challenge=fresh_challenge)
        # attacker replays the old (authentic) request to the prover
        p = Prover(KEY, CONFIG)
        p.handle_request(old_request.encode())
        slices = p.run(TRACE)
        assert v.verify_slice(slices[0].encode()) == "bad_mac"

    def test_slice_macs_follow_the_installed_challenge(self):
        # each slice carries the MAC of its body under the challenge
        # installed when it was made; a forged request changes neither side
        verifier = Verifier(KEY, CONFIG)
        prover = Prover(KEY, CONFIG)
        for challenge in (b"\x03" * 16, b"\x04" * 16):
            prover.handle_request(verifier.open_session((SPEC,), challenge=challenge).encode())
            forged = bytearray(Verifier(KEY, CONFIG).open_session((SPEC,)).encode())
            forged[-1] ^= 1
            with pytest.raises(AuthError):
                prover.handle_request(bytes(forged))
            slices = prover.run(TRACE, image_digest=bytes(range(32)))
            assert len(slices) > 1
            for s in slices:
                assert s.mac == _slice_mac(KEY, challenge, s.body())
                assert verifier.verify_slice(s.encode()) == ACCEPT
            assert verifier.assemble().outcome is Outcome.AUTHENTIC_AND_VALID

    def test_malformed_frame(self):
        verifier = Verifier(KEY, CONFIG)
        verifier.open_session((SPEC,))
        assert verifier.verify_slice(b"\x00\x01") == "malformed"

    def test_verify_without_session(self):
        verifier = Verifier(KEY, CONFIG)
        with pytest.raises(ProtocolError):
            verifier.verify_slice(b"\x00" * 50)

    def test_prover_run_without_request(self):
        with pytest.raises(ProtocolError):
            Prover(KEY, CONFIG).run(TRACE)

    def test_final_digest_is_covered_by_mac(self):
        digest = bytes(range(100, 132))
        verifier = Verifier(KEY, CONFIG)
        request = verifier.open_session((SPEC,))
        prover = Prover(KEY, CONFIG)
        prover.handle_request(request.encode())
        slices = prover.run(TRACE, image_digest=digest)
        frames = [s.encode() for s in slices]
        # flip a digest bit in the final frame
        bad = bytearray(frames[-1])
        bad[-33] ^= 0x01
        for f in frames[:-1]:
            assert verifier.verify_slice(f) == ACCEPT
        assert verifier.verify_slice(bytes(bad)) == "bad_mac"
        assert verifier.verify_slice(frames[-1]) == ACCEPT
        verdict = verifier.assemble(expected_digest=digest)
        assert verdict.outcome is Outcome.AUTHENTIC_AND_VALID
        assert verdict.image_digest == digest

    def test_expected_digest_mismatch(self):
        verifier, _, _ = session()
        verdict = verifier.assemble(expected_digest=bytes(32))
        assert verdict.outcome is Outcome.AUTHENTIC_AND_VALID  # default digest is zero
        verdict = verifier.assemble(expected_digest=b"\xff" * 32)
        assert verdict.outcome is Outcome.AUTH_FAILURE and verdict.reason == "bad_digest"


class TestChannelFaultRange:
    """A fault names a frame that was sent and a bit of that frame."""

    @staticmethod
    def channel(faults):
        channel = Channel(faults)
        channel.send(b"abcd")
        channel.send(b"xyz")
        return channel

    @pytest.mark.parametrize("faults, message", [
        (ChannelFaults(drop={2}), "drop frame 2 is not one of the 2 frames sent"),
        (ChannelFaults(replay={0, 99}), "replay frame 99 is not one of the 2 frames sent"),
        (ChannelFaults(flip={2: 0}), "flip frame 2 is not one of the 2 frames sent"),
        (ChannelFaults(reorder={2}), "reorder frame 2 is not one of the 2 frames sent"),
        (ChannelFaults(reorder={1}), "reorder frame 1 is the last of the 2 frames sent"),
        (ChannelFaults(reorder={0}, drop={1}),
         "reorder frame 0 swaps with frame 1, which is dropped"),
        (ChannelFaults(drop={-1}), "drop frame -1 is not one of the 2 frames sent"),
        (ChannelFaults(flip={1: 24}), "flip bit 24 is not one of frame 1's 24 bits"),
        (ChannelFaults(flip={0: 99999}), "flip bit 99999 is not one of frame 0's 32 bits"),
        (ChannelFaults(flip={0: -1}), "flip bit -1 is not one of frame 0's 32 bits"),
    ], ids=["drop", "replay", "flip", "reorder", "reorder-last", "reorder-dropped", "negative",
         "bit", "far-bit", "negative-bit"])
    def test_fault_outside_what_was_sent_raises(self, faults, message):
        # it would otherwise be ignored, or flip some other bit
        with pytest.raises(FaultOutOfRange) as info:
            self.channel(faults).drain()
        assert str(info.value) == message

    def test_reorder_with_a_dropped_successor_raises_before_a_later_frame(self):
        # the swap must not reach past the dropped frame to the next one
        channel = self.channel(ChannelFaults(reorder={0}, drop={1}))
        channel.send(b"c")
        with pytest.raises(FaultOutOfRange) as info:
            channel.drain()
        assert str(info.value) == "reorder frame 0 swaps with frame 1, which is dropped"

    @pytest.mark.parametrize("faults, message", [
        (ChannelFaults(reorder={0, 1}), "reorder frame 1 would undo the reorder of frame 0"),
        (ChannelFaults(drop={0}, replay={0}), "replay frame 0 is dropped"),
        (ChannelFaults(drop={0}, flip={0: 3}), "flip frame 0 is dropped"),
        (ChannelFaults(drop={1}, reorder={1}), "reorder frame 1 is dropped"),
    ], ids=["adjacent-reorders", "replay-dropped", "flip-dropped", "reorder-dropped-frame"])
    def test_fault_that_injects_nothing_raises(self, faults, message):
        # three frames sent; each schedule would deliver what a plainer one does
        channel = self.channel(faults)
        channel.send(b"c")
        with pytest.raises(FaultOutOfRange) as info:
            channel.drain()
        assert str(info.value) == message

    def test_reorders_permute_the_send_order(self):
        # disjoint swaps of the frames as sent; a replay follows its frame
        def drain(faults):
            channel = Channel(faults)
            for frame in (b"a", b"b", b"c", b"d"):
                channel.send(frame)
            return channel.drain()

        assert drain(ChannelFaults(reorder={0, 2})) == [b"b", b"a", b"d", b"c"]
        assert drain(ChannelFaults(reorder={0}, replay={0})) == [b"b", b"a", b"a", b"c", b"d"]
        assert drain(ChannelFaults(reorder={1}, drop={0})) == [b"c", b"b", b"d"]

    def test_last_frame_and_last_bit_are_faulted(self):
        faults = ChannelFaults(drop={0}, flip={1: 23}, replay={1})
        assert self.channel(faults).drain() == [b"xy\xfa", b"xy\xfa"]
        assert self.channel(ChannelFaults(drop={1})).drain() == [b"abcd"]


class TestAssembly:
    def test_incomplete_without_final(self):
        verifier = Verifier(KEY, CONFIG)
        request = verifier.open_session((SPEC,))
        prover = Prover(KEY, CONFIG)
        prover.handle_request(request.encode())
        slices = prover.run(TRACE)
        for s in slices[:-1]:
            assert verifier.verify_slice(s.encode()) == ACCEPT
        assert verifier.assemble().outcome is Outcome.INCOMPLETE

    def test_baseline_transmits_exact_raw_encoding(self):
        verifier, results, slices = session(specs=())
        assert all(r == ACCEPT for r in results)
        joined = b"".join(s.payload for s in slices)
        assert joined == serialize_log(encode_raw(TRACE, CONFIG), CONFIG)

    def test_cfg_validation_detects_injected_edge(self):
        cfg = sensor_cfg()
        trace = generate_trace(cfg, sensor_profile(seed=3, steps=200))
        evil = Transfer(0x0400, 0x0508)  # not a CFG edge
        trace.insert(57, evil)
        verifier, results, _ = session(specs=(), trace=trace, config=CONFIG)
        verdict = verifier.assemble(cfg=cfg)
        assert verdict.outcome is Outcome.AUTHENTIC_BUT_INVALID_PATH
        assert verdict.invalid_index == 57

    def test_cfg_validation_accepts_generated_walk(self):
        cfg = sensor_cfg()
        trace = generate_trace(cfg, sensor_profile(seed=4, steps=300))
        verifier, _, _ = session(specs=(), trace=trace)
        assert verifier.assemble(cfg=cfg).outcome is Outcome.AUTHENTIC_AND_VALID

    def test_expansion_respects_slice_resets(self):
        # heavy repetition across many tiny slices still reassembles exactly
        config = EngineConfig(slice_size_bytes=16)
        trace = [Transfer(A, B), Transfer(B, D)] * 200
        verifier, results, _ = session(trace=trace, config=config)
        assert all(r == ACCEPT for r in results)
        verdict = verifier.assemble()
        assert verdict.raw_log == encode_raw(trace, config)


def test_validate_against_cfg_empty_log():
    cfg = sensor_cfg()
    assert validate_against_cfg(encode_raw([], CONFIG), cfg) is None


@pytest.mark.parametrize(
    "config",
    [
        EngineConfig(mode=Mode.DEST, slice_size_bytes=32),
        EngineConfig(addr_width=32, slice_size_bytes=96),
        EngineConfig(mode=Mode.DEST, addr_width=32, slice_size_bytes=48),
    ],
    ids=["dest16", "pair32", "dest32"],
)
def test_end_to_end_other_modes_and_widths(config):
    if config.mode is Mode.DEST:
        spec = SubPathSpec(1, (B, D))
    else:
        spec = SubPathSpec(1, (Transfer(A, B), Transfer(B, D)))
    trace = [Transfer(A, B), Transfer(B, D), Transfer(D, G)] * 25
    verifier, results, _ = session(specs=(spec,), trace=trace, config=config)
    assert all(r == ACCEPT for r in results)
    verdict = verifier.assemble()
    assert verdict.outcome is Outcome.AUTHENTIC_AND_VALID
    assert verdict.raw_log == encode_raw(trace, config)


def test_compression_reduces_slice_count():
    trace = [Transfer(A, B), Transfer(B, D)] * 300
    _, _, with_specs = session(trace=trace)
    _, _, baseline = session(specs=(), trace=trace)
    assert len(with_specs) < len(baseline)


def test_keep_specs_session_uses_installed_specs():
    verifier = Verifier(KEY, CONFIG)
    prover = Prover(KEY, CONFIG)
    for specs in ((SPEC,), ()):  # install, then keep
        prover.handle_request(verifier.open_session(specs).encode())
        assert prover.specs == verifier.session_specs == (SPEC,)
        for s in prover.run(TRACE):
            assert verifier.verify_slice(s.encode()) == ACCEPT
        verdict = verifier.assemble()
        assert verdict.outcome is Outcome.AUTHENTIC_AND_VALID
        assert verdict.raw_log == encode_raw(TRACE, CONFIG)


def mac_frame(challenge, seq, final, payload, key=KEY):
    """An authentic slice frame carrying ``payload`` as it is."""
    s = EvidenceSlice(seq, final, payload, b"", ZERO_DIGEST if final else None)
    return replace(s, mac=_slice_mac(key, challenge, s.body())).encode()


@pytest.mark.parametrize("payload", [
    b"\x00\x00",  # zero word: neither symbol nor address
    b"\x09\x00",  # symbol 9 has no installed spec
    b"\x02\x80",  # repeat count without a symbol
    b"\x00",  # truncated word
], ids=["zero_word", "unknown_symbol", "bare_count", "truncated"])
def test_authentic_undecodable_payload_is_a_verdict(payload):
    verifier = Verifier(KEY, CONFIG)
    verifier.open_session((SPEC,))
    assert verifier.verify_slice(mac_frame(verifier.challenge, 0, True, payload)) == ACCEPT
    verdict = verifier.assemble(cfg=sensor_cfg())
    assert verdict.outcome is Outcome.AUTHENTIC_BUT_INVALID_PATH
    assert verdict.reason == "malformed_payload"
    assert verdict.raw_log is None and verdict.invalid_index is None


REASONS = {ACCEPT, "malformed", "after_final", "bad_seq", "bad_mac"}
FAULTS = ["none", "flip", "drop", "replay", "swap"]
# one step of a verifier's life: each runs verify_slice or assemble
steps = st.one_of(
    st.tuples(st.just("open"), st.booleans()),  # install (True) or keep specs
    st.tuples(st.just("junk"), st.binary(max_size=64)),  # arbitrary frame bytes
    st.tuples(st.just("forge"), st.integers(0, 3), st.booleans(), st.binary(max_size=8)),
    st.tuples(st.just("stream"), st.integers(0, 60), st.sampled_from(FAULTS),
              st.integers(0, 2**16)),
    st.tuples(st.just("stale"), st.integers(0, 2**16)),  # a frame of any earlier session
    st.tuples(st.just("assemble"), st.booleans()),
)


@given(st.lists(steps, max_size=10), st.sampled_from([CONFIG, DEST_CONFIG]))
@settings(max_examples=150, deadline=None)
def test_verifier_never_raises(plan, config):
    """verify_slice and assemble answer any frames, authentic or not, in
    any order and across interleaved sessions, without raising."""
    spec = SPEC if config.mode is Mode.PAIR else DEST_SPEC
    graph = sensor_cfg()
    verifier = Verifier(KEY, config)
    prover = Prover(KEY, config)
    sent: list[bytes] = []
    prover.handle_request(verifier.open_session((spec,)).encode())
    for step in plan:
        kind, frames = step[0], []
        if kind == "open":
            prover.handle_request(verifier.open_session((spec,) if step[1] else ()).encode())
        elif kind == "junk":
            frames = [step[1]]
        elif kind == "forge":
            frames = [mac_frame(verifier.challenge, *step[1:])]
        elif kind == "stream":
            _, n, fault, seed = step
            frames = [s.encode() for s in prover.run(TRACE[:n])]
            rng = random.Random(seed)
            faults = ChannelFaults()
            k = rng.randrange(len(frames))
            if fault == "flip":
                faults.flip[k] = rng.randrange(8 * len(frames[k]))
            elif fault == "drop":
                faults.drop.add(k)
            elif fault == "replay":
                faults.replay.add(k)
            elif fault == "swap" and len(frames) > 1:  # the last frame has no successor
                faults.reorder.add(rng.randrange(len(frames) - 1))
            channel = Channel(faults)
            for f in frames:
                channel.send(f)
            frames = channel.drain()
        elif kind == "stale":
            frames = [sent[step[1] % len(sent)]] if sent else []
        else:
            verdict = verifier.assemble(cfg=graph if step[1] else None)
            assert isinstance(verdict, Verdict)
        for f in frames:
            assert verifier.verify_slice(f) in REASONS
        sent.extend(frames)
    assert isinstance(verifier.assemble(cfg=graph), Verdict)


@pytest.mark.parametrize("specs, capacity, error", [
    ((SubPathSpec(1, (Transfer(D, G),)),), 2, CapacityExceeded),
    (tuple(SubPathSpec(i, (Transfer(A + i, B),)) for i in range(1, 10)), None, TooManySpecs),
], ids=["capacity", "too_many_specs"])
def test_failed_open_session_leaves_the_session_as_it_was(specs, capacity, error):
    verifier = Verifier(KEY, CONFIG)
    prover = Prover(KEY, CONFIG)
    prover.handle_request(verifier.open_session((SPEC,)).encode())
    frames = [s.encode() for s in prover.run(TRACE[:15])]
    challenge = verifier.challenge
    with pytest.raises(error):
        verifier.open_session(specs, capacity_bytes=capacity)
    assert verifier.session_specs == (SPEC,) and verifier.challenge == challenge
    # the open session goes on, and a later keep-specs session keeps SPEC
    for f in frames:
        assert verifier.verify_slice(f) == ACCEPT
    assert verifier.assemble().raw_log == encode_raw(TRACE[:15], CONFIG)
    prover.handle_request(verifier.open_session(()).encode())
    for s in prover.run(TRACE[:15]):
        assert verifier.verify_slice(s.encode()) == ACCEPT
    verdict = verifier.assemble()
    assert verdict.outcome is Outcome.AUTHENTIC_AND_VALID
    assert verdict.raw_log == encode_raw(TRACE[:15], CONFIG)


def test_prover_refuses_more_specs_than_its_engine_holds():
    # a request does not echo max_sub_paths: the prover counts the specs
    # before it installs any, so its specs and challenge stay as they were
    verifier = Verifier(KEY, CONFIG)
    prover = Prover(KEY, replace(CONFIG, max_sub_paths=2))
    prover.handle_request(verifier.open_session((SPEC,)).encode())
    challenge = prover.challenge
    many = tuple(SubPathSpec(i, (Transfer(A + i, B),)) for i in range(1, 5))
    with pytest.raises(TooManySpecs, match="4 specs, engine supports 2"):
        prover.handle_request(Verifier(KEY, CONFIG).open_session(many).encode())
    assert prover.specs == (SPEC,) and prover.challenge == challenge
    for s in prover.run(TRACE[:15]):
        assert verifier.verify_slice(s.encode()) == ACCEPT
    verdict = verifier.assemble()
    assert verdict.outcome is Outcome.AUTHENTIC_AND_VALID
    assert verdict.raw_log == encode_raw(TRACE[:15], CONFIG)


@pytest.mark.parametrize("config, specs, error", [
    (replace(CONFIG, max_sub_paths=2),
     tuple(SubPathSpec(i, (Transfer(A + i, B),)) for i in range(1, 5)), TooManySpecs),
    (CONFIG, (SPEC, SubPathSpec(1, (Transfer(B, D),))), DuplicateId),
    (CONFIG, (SubPathSpec(1, (B, D)),), ModeMismatch),
    (DEST_CONFIG, (SPEC,), ModeMismatch),
], ids=["too-many", "duplicate-id", "dest-spec", "pair-spec"])
def test_prover_checks_the_specs_it_is_built_with(config, specs, error):
    # refused at construction, as a request carrying them would be, not
    # first in run after a keep-specs request was accepted
    with pytest.raises(error):
        Prover(KEY, config, specs)


@pytest.mark.parametrize("challenge", [b"", b"abc"], ids=["empty", "short"])
def test_wrong_length_challenge_leaves_the_session_as_it_was(challenge):
    # an empty challenge is refused like any other wrong length, not replaced
    verifier = Verifier(KEY, CONFIG)
    verifier.open_session((SPEC,))
    before = verifier.challenge
    with pytest.raises(ValueError, match="challenge must be 16 bytes"):
        verifier.open_session((), challenge=challenge)
    assert verifier.challenge == before and verifier.session_specs == (SPEC,)


# --- judging payload words in place equals full expansion -------------------

GRAPH = sensor_cfg()
ROGUE = Transfer(A, 0x0508)  # no edge of either fixture's CFG leads to 0x0508


def payloads_of(trace, specs, config):
    """The payloads a prover holding ``specs`` sends for ``trace``."""
    prover = Prover(KEY, config, specs)
    prover.handle_request(make_request(KEY, new_challenge(), (), config).encode())
    return [s.payload for s in prover.run(trace)]


def expanded_verdict(payloads, specs, config, cfg):
    """(outcome, reason, invalid_index, raw_log) of a session judged by full
    expansion: every payload decoded and expanded, then the whole raw log
    checked against ``cfg``."""
    elements: list = []
    try:
        for payload in payloads:
            log = deserialize_log(payload, config, LogFormat.MEMORY_IMAGE)
            elements.extend(expand(log, specs, config).elements)
    except (MalformedLog, UnknownSymbol, ModeMismatch):
        return Outcome.AUTHENTIC_BUT_INVALID_PATH, "malformed_payload", None, None
    raw = make_log(elements, config)
    bad = None if cfg is None else validate_against_cfg(raw, cfg)
    outcome = Outcome.AUTHENTIC_AND_VALID if bad is None else Outcome.AUTHENTIC_BUT_INVALID_PATH
    return outcome, None, bad, raw


def judged(payloads, specs, config, cfg):
    """The verifier's verdict on authentic slices carrying ``payloads``."""
    verifier = Verifier(KEY, config)
    verifier.open_session(specs)
    for i, payload in enumerate(payloads):
        frame = mac_frame(verifier.challenge, i, i == len(payloads) - 1, payload)
        assert verifier.verify_slice(frame) == ACCEPT
    return verifier.assemble(cfg=cfg)


def junk_words(kind, config):
    """Words no memory-image log holds under specs with ids below 200; in
    dest mode ``pair_dest`` and ``truncated_pair`` decode as addresses."""
    words = {"zero": [0], "unknown_symbol": [200], "gap": [0x100],
             "bare_count": [config.counter_tag | 2], "count_range": [1, config.counter_tag | 1],
             "pair_dest": [A, 1], "truncated_pair": [A]}[kind]
    return b"".join(v.to_bytes(config.word_bytes, "little") for v in words)


JUNK = ["zero", "unknown_symbol", "gap", "bare_count", "count_range", "pair_dest"]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_judging_words_in_place_equals_full_expansion(data):
    config = replace(data.draw(st.sampled_from(CONFIG_GRID)),
                     slice_size_bytes=data.draw(st.sampled_from([8, 16, 24, 40, 256])))
    trace = generate_trace(GRAPH, sensor_profile(seed=data.draw(st.integers(0, 999)),
                                                 steps=data.draw(st.integers(0, 80))))
    if data.draw(st.booleans()):
        trace.insert(data.draw(st.integers(0, len(trace))), ROGUE)
    pair = config.mode is Mode.PAIR
    specs: list[SubPathSpec] = []
    for _ in range(data.draw(st.integers(0, 4)) if trace else 0):
        n = data.draw(st.integers(1, min(6, len(trace))))
        at = data.draw(st.integers(0, len(trace) - n))
        window = trace[at : at + n]
        rogue = data.draw(st.sampled_from([None, 0, n // 2, n - 1]))
        if rogue is not None:  # a spec entry that is no CFG edge
            window[rogue] = ROGUE
        entries = tuple(window) if pair else tuple(t.dest for t in window)
        if all(s.entries != entries for s in specs):
            specs.append(SubPathSpec(len(specs) + 1, entries))
    proved = list(trace)
    for spec in specs:  # one bare occurrence, or a repeat group
        occurrence = list(spec.entries) if pair else [Transfer(A, d) for d in spec.entries]
        at = data.draw(st.integers(0, len(proved)))
        proved[at:at] = occurrence * data.draw(st.integers(0, 4))
    payloads = payloads_of(proved, specs, config)
    kind = data.draw(st.sampled_from([None, "truncated_word", "truncated_pair"] + JUNK))
    if kind is not None:
        i = data.draw(st.integers(0, len(payloads) - 1))
        if kind == "truncated_word":
            payloads[i] += b"\x01"
        elif kind == "truncated_pair":
            payloads[i] += junk_words(kind, config)
        else:
            payloads[i] = junk_words(kind, config) + payloads[i]
    cfg = data.draw(st.sampled_from([GRAPH, None]))
    verdict = judged(payloads, specs, config, cfg)
    got = (verdict.outcome, verdict.reason, verdict.invalid_index, verdict.raw_log)
    assert got == expanded_verdict(payloads, specs, config, cfg)


@pytest.mark.parametrize("kind", ["truncated_word"] + JUNK)
def test_malformed_later_payload_outweighs_an_earlier_invalid_path(kind):
    trace = generate_trace(GRAPH, sensor_profile(seed=5, steps=200))
    trace.insert(3, ROGUE)
    spec = SubPathSpec(1, tuple(trace[20:24]))
    payloads = payloads_of(trace, (spec,), CONFIG)
    assert len(payloads) > 2
    assert judged(payloads, (spec,), CONFIG, GRAPH).invalid_index == 3
    payloads[-1] += b"\x01" if kind == "truncated_word" else junk_words(kind, CONFIG)
    verdict = judged(payloads, (spec,), CONFIG, GRAPH)
    assert verdict.outcome is Outcome.AUTHENTIC_BUT_INVALID_PATH
    assert verdict.reason == "malformed_payload"
    assert verdict.invalid_index is None and verdict.raw_log is None


@pytest.mark.parametrize("name", sorted(CASES))
def test_rogue_edge_index_on_fixture_sessions(name):
    len_range, n_specs, seed, _ = CASES[name]
    specs, trace = fixture_inputs(name, len_range, n_specs, seed)
    graph = getattr(fixtures, name + "_cfg")()
    verifier = Verifier(KEY, CONFIG)
    prover = Prover(KEY, CONFIG)
    prover.handle_request(verifier.open_session(specs).encode())
    for at in (0, len(trace) // 2, len(trace)):
        rogue = trace[:at] + [ROGUE] + trace[at:]
        prover.handle_request(verifier.open_session(()).encode())
        for s in prover.run(rogue):
            assert verifier.verify_slice(s.encode()) == ACCEPT
        verdict = verifier.assemble(cfg=graph)
        assert verdict.outcome is Outcome.AUTHENTIC_BUT_INVALID_PATH
        assert verdict.invalid_index == at
        assert verdict.raw_log == encode_raw(rogue, CONFIG)


def test_edge_past_the_address_range_does_not_alias_a_read_pair():
    # 0x0400 << 16 | 0x10500 == 0x0401 << 16 | 0x0500: an edge whose end
    # lies past the 16-bit address range must not vouch for another pair
    graph = build_cfg(
        "function main b0\n"
        "block b0 0x0400 0x0400 main\n"
        "block b1 0x10500 0x10500 main\n"
        "edge b0 b1 jump\n"
    )
    assert (0x0401, 0x0500) not in graph.valid_pairs()
    verdict = protocol.run_session(KEY, EngineConfig(), (), [Transfer(0x0401, 0x0500)], graph)
    assert verdict.outcome is Outcome.AUTHENTIC_BUT_INVALID_PATH
    assert verdict.invalid_index == 0


def words_payload(words, config):
    return b"".join(v.to_bytes(config.word_bytes, "little") for v in words)


# blocks whose addresses are a symbol id (0x0001) and a repeat count
# (0x8002, count 2): edges that touch them are never read from a payload
ODD_BLOCKS = build_cfg(
    "function main a\n"
    "block s 0x0001 0x0001 main\n"
    "block c 0x8002 0x8002 main\n"
    f"block a {A:#x} {A:#x} main\n"
    f"block b {B:#x} {B:#x} main\n"
    f"block d {D:#x} {D:#x} main\n"
    "edge a b jump\nedge b d jump\nedge d a jump\n"
    "edge s a jump\nedge c a jump\nedge d s jump\nedge d c jump\n"
)


@pytest.mark.parametrize("config, words", [
    (CONFIG, [1, A]),  # the edge s -> a
    (CONFIG, [D, 1]),  # d -> s
    (CONFIG, [D, 0x8002]),  # d -> c
    (DEST_CONFIG, [1]),
    (DEST_CONFIG, [0x8002]),
], ids=["pair-symbol-source", "pair-symbol-dest", "pair-count-dest", "dest-symbol",
        "dest-count"])
def test_edge_of_a_non_address_block_vouches_for_no_word(config, words):
    # with no spec installed, a symbol word or a bare count is malformed
    payloads = [words_payload(words, config)]
    verdict = judged(payloads, (), config, ODD_BLOCKS)
    assert (verdict.outcome, verdict.reason) == (
        Outcome.AUTHENTIC_BUT_INVALID_PATH, "malformed_payload")
    got = (verdict.outcome, verdict.reason, verdict.invalid_index, verdict.raw_log)
    assert got == expanded_verdict(payloads, (), config, ODD_BLOCKS)


@pytest.mark.parametrize("config, spec", [(CONFIG, SPEC), (DEST_CONFIG, DEST_SPEC)],
                         ids=["pair", "dest"])
def test_counter_range_edge_does_not_turn_a_count_into_a_transfer(config, spec):
    # symbol 1 (2 transfers), count 2 (0x8002: also an edge's end in both
    # modes), then a rogue transfer, raw index 4; read as a transfer, the
    # count would put the rogue at 3
    rogue = [A, 0x0508] if config.mode is Mode.PAIR else [0x0508]
    payloads = [words_payload([1, config.counter_tag | 2] + rogue, config)]
    verdict = judged(payloads, (spec,), config, ODD_BLOCKS)
    assert (verdict.outcome, verdict.invalid_index) == (Outcome.AUTHENTIC_BUT_INVALID_PATH, 4)
    got = (verdict.outcome, verdict.reason, verdict.invalid_index, verdict.raw_log)
    assert got == expanded_verdict(payloads, (spec,), config, ODD_BLOCKS)


# the sensor CFG's only edge out of 0x0406 enters 0x0410; 0x0420 is the
# destination of another edge
SOURCE, SUCCESSOR, OTHER_DEST = 0x0406, 0x0410, 0x0420


@pytest.mark.parametrize("tail, reason, index", [
    ([SOURCE, 1], "malformed_payload", None),  # a symbol word as the partner
    ([SOURCE], "malformed_payload", None),  # truncated pair
    ([SOURCE, OTHER_DEST], None, 2),
], ids=["symbol-partner", "truncated", "not-a-successor"])
def test_partner_that_fails_after_an_edge_source(tail, reason, index):
    # two edges of the sensor CFG, then the source 0x0406 again
    payloads = [words_payload([SOURCE, SUCCESSOR, 0x041A, OTHER_DEST] + tail, CONFIG)]
    verdict = judged(payloads, (SPEC,), CONFIG, GRAPH)
    assert (verdict.outcome, verdict.reason, verdict.invalid_index) == (
        Outcome.AUTHENTIC_BUT_INVALID_PATH, reason, index)
    got = (verdict.outcome, verdict.reason, verdict.invalid_index, verdict.raw_log)
    assert got == expanded_verdict(payloads, (SPEC,), CONFIG, GRAPH)


BRANCHY = branchy_cfg()
BRANCHY_DESTS = sorted(BRANCHY.valid_dests())


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_judging_branching_sources_in_place_equals_full_expansion(data):
    """As the sensor differential test, on branchy's diamonds, where a source
    has two successors: transfers sent to another edge's destination, and
    specs over them, are judged as full expansion judges them."""
    config = replace(data.draw(st.sampled_from(CONFIG_GRID)),
                     slice_size_bytes=data.draw(st.sampled_from([8, 24, 256])))
    trace = generate_trace(BRANCHY, branchy_profile(seed=data.draw(st.integers(0, 999)),
                                                    steps=data.draw(st.integers(1, 120))))
    for _ in range(data.draw(st.integers(0, 2))):
        at = data.draw(st.integers(0, len(trace) - 1))
        trace[at] = Transfer(trace[at].src, data.draw(st.sampled_from(BRANCHY_DESTS)))
    pair = config.mode is Mode.PAIR
    specs: list[SubPathSpec] = []
    for _ in range(data.draw(st.integers(0, 4))):
        n = data.draw(st.integers(1, min(6, len(trace))))
        at = data.draw(st.integers(0, len(trace) - n))
        window = trace[at : at + n]
        entries = tuple(window) if pair else tuple(t.dest for t in window)
        if all(s.entries != entries for s in specs):
            specs.append(SubPathSpec(len(specs) + 1, entries))
    payloads = payloads_of(trace, specs, config)
    cfg = data.draw(st.sampled_from([BRANCHY, None]))
    verdict = judged(payloads, specs, config, cfg)
    got = (verdict.outcome, verdict.reason, verdict.invalid_index, verdict.raw_log)
    assert got == expanded_verdict(payloads, specs, config, cfg)


def _line_cfg(*edges):
    """A CFG of one-address blocks at A, B, D and G and the given edges."""
    names = {A: "a", B: "b", D: "d", G: "g"}
    return build_cfg(
        "function main a\n"
        + "".join(f"block {n} {addr:#x} {addr:#x} main\n" for addr, n in names.items())
        + "".join(f"edge {names[s]} {names[d]} jump\n" for s, d in edges)
    )


@pytest.mark.parametrize("config, spec", [(CONFIG, SPEC), (DEST_CONFIG, DEST_SPEC)])
def test_one_verifier_judges_each_assemble_against_its_own_cfg(config, spec):
    # the verifier codes a CFG's edges once and keeps them; a different CFG
    # must be coded afresh, and going back must not keep the other's edges
    full = _line_cfg((A, B), (B, D), (D, G))
    no_b_to_d = _line_cfg((A, B), (D, G))
    verifier, results, _ = session(specs=(spec,), config=config)
    assert all(r == ACCEPT for r in results)
    verdicts = [verifier.assemble(cfg=g) for g in (full, no_b_to_d, full, None, no_b_to_d)]
    assert [(v.outcome, v.invalid_index) for v in verdicts] == [
        (Outcome.AUTHENTIC_AND_VALID, None),
        (Outcome.AUTHENTIC_BUT_INVALID_PATH, 1),  # inside the first spec match
        (Outcome.AUTHENTIC_AND_VALID, None),
        (Outcome.AUTHENTIC_AND_VALID, None),
        (Outcome.AUTHENTIC_BUT_INVALID_PATH, 1),
    ]


def test_raw_log_is_expanded_when_first_read(monkeypatch):
    calls = {"deserialize_log": 0, "expand": 0, "validate_against_cfg": 0}

    def counting(name):
        real = getattr(protocol, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(protocol, name, counting(name))
    trace = generate_trace(GRAPH, sensor_profile(seed=6, steps=300))
    spec = SubPathSpec(1, tuple(trace[40:44]))
    verifier, results, slices = session(specs=(spec,), trace=trace)
    assert len(slices) > 1 and all(r == ACCEPT for r in results)
    verdict = verifier.assemble(cfg=GRAPH)
    assert verdict.outcome is Outcome.AUTHENTIC_AND_VALID
    assert calls == {"deserialize_log": 0, "expand": 0, "validate_against_cfg": 0}
    assert verdict.raw_log == encode_raw(trace, CONFIG)
    assert calls["expand"] == 1  # one expansion over the joined payload words
    assert verdict.raw_log is verdict.raw_log and calls["expand"] == 1
    again = verifier.assemble(cfg=GRAPH)
    assert (again.outcome, again.invalid_index, again.raw_log) == (
        verdict.outcome, verdict.invalid_index, verdict.raw_log)
    assert calls["validate_against_cfg"] == 0
