"""Challenge-response protocol: authenticated spec installation, MAC'd
evidence-slice streaming, and verifier-side assembly and validation.

Wire format (little-endian integers, length-prefixed frames on the
channel; every frame ends with a 32-byte HMAC-SHA256 tag):

    request :=  challenge(16) mode(1) width(1) slice_size(4)
                blockmem_len(4) blockmem mac(32)
    slice   :=  seq(4) final(1) payload_len(4) payload
                [image_digest(32) if final] mac(32)

The fixed headers are declared once each, ``_REQUEST_HEADER`` and
``_SLICE_HEADER``, and both encoding and decoding go through them.  The
mode byte is 0 for pair mode and 1 for dest mode (``_MODES``).

Request MACs cover the whole frame body as received; slice MACs
additionally cover the session challenge, so evidence produced under one
challenge never verifies in another session.  Slice payloads are
memory-image log bytes.  An empty request blockmem means "keep the
currently installed specs".

The verifier judges a session on its payload words in one pass.  It
reads the CFG's edges from a table built once per CFG object: in pair mode
each source word maps to its destinations, so a raw pair is one lookup of
its source and one membership test of its partner, and in dest mode the
table is the set of destinations.  A symbol stands for a whole installed
spec, whose CFG verdict is worked out once per ``assemble`` call, so no
symbol is expanded to judge it, and a symbol whose spec holds only CFG
edges costs one lookup.  Words that take neither shortcut are classed and
judged by the full rules.  The full raw log is built only when
``Verdict.raw_log`` is read: the payloads' joined words are expanded once
into one word log, whose elements are decoded when they are read.
"""

from __future__ import annotations

import hmac
import hashlib
import secrets
import struct
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

from .cfg import CFG
from .codec import _unpack, deserialize_blockmem, serialize_blockmem, serialize_log
from .engine import expand, slice_compress
from .errors import (
    AuthError,
    ConfigMismatch,
    FaultOutOfRange,
    MalformedFrame,
    MalformedLog,
    ProtocolError,
)
from .model import (
    MAX_REPEAT_COUNT,
    MAX_SYMBOL_ID,
    MIN_REPEAT_COUNT,
    EngineConfig,
    Log,
    Mode,
    RawDest,
    RawPair,
    SubPathSpec,
    Transfer,
    validate_spec_set,
)
from .codec import deserialize_log  # noqa: F401  perfbench/run.py traces these names
from .model import make_log  # noqa: F401

CHALLENGE_BYTES = 16
MAC_BYTES = 32
DIGEST_BYTES = 32
ZERO_DIGEST = b"\x00" * DIGEST_BYTES

_REQUEST_DOMAIN = b"\x01"
_SLICE_DOMAIN = b"\x02"

# challenge, mode byte, address width, slice size, blockmem length
_REQUEST_HEADER = struct.Struct(f"<{CHALLENGE_BYTES}sBBII")
# seq, final flag, payload length
_SLICE_HEADER = struct.Struct("<IBI")
_MODES = (Mode.PAIR, Mode.DEST)  # indexed by mode byte


def _mac(key: bytes, domain: bytes, payload: bytes) -> bytes:
    return hmac.new(key, domain + payload, hashlib.sha256).digest()


def new_challenge() -> bytes:
    return secrets.token_bytes(CHALLENGE_BYTES)


@dataclass(frozen=True)
class Request:
    challenge: bytes
    blockmem: bytes
    mode: Mode
    addr_width: int
    slice_size_bytes: int
    mac: bytes

    def body(self) -> bytes:
        header = _REQUEST_HEADER.pack(
            self.challenge,
            _MODES.index(self.mode),
            self.addr_width,
            self.slice_size_bytes,
            len(self.blockmem),
        )
        return header + self.blockmem

    def encode(self) -> bytes:
        return self.body() + self.mac

    @classmethod
    def decode(cls, frame: bytes) -> "Request":
        start = _REQUEST_HEADER.size
        if len(frame) < start + MAC_BYTES:
            raise MalformedFrame("request frame too short")
        challenge, mode, width, slice_size, blob_len = _REQUEST_HEADER.unpack_from(frame)
        if mode >= len(_MODES):
            raise MalformedFrame(f"bad mode byte {mode}")
        if width not in (16, 32):
            raise MalformedFrame(f"bad address width {width}")
        end = start + blob_len
        if len(frame) != end + MAC_BYTES:
            raise MalformedFrame("request frame length mismatch")
        return cls(challenge, frame[start:end], _MODES[mode], width, slice_size, frame[end:])


@dataclass(frozen=True)
class EvidenceSlice:
    seq: int
    is_final: bool
    payload: bytes
    mac: bytes
    image_digest: bytes | None = None

    def body(self) -> bytes:
        return _slice_body(self.seq, self.is_final, self.payload, self.image_digest)

    def encode(self) -> bytes:
        return self.body() + self.mac

    @classmethod
    def decode(cls, frame: bytes) -> "EvidenceSlice":
        seq, flag, end, tail = _slice_fields(frame)
        digest = frame[end:tail] if flag else None
        return cls(seq, bool(flag), frame[_SLICE_HEADER.size:end], frame[tail:], digest)


def _slice_fields(frame: bytes) -> tuple[int, int, int, int]:
    """A slice frame's seq, final flag (0 or 1), payload end and MAC start,
    the one parse of a slice frame's layout; raises ``MalformedFrame``.  The
    payload starts at ``_SLICE_HEADER.size`` and a final slice's digest
    lies between the payload end and the MAC."""
    start = _SLICE_HEADER.size
    if len(frame) < start + MAC_BYTES:
        raise MalformedFrame("slice frame too short")
    seq, flag, payload_len = _SLICE_HEADER.unpack_from(frame)
    if flag not in (0, 1):
        raise MalformedFrame("bad final flag")
    end = start + payload_len
    tail = end + DIGEST_BYTES if flag else end
    if len(frame) != tail + MAC_BYTES:
        raise MalformedFrame("slice frame length mismatch")
    return seq, flag, end, tail


def make_request(
    key: bytes,
    challenge: bytes,
    specs: Sequence[SubPathSpec],
    config: EngineConfig,
    capacity_bytes: int | None = None,
) -> Request:
    if len(challenge) != CHALLENGE_BYTES:
        raise ValueError(f"challenge must be {CHALLENGE_BYTES} bytes")
    blockmem = serialize_blockmem(specs, config, capacity_bytes).data if specs else b""
    req = Request(
        challenge,
        blockmem,
        config.mode,
        config.addr_width,
        config.slice_size_bytes,
        b"",
    )
    return replace(req, mac=_mac(key, _REQUEST_DOMAIN, req.body()))


def _slice_body(seq: int, is_final: bool, payload: bytes, image_digest: bytes | None) -> bytes:
    body = _SLICE_HEADER.pack(seq, is_final, len(payload)) + payload
    return body + (image_digest or ZERO_DIGEST) if is_final else body


def _slice_mac(key: bytes, challenge: bytes, body: bytes) -> bytes:
    return _mac(key, _SLICE_DOMAIN, challenge + body)


def _slice_mac_state(key: bytes, challenge: bytes):
    """An HMAC keyed and fed a session's slice prefix: a ``copy()`` of it,
    updated with a slice body, gives that slice's ``_slice_mac``."""
    return hmac.new(key, _SLICE_DOMAIN + challenge, hashlib.sha256)


class Prover:
    """Device side: installs authenticated spec sets, then streams MAC'd
    compressed evidence slices for a trace."""

    def __init__(self, key: bytes, config: EngineConfig, specs: Sequence[SubPathSpec] = ()):
        specs = tuple(specs)
        validate_spec_set(specs, config)  # as an installed request's are
        self._key = key
        self.config = config
        self.specs: tuple[SubPathSpec, ...] = specs
        self.challenge: bytes | None = None
        self._mac_state = None  # _slice_mac_state of the installed challenge
        self._next_seq = 0

    def handle_request(self, frame: bytes) -> None:
        """Authenticate and install an encoded request; the MAC covers the
        bytes received, not a re-encoding of them."""
        request = Request.decode(frame)
        expected = _mac(self._key, _REQUEST_DOMAIN, frame[:-MAC_BYTES])
        if not hmac.compare_digest(expected, request.mac):
            raise AuthError("bad_mac", "request authentication failed")
        if (
            request.mode is not self.config.mode
            or request.addr_width != self.config.addr_width
            or request.slice_size_bytes != self.config.slice_size_bytes
        ):
            raise ConfigMismatch("request config echo disagrees with engine config")
        if request.blockmem:
            self.specs = deserialize_blockmem(request.blockmem, self.config)
        self.challenge = request.challenge
        self._mac_state = _slice_mac_state(self._key, request.challenge)
        self._next_seq = 0

    def run(
        self, trace: Iterable[Transfer], image_digest: bytes = ZERO_DIGEST
    ) -> list[EvidenceSlice]:
        if self.challenge is None:
            raise ProtocolError("no authenticated request installed")
        if len(image_digest) != DIGEST_BYTES:
            raise ValueError(f"image digest must be {DIGEST_BYTES} bytes")
        logs = slice_compress(trace, self.specs, self.config)
        slices: list[EvidenceSlice] = []
        for i, log in enumerate(logs):
            final = i == len(logs) - 1
            seq, digest = self._next_seq, image_digest if final else None
            payload = serialize_log(log, self.config)
            mac = self._mac_state.copy()
            mac.update(_slice_body(seq, final, payload, digest))
            slices.append(EvidenceSlice(seq, final, payload, mac.digest(), digest))
            self._next_seq += 1
        return slices


class Outcome(str, Enum):
    AUTHENTIC_AND_VALID = "authentic_and_valid"
    AUTHENTIC_BUT_INVALID_PATH = "authentic_but_invalid_path"
    AUTH_FAILURE = "auth_failure"
    INCOMPLETE = "incomplete"


@dataclass(frozen=True)
class Verdict:
    outcome: Outcome
    invalid_index: int | None = None
    reason: str | None = None
    image_digest: bytes | None = None
    # what ``raw_log`` is built from: the accepted payloads (None when the
    # session has no raw log), the session's specs and its config
    payloads: tuple[bytes, ...] | None = field(default=None, repr=False)
    specs: tuple[SubPathSpec, ...] = field(default=(), repr=False)
    config: EngineConfig | None = field(default=None, repr=False)

    @cached_property
    def raw_log(self) -> Log | None:
        """The session's full raw log, expanded on first read."""
        if self.payloads is None:
            return None
        # the payloads passed ``_first_invalid`` in ``assemble``, which rejects
        # a count at the start of a payload, so their joined words expand as
        # each payload's would
        words = _unpack(b"".join(self.payloads), self.config, MalformedLog)
        return expand(Log(words, self.config), self.specs, self.config)


ACCEPT = "accept"


class Verifier:
    """Remote side: opens challenge-bound sessions, checks slice sequence
    and authenticity, reconstructs the full raw log, and judges it."""

    def __init__(self, key: bytes, config: EngineConfig):
        self._key = key
        self.config = config
        self.session_specs: tuple[SubPathSpec, ...] = ()
        self.challenge: bytes | None = None
        self._mac_state = None  # _slice_mac_state of the session's challenge
        self._expected_seq = 0
        self._payloads: list[bytes] = []
        self._final_seen = False
        self._image_digest: bytes | None = None
        self.rejections: list[tuple[int | None, str]] = []
        # the last CFG judged against and its ``_edge_table``, built once per
        # CFG object
        self._edges: tuple[CFG, dict[int, frozenset[int]] | frozenset[int]] | None = None

    def open_session(
        self,
        specs: Sequence[SubPathSpec] = (),
        challenge: bytes | None = None,
        capacity_bytes: int | None = None,
    ) -> Request:
        specs = tuple(specs)
        if challenge is None:
            challenge = new_challenge()
        # a request that fails to build leaves the last session as it was
        request = make_request(self._key, challenge, specs, self.config, capacity_bytes)
        if specs:  # an empty blockmem keeps the installed specs, as on the prover
            self.session_specs = specs
        self.challenge = challenge
        self._mac_state = _slice_mac_state(self._key, challenge)
        self._expected_seq = 0
        self._payloads = []
        self._final_seen = False
        self._image_digest = None
        self.rejections = []
        return request

    def verify_slice(self, frame: bytes) -> str:
        """Returns "accept" or a rejection reason for an encoded slice; state
        only advances on accepted slices.  The MAC covers the bytes received,
        not a re-encoding of them."""
        if self.challenge is None:
            raise ProtocolError("no open session")
        try:
            seq, final, end, tail = _slice_fields(frame)
        except MalformedFrame:
            self.rejections.append((None, "malformed"))
            return "malformed"
        if self._final_seen:
            self.rejections.append((seq, "after_final"))
            return "after_final"
        if seq != self._expected_seq:
            self.rejections.append((seq, "bad_seq"))
            return "bad_seq"
        mac = self._mac_state.copy()
        mac.update(frame[:tail])
        if not hmac.compare_digest(mac.digest(), frame[tail:]):
            self.rejections.append((seq, "bad_mac"))
            return "bad_mac"
        self._payloads.append(frame[_SLICE_HEADER.size:end])
        self._expected_seq += 1
        if final:
            self._final_seen = True
            self._image_digest = frame[end:tail]
        return ACCEPT

    def assemble(
        self,
        cfg: CFG | None = None,
        expected_digest: bytes | None = None,
    ) -> Verdict:
        """Expand accepted slices into one raw log and judge the session.

        An authentic payload that does not decode or expand under the
        session's specs is an invalid path, reason ``malformed_payload``."""
        if not self._final_seen:
            if self.rejections:
                return Verdict(Outcome.AUTH_FAILURE, reason=self.rejections[0][1])
            return Verdict(Outcome.INCOMPLETE, reason="final slice not received")
        if expected_digest is not None and self._image_digest != expected_digest:
            return Verdict(Outcome.AUTH_FAILURE, reason="bad_digest")
        if cfg is not None and (self._edges is None or self._edges[0] is not cfg):
            self._edges = cfg, _edge_table(cfg, self.config)
        edges = None if cfg is None else self._edges[1]
        try:
            bad = _first_invalid(self._payloads, self.session_specs, self.config, edges)
        except MalformedLog:
            return Verdict(
                Outcome.AUTHENTIC_BUT_INVALID_PATH,
                reason="malformed_payload",
                image_digest=self._image_digest,
            )
        return Verdict(
            Outcome.AUTHENTIC_AND_VALID if bad is None else Outcome.AUTHENTIC_BUT_INVALID_PATH,
            invalid_index=bad,
            image_digest=self._image_digest,
            payloads=tuple(self._payloads),
            specs=self.session_specs,
            config=self.config,
        )


def _edge_table(cfg: CFG, config: EngineConfig) -> dict[int, frozenset[int]] | frozenset[int]:
    """``cfg``'s edges as ``_first_invalid`` reads them.

    In pair mode, each edge source maps to the frozenset of its
    destinations, so a raw pair costs one lookup of its source word and one
    membership test of its partner.  In dest mode, the frozenset of edge
    destinations.  Only edges whose ends are address words, in
    ``[min_code_addr, counter_tag)``, are kept: no other pair can be read
    from a payload, and the walk counts a word found in the table as one
    transfer without testing its class, so a block at a symbol id or in the
    counter range must not be found there."""
    tag = config.counter_tag
    lo = config.min_code_addr
    if config.mode is not Mode.PAIR:
        return frozenset(d for d in cfg.valid_dests() if lo <= d < tag)
    table: dict[int, set[int]] = {}
    for src, dest in cfg.valid_pairs():
        if lo <= src < tag and lo <= dest < tag:
            table.setdefault(src, set()).add(dest)
    return {src: frozenset(dests) for src, dests in table.items()}


def _first_invalid(
    payloads: Sequence[bytes],
    specs: Sequence[SubPathSpec],
    config: EngineConfig,
    edges: dict[int, frozenset[int]] | frozenset[int] | None,
) -> int | None:
    """Raw-transfer index of the first transfer in ``payloads`` that is not
    one of ``edges``, a CFG's ``_edge_table`` (None if every one is, or
    without ``edges``), read from the memory-image words in one pass
    without expanding a symbol.  Raises ``MalformedLog`` wherever
    ``deserialize_log`` or ``expand`` would raise, in any payload, so a
    later malformed payload outweighs an invalid path.

    Most words take one of two early-outs: a CFG edge source whose partner
    is one of its destinations (in dest mode, a destination) is one valid
    transfer, and a symbol whose spec holds only CFG edges (every spec,
    without ``edges``) is its spec's length.  Every other word, a source
    with its partner already read among them, is classed and judged by the
    full rules.  The session's spec entries are address words, checked when
    the session opened, and are judged on the same table as raw transfers."""
    pair = config.mode is Mode.PAIR
    tag = config.counter_tag
    lo = config.min_code_addr
    check = edges is not None  # until the first invalid transfer is found
    table = {} if edges is None else edges
    # per spec id: its length if every entry is a CFG edge, else its length
    # and its first entry that is no CFG edge
    clean: dict[int, int] = {}
    broken: dict[int, tuple[int, int]] = {}
    for spec in specs:
        bad = None
        if check:
            if pair:
                edge = (e.dest in table.get(e.src, ()) for e in spec.entries)
            else:
                edge = (d in table for d in spec.entries)
            bad = next((i for i, ok in enumerate(edge) if not ok), None)
        if bad is None:
            clean[spec.id] = spec.length
        else:
            broken[spec.id] = (spec.length, bad)
    first: int | None = None
    offset = 0  # raw transfers before the current word
    for payload in payloads:
        words = iter(_unpack(payload, config, MalformedLog))
        length = 0  # of the symbol directly before, in this payload
        for v in words:
            if pair:
                dests = table.get(v)
                if dests is not None:
                    d = next(words, None)
                    if d in dests:
                        offset += 1
                        length = 0
                        continue
            elif v in table:
                offset += 1
                length = 0
                continue
            n = clean.get(v)
            if n is not None:
                offset += n
                length = n
                continue
            # the full rules, a source's partner already read
            if lo <= v < tag:
                if pair:
                    if dests is None:
                        d = next(words, None)
                    if d is None:
                        raise MalformedLog("truncated pair")
                    if not lo <= d < tag:
                        raise MalformedLog("pair destination is not an address word")
                # an address pair that takes no early-out is no CFG edge
                if check:
                    first, check = offset, False
                offset += 1
                length = 0
            elif v & tag:
                count = v & (tag - 1)
                if not length:
                    raise MalformedLog("repeat count not preceded by a symbol")
                if not MIN_REPEAT_COUNT <= count <= MAX_REPEAT_COUNT:
                    raise MalformedLog(f"repeat count {count} out of range")
                offset += (count - 1) * length
                length = 0
            elif v <= MAX_SYMBOL_ID:
                if v == 0:
                    raise MalformedLog("zero word is neither symbol nor address")
                span = broken.get(v)
                if span is None:
                    raise MalformedLog(f"symbol {v} has no installed spec")
                length, bad = span
                if check:
                    first, check = offset + bad, False
                offset += length
            else:
                raise MalformedLog(f"word {v:#x} falls in the reserved gap")
    return first


def validate_against_cfg(raw_log: Log, cfg: CFG) -> int | None:
    """Index of the first transfer that is not a CFG edge, or None."""
    pairs = cfg.valid_pairs()
    dests = cfg.valid_dests()
    for i, el in enumerate(raw_log.elements):
        if isinstance(el, RawPair):
            if el not in pairs:  # a RawPair hashes and compares as its tuple
                return i
        elif isinstance(el, RawDest):
            if el.dest not in dests:
                return i
        else:
            raise ValueError("validate_against_cfg expects a fully expanded log")
    return None


@dataclass
class ChannelFaults:
    """Faults applied by send index on one channel direction."""

    drop: set[int] = field(default_factory=set)
    flip: dict[int, int] = field(default_factory=dict)  # frame index -> bit index
    replay: set[int] = field(default_factory=set)
    reorder: set[int] = field(default_factory=set)  # swap frame i with i+1


class Channel:
    """In-process ordered message channel with fault-injection hooks."""

    def __init__(self, faults: ChannelFaults | None = None):
        self.faults = faults or ChannelFaults()
        self._sent: list[bytes] = []

    def send(self, frame: bytes) -> None:
        self._sent.append(bytes(frame))

    def drain(self) -> list[bytes]:
        """The frames sent so far, as the faults deliver them: the reorders
        swap frames in their send order, then each frame that is not
        dropped is delivered, flipped, and twice if replayed.  A fault that
        would inject nothing raises ``FaultOutOfRange``: one on a frame or
        a bit that was not sent, a flip, replay or reorder of a dropped
        frame, and a reorder of the last frame, of a frame whose successor
        is dropped or of one whose successor is reordered too (the second
        swap would undo the first)."""
        faults, n = self.faults, len(self._sent)
        for what, frames in (("drop", faults.drop), ("flip", faults.flip),
                             ("replay", faults.replay), ("reorder", faults.reorder)):
            for i in sorted(frames):
                if not 0 <= i < n:
                    raise FaultOutOfRange(f"{what} frame {i} is not one of the {n} frames sent")
                if what != "drop" and i in faults.drop:
                    raise FaultOutOfRange(f"{what} frame {i} is dropped")
        if n - 1 in faults.reorder:
            raise FaultOutOfRange(f"reorder frame {n - 1} is the last of the {n} frames sent")
        for i in sorted(faults.reorder):
            if i + 1 in faults.drop:
                raise FaultOutOfRange(
                    f"reorder frame {i} swaps with frame {i + 1}, which is dropped")
            if i + 1 in faults.reorder:
                raise FaultOutOfRange(
                    f"reorder frame {i + 1} would undo the reorder of frame {i}")
        for i, bit in faults.flip.items():
            if not 0 <= bit < 8 * len(self._sent[i]):
                raise FaultOutOfRange(
                    f"flip bit {bit} is not one of frame {i}'s {8 * len(self._sent[i])} bits")
        order = list(range(n))
        for i in faults.reorder:
            order[i], order[i + 1] = i + 1, i
        delivered: list[bytes] = []
        for i in order:
            if i in faults.drop:
                continue
            frame = self._sent[i]
            if i in faults.flip:
                bit = faults.flip[i]
                buf = bytearray(frame)
                buf[bit // 8] ^= 1 << (bit % 8)
                frame = bytes(buf)
            delivered.append(frame)
            if i in faults.replay:
                delivered.append(frame)
        self._sent = []
        return delivered


def run_session(
    key: bytes,
    config: EngineConfig,
    specs: Sequence[SubPathSpec],
    trace: Iterable[Transfer],
    cfg: CFG | None = None,
    faults: ChannelFaults | None = None,
) -> Verdict:
    """One full session between a fresh verifier and prover: install
    ``specs``, stream the trace's slices over a channel with ``faults``,
    and judge what arrives (against ``cfg`` when given)."""
    verifier = Verifier(key, config)
    prover = Prover(key, config)
    prover.handle_request(verifier.open_session(specs).encode())
    channel = Channel(faults)
    for s in prover.run(trace):
        channel.send(s.encode())
    for frame in channel.drain():
        verifier.verify_slice(frame)
    return verifier.assemble(cfg=cfg)
