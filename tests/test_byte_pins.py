"""Serialized bytes pinned by sha256 digest.

Round-trip and parity tests call the same serializer on both sides, so a
change of wire format would pass them.  These digests fix the bytes
themselves: the prover's payloads and frames for both fixtures at
benchmark scale, the request frame that installs each fixture's specs,
each fixture's block memory, and one seeded log and spec set per
configuration.  Decoding the pinned bytes must give back the same
elements and size.
"""

import hashlib
import random

import pytest

from cfaudit.codec import deserialize_log, serialize_blockmem, serialize_log
from cfaudit.engine import compress_trace, slice_compress
from cfaudit.protocol import Prover, Verifier

from conftest import CONFIG_GRID, address_pool, random_specs, random_trace
from test_fixture_parity import CASES, CONFIG, KEY, fixture_inputs

CHALLENGE = bytes(range(100, 116))

FIXTURE_DIGESTS = {
    "sensor": {
        "payloads": "1c0a9a14b8a1ba9fe53808081d34a47dde1dc6e858d7464683440a6eed99d4eb",
        "frames": "21e21b369f8e8bd55026910fcebf63893c88f360b5032b2b1a02e1f6f4dd0c8a",
        "blockmem": "a05299cd2dd84541f2080acccde8374ab4ea786214ab077c146b9d0ab16bb2c9",
        "request": "d7ab56abdc72c6373ead2fc0211449c65288bf3d8f488d260c773fbf38b715c4",
    },
    "branchy": {
        "payloads": "53b0eceeb3cc113d7d7a41d8af8cc0a8816e3c23de4470ae58b336942d7cc8d4",
        "frames": "684784f4f1d666d8fb0705462538a329b6c3871905f858d0b9455af2d6ea5fe7",
        "blockmem": "150d901aa4d4a06bde1da92cb45a0321dc7c9e600ba3f31cfbc1b2f7dd141dad",
        "request": "2b7c717e4f6267a038aaf945c98a0b4da044924897594d58f76404a551a629a1",
    },
}

GRID_DIGESTS = {
    "pair16": {
        "image": "ab5846a4853f3be9245166a0835f461f73bb95681959d4f8bb1dcf2e8d4c16db",
        "blockmem": "beeed014bc48f955a8b9542f8db462e377f41c1fd8c15d1ed8a57872c23e02a3",
    },
    "pair32": {
        "image": "e34ddaf4fc91630c52f85c322b3a1fdfc36aefffd2f78c4fc819a54c223dc179",
        "blockmem": "0984a103a9211553033ee0a15b69adfa3fc4677933453a10365a7e640abb77c7",
    },
    "dest16": {
        "image": "bc892a9230974e35fa209eea9dfe97258715d1d23597824f30ae231dd36b17fe",
        "blockmem": "fb2cb832cc838ce88eb249974f100b080fe9c84095d26d3e67c9a8716d6e35c0",
    },
    "dest32": {
        "image": "783c502baa5d139d57a290be5ce59b31d4576f7d3fa22c6b6a31e4eb8d243253",
        "blockmem": "9d5965feebde7eec06c14dee940cb170955ceb81a11239aa391744657d2a9d98",
    },
}


def digest(chunks) -> str:
    """sha256 over length-prefixed chunks, so boundaries count too."""
    h = hashlib.sha256()
    for c in chunks:
        h.update(len(c).to_bytes(4, "little") + c)
    return h.hexdigest()


def config_name(config) -> str:
    return f"{config.mode.value}{config.addr_width}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_fixture_bytes_pinned(name):
    len_range, n_specs, seed, _ = CASES[name]
    specs, trace = fixture_inputs(name, len_range, n_specs, seed)
    verifier = Verifier(KEY, CONFIG)
    prover = Prover(KEY, CONFIG)
    request = verifier.open_session(specs, CHALLENGE).encode()
    prover.handle_request(request)
    slices = prover.run(trace)
    logs = slice_compress(trace, specs, CONFIG)
    got = {
        "payloads": digest(s.payload for s in slices),
        "frames": digest(s.encode() for s in slices),
        "blockmem": digest([serialize_blockmem(specs, CONFIG).data]),
        "request": digest([request]),
    }
    assert got == FIXTURE_DIGESTS[name]
    for s, log in zip(slices, logs):
        assert deserialize_log(s.payload, CONFIG) == log


@pytest.mark.parametrize("config", CONFIG_GRID, ids=config_name)
def test_grid_bytes_pinned(config):
    # seed 30 gives every config at least three specs and a log holding
    # raw elements, symbols and repeat counts
    rng = random.Random(30 + CONFIG_GRID.index(config))
    trace = random_trace(rng, config, 300, address_pool(config, 3, rng))
    specs = random_specs(rng, config, trace, max_specs=8, max_len=4)
    log = compress_trace(trace, specs, config)
    image = serialize_log(log, config)
    got = {
        "image": digest([image]),
        "blockmem": digest([serialize_blockmem(specs, config).data]),
    }
    assert got == GRID_DIGESTS[config_name(config)]
    assert deserialize_log(image, config) == log
