"""The two seeded hex dumps keep their digests: every registry bound
(tests/bounds_hex.py) and every oracle panel rule and integral
(tests/oracle_hex.py) give the same bits as when the digests were recorded.
A change that moves a bit on purpose records the new digest here, with
the dump's line count, and says why."""

import hashlib

import pytest

import bounds_hex
import oracle_hex


@pytest.mark.parametrize("script,digest,count", [
    (bounds_hex, "a3ae2507c8dc4b5159cc00d87c69db27f58c70658817c5ba8e475472bb0f1bd9", 310_726),
    (oracle_hex, "de93e3f48f30778000751c5e17be8b8e52e51392a24bf1bc51f01e1edb7203dd", 5_679),
], ids=["bounds", "oracle"])
def test_hex_dump_keeps_its_digest(script, digest, count):
    sha, n = hashlib.sha256(), 0
    for line in script.lines():
        sha.update(line.encode() + b"\n")
        n += 1
    assert (sha.hexdigest(), n) == (digest, count)
