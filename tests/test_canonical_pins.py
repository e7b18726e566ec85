"""Canonical-output pins for every scenario family.

Each catalog entry's canonical JSON at a fixed seed and horizon must
hash to the recorded sha256.  A refactor of the set-up path (harness,
backend table, client wiring) that moves any of these digests changed
behaviour: fix the refactor, do not re-pin.
"""

import hashlib

import pytest

from repro.experiments.registry import make_scenario
from repro.experiments.scenario import run

PINS = [
    ("inf-train", 0.6,
     "0920e426cf4d897ca87211e5367a250e7791f43fc7ea6634cbbb3db4ba99220a"),
    ("train-train", 0.6,
     "ec2369bc4bef7f937c32584c15b3f1cfce7695831e809a476f23c04c0ae8c51b"),
    ("inf-inf", 0.6,
     "8964df21ca2c26ca95886381d8b0ad2ca5a1067102b5e6719883d5e67f7252dc"),
    ("overload", 0.1,
     "afcfb632d38e8ea2dfd26c061cc734925e1c85fc91bb8d462482503cf0704882"),
    ("faults", 0.1,
     "f5100a061d795bf3f834c4ba230ed82e2dbb0c2e30c588d2c7911682c7c92368"),
    ("fleet", 0.05,
     "dc493be383a5c81897fd6cd56d95ceb1801d4af8787eebd4a1763099542195fb"),
    ("fleet_rebalance", 0.15,
     "e2bff513f4f51e2fa90c931b763a27a5c850c4d82db686939256f46cc81c036c"),
    ("llm", 0.1,
     "bc1cb8cd53a11ffff1651f99f49e469acde6f5abcf560c1b478e842be2d0fc82"),
]


@pytest.mark.parametrize("name,duration,digest", PINS,
                         ids=[name for name, _, _ in PINS])
def test_canonical_output_is_pinned(name, duration, digest):
    result = run(make_scenario(name, seed=3, duration=duration))
    assert hashlib.sha256(result.to_json().encode()).hexdigest() == digest
