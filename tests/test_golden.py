"""Golden outputs: stdout sha256 and exit code of every README CLI command.

A speedup or refactor must leave these bytes alone; a hash that changes is a
contract change and has to be declared as one.  `table` runs without --out so
its CSV is hashed from stdout.
"""

import hashlib

import pytest

from groverstop.cli import main

GOLDEN = [
    (
        "rule --N 65536 --M 12 --K 13",
        0,
        "9b4bdad6487ac723945f5d830b2aa9b62e5cad8b6c6b6a7ea03af33db354a19a",
    ),
    (
        "rule --N 1048576 --M 740 --K 800",
        2,
        "ccb2ebf3f25686cec38561b05c59df179663d6a4f0a105835ed48ac736b90afc",
    ),
    (
        "rule --N 1000000 --M 1 --K 2 --best-effort",
        0,
        "4ed13d36d90460ef2d7c52bdc68410c1ec0549c2adfd324c4fa20a48c76be487",
    ),
    (
        "search --N 4096 --M 8 --K 12 --tol 0.25",
        0,
        "30b9cad91827ca8d831047d3ac684220f9f122e1443031901b7741fb00c9e2a6",
    ),
    (
        "orbit --N 4096 --M 8 --K 12 --l-max 199",
        0,
        "1622e6a00cc6657879de65cdfbb51260621d865a02bf5def6de3b07d1f9b6aff",
    ),
    (
        "table --N-range 1024:4096:1024 --M-range 4:64:4 --K-range 6:96:6",
        0,
        "0130aeff498e8ab091e1b37f076b905d64aa2f29088bd8a1e377b01a1a0a902d",
    ),
    (
        "experiment --N 4096 --M 8 --K 12 --l 79 --trials 10000 --seed 1",
        0,
        "1c67558c3231cb50070a775b90bf8831a808faeba4d44734e13e0f8964773393",
    ),
    (
        "pad --M 1 --N 1048576",
        0,
        "073894b1d36f73dc3d0a54c4375b0f0aa2e7e815895e236577943c666f29c030",
    ),
    (
        "diagnose --N 4096 --M-range 1:64 --K-range 2:128 --threshold 2.0",
        0,
        "75a0b4a7c9ff56767c7dc1530ee31b0d2316285d65df19acd0a2de26f5e41b05",
    ),
    (
        "orbit --N 1048576 --M 37 --K 41 --l-max 1999",
        0,
        "7b6c3178ae6091eb4600be2bfc796cb46511473058145e4a57f9e1b94e5b1c1b",
    ),
    # Recorded with one Generator per trial; 70000 trials cross several blocks
    # of the vectorised draw, and 2**32 + 1 is a two-word seed.
    (
        "experiment --N 64 --M 2 --K 4 --l 7 --trials 70000 --seed 4294967297",
        0,
        "1b43154db439eed846c519ec2f705c0659c8dbf0c51ac07737372627cae845a9",
    ),
    (
        "experiment --N 64 --M 2 --K 4 --l 7 --trials 70000 --seed 0",
        0,
        "226f1f97098cbc798442a984c0d013eed62c3243eebb3f9c23f37ebf6ef9cdec",
    ),
]


@pytest.mark.parametrize(
    "command, code, digest", GOLDEN, ids=[command for command, _, _ in GOLDEN]
)
def test_golden_stdout(capsys, command, code, digest):
    assert main(command.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
