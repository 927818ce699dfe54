"""Golden outputs: stdout sha256 and exit code of every README CLI command.

A speedup or refactor must leave these bytes alone; a hash that changes is a
contract change and has to be declared as one.  `table` runs without --out so
its CSV is hashed from stdout; a test checks that every README command is
pinned here, and another that each writes the same bytes to an --out file.
"""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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
    # Recorded with the brute-force N-amplitude simulation: 1627 steps at
    # N = 2**16; 250 steps at an N that is not a multiple of 8; K = N, so
    # the marked set fills the array; M = 0 and K = N together.
    (
        "experiment --N 65536 --M 12 --K 13 --l 3255 --trials 500 --seed 1001",
        0,
        "4e738486b99828d31d00a27a4324da848bdbebfcac6abfe5f1e1c50646de2f86",
    ),
    (
        "experiment --N 131071 --M 100 --K 131 --l 501 --trials 3000 --seed 7",
        0,
        "3c6dd78466382cb44cd87ef3ed59e49a83ea5ed050c36c59b8bb35a2515b9062",
    ),
    (
        "experiment --N 1003 --M 333 --K 1003 --l 9 --trials 5000 --seed 11",
        0,
        "1f59d3b554f98129fee86c1447bfb776959e8a6e9bc72cbbe8dadd2e30955515",
    ),
    (
        "experiment --N 1000 --M 0 --K 1000 --l 7 --trials 100 --seed 2",
        0,
        "536fea2d71056d749cef91f8dee4b2d221f861692790e7d765ce8a022b69b9f8",
    ),
    # Recorded before each trial was decided by one comparison and the sum
    # program was compiled: the full-simulation cap, and the benchmark's
    # trial-heavy command.
    (
        "experiment --N 4194304 --M 37 --K 41 --l 10571 --trials 2000 --seed 3",
        0,
        "6a7bc4698c9a8a772a0976caee87da58a1a176cc1812511b6bbf1bb9677f61c0",
    ),
    (
        "experiment --N 4096 --M 8 --K 12 --l 79 --trials 5000 --seed 1001",
        0,
        "87f0b703b41bc43b0dd5888fb2528c4b01782c2efe61318ce2fa84f573143f99",
    ),
    # Recorded while the mean was numpy's pairwise sum, before it became the
    # exactly rounded sum: long runs of m steps, where the two means drift
    # apart the most, at the cap, at one marked element and at a prime N.
    (
        "experiment --N 1048576 --M 37 --K 41 --l 5285 --trials 1000 --seed 1001",
        0,
        "570bf5808d8a9642265379bce641c9d90dff8d03beb99fe77e958f065e39f666",
    ),
    (
        "experiment --N 4194304 --M 37 --K 41 --l 10571 --trials 2000 --seed 1001",
        0,
        "551c84463929de720ebff94d6c08a747d73acf37beaf2a0cc01a1f403e1e8975",
    ),
    (
        "experiment --N 4194304 --M 1 --K 2 --l 5001 --trials 3000 --seed 7",
        0,
        "b8d0d7d116286900e533738d0d80a96325ab76a04bf40a264d4f5575399fe532",
    ),
    (
        "experiment --N 999983 --M 5 --K 9 --l 1999 --trials 20000 --seed 42",
        0,
        "cf0703a081a5dc555755c37a238de5dc6bd99c2a93f55c06236daa0a4e5eae52",
    ),
    # Recorded while each trial was decided against numpy's cumsum of the
    # N-long squared state, before both edges became exactly rounded sums:
    # nothing marked or everything marked at the cap, and all but one of an
    # odd N marked.
    (
        "experiment --N 4194304 --M 0 --K 4194304 --l 2049 --trials 3000 --seed 5",
        0,
        "ff9e4c3e9efdcdc1a26a711876d5212b4eb00da031cdfb323c5ace25449978f3",
    ),
    (
        "experiment --N 4194303 --M 1 --K 4194303 --l 3 --trials 3000 --seed 9",
        0,
        "4686668a8785b3063117b83f234090a61864eb31b693d8b51b0104037baf375e",
    ),
    # Strict rule refused for gamma - 1 > 1/4 alone: ordering and the size
    # condition hold, so the reason is gamma_too_large.
    (
        "rule --N 1000000 --M 1 --K 2",
        2,
        "6e223c37aa9a6a85c1f72621b0a436c267254ee7400e5306fe6eb7cb7fd46590",
    ),
    # No README command reaches these paths: a strict scan that exhausts its
    # horizon (127857), a relaxed hit at l = 4995677 deep in the 65536-wide
    # chunks, and the --reduced and JSON table emitters.
    (
        "search --N 1048576 --M 37 --K 41 --tol 1e-6 --mode strict",
        0,
        "8be0a13af8b15bd70ac362053b0a4cb0dcb8f24fe55bb66e6dc7e800d71672b2",
    ),
    (
        "search --N 1048576 --M 37 --K 41 --tol 1e-6 --horizon 9999999",
        0,
        "21174885ca85a29f0bf56ded2b6a117dddbd5c2e3347be132bd3ee09f841bc61",
    ),
    (
        "table --N-range 1024:4096:1024 --M-range 4:64:4 --K-range 6:96:6 --reduced",
        0,
        "5bb1905780201e5ff218ff879aec9162321446869dd8809220255b125e617861",
    ),
    (
        "table --N-range 1024:4096:1024 --M-range 4:64:4 --K-range 6:96:6 --format json",
        0,
        "8877be11c98f0a43ff2cdc33f5d44b618f3ca799dfbed6892e726b4c6d819422",
    ),
    (
        "table --N-range 1024:4096:1024 --M-range 4:64:4 --K-range 6:96:6 --reduced"
        " --format json",
        0,
        "2f1a759a821d6a49443525c499380a9840c4a97d0c5fcbc5bbb1a7fdf04e1577",
    ),
    # Recorded before the rows of a table or diagnose were scanned together.
    # Horizon 3001 ends inside the third chunk; certified rows raise it to
    # their l_constructive, so the rows' horizons differ; some rows hit at
    # l = 3001 and others exhaust it.  The strict search exhausts a horizon
    # that ends inside a 65536-wide chunk.  Declared change: both tables were
    # re-recorded when the failure pair at l_minimal became the scan's, which
    # squares by multiplication, not by pow; one fail_M cell moved by 1 ulp.
    (
        "table --N-range 65536:1048576:131072 --M-range 1:40:3 --K-range 2:60:5"
        " --horizon 3001 --epsilon 0.02 --format json",
        0,
        "cca57793ec048c14386b1f3e1db83ea8d02ff33d0ba67f197f356f2ffa78fd5a",
    ),
    (
        "table --N-range 65536:1048576:131072 --M-range 1:40:3 --K-range 2:60:5"
        " --epsilon 0.02 --format json",
        0,
        "0e38954d59cc3762381c7aca42d2caad7b2270e18cf10a4326d71d364b2e5de3",
    ),
    (
        "search --N 1048576 --M 37 --K 41 --tol 1e-6 --mode strict --horizon 700001",
        0,
        "aaee826a0d5c6de8da8f698128e20b77cdb3a9267d0d5913d5250db9a0fb68a1",
    ),
    (
        "diagnose --N 1048576 --M-range 1:40 --K-range 2:60 --threshold 1.5"
        " --horizon 3001 --epsilon 0.02",
        0,
        "69baae5ad8b56c84d5f0af90316d937a1147dc9a2b0ea3855de00f5850c81486",
    ),
    # Declared change, recorded when a search began to report the failure
    # pair its scan decided with.  Before, fail_K was squared by pow and
    # printed 1 ulp above the score, which the scan squares by multiplication.
    (
        "search --N 1048576 --M 122 --K 147 --tol 0.25",
        0,
        "5ba0e2ee9f3e17ac7df760258fb0b8f717117e62cb34befec2ee9ca6ec2863cf",
    ),
]


@pytest.mark.parametrize(
    "command, code, digest", GOLDEN, ids=[command for command, _, _ in GOLDEN]
)
def test_golden_stdout(capsys, command, code, digest):
    assert main(command.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_array_trig_equals_libm():
    """numpy's array cos/sin give libm's doubles on the arguments a scan computes.

    The pinned search, table and orbit outputs print failure pairs from the
    array kernel; they match libm's only while this holds on the build.
    """
    rng = np.random.default_rng(2024)
    ls = 2 * rng.integers(0, 5 * 10**7, size=200_000) + 1
    x = 0.5 * ls * rng.uniform(0.0, math.pi, size=ls.size)
    for name in ("cos", "sin"):
        libm = np.array([getattr(math, name)(v) for v in x.tolist()])
        differ = np.count_nonzero(getattr(np, name)(x) != libm)
        assert differ == 0, (
            f"numpy {np.__version__} array {name} differs from libm on {differ} of"
            f" {x.size} arguments; the golden pins assume they agree bit for bit"
        )


# Triples at the float64 envelope N = 2**48, in this order: K = M+1 with
# l_bound up to 2**51, K = N, a null gamma, and the smallest N.  Recorded
# before the table's columns were computed across all rows at once.
ENVELOPE_EDGE_TRIPLES = [
    (2**48, 2**40, 2**40 + 1),
    (2**48, 1, 2),
    (2**48, 0, 1),
    (2**48, 2**47 - 1, 2**47),
    (2**48, 2**48 - 1, 2**48),
    (3, 1, 2),
    (1, 0, 1),
    (2, 0, 1),
    (2**48, 2**45, 2**45 + 1),
]


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("csv", "f834c90fdcff35e6fa8c07adb39cff48ab79f9bd68411c2ab8cd28159de46d01"),
        ("json", "acd81bec17503e76e2f947ac4ef22618a7e6607eeb525a97575fb2478105fc66"),
    ],
)
def test_golden_envelope_edge_table(capsys, tmp_path, fmt, digest):
    triples = tmp_path / "edge.triples"
    triples.write_text("".join(f"{N} {M} {K}\n" for N, M, K in ENVELOPE_EDGE_TRIPLES))
    assert main(["table", "--triples", str(triples), "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_commands() -> list[str]:
    """The ``groverstop`` lines of the README's CLI block, without comments or ``--out FILE``."""
    text = README.read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        words = line.split("#", 1)[0].split()
        if words[:1] == ["groverstop"]:
            if "--out" in words:
                at = words.index("--out")
                del words[at : at + 2]
            commands.append(" ".join(words[1:]))
    return commands


def test_readme_commands_are_pinned():
    commands = _readme_commands()
    subcommands = {command.split()[0] for command in commands}
    assert {"rule", "search", "orbit", "table", "experiment", "pad", "diagnose"} <= subcommands
    pinned = {command for command, _, _ in GOLDEN}
    assert [command for command in commands if command not in pinned] == []


@pytest.mark.parametrize("command", _readme_commands())
def test_readme_command_out_file(capsys, tmp_path, command):
    """With --out, a README command writes its pinned bytes to the file, none to stdout."""
    ((code, digest),) = [(code, digest) for pinned, code, digest in GOLDEN if pinned == command]
    report = tmp_path / "report"
    assert main([*command.split(), "--out", str(report)]) == code
    assert capsys.readouterr().out == ""
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


def test_module_entry_point():
    """`python -m groverstop.cli` exits with main's code: 2 with the pinned report, 64 on usage."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    command = "rule --N 1048576 --M 740 --K 800"
    run = subprocess.run(
        [sys.executable, "-m", "groverstop.cli", *command.split()], capture_output=True, env=env
    )
    (digest,) = [digest for pinned, _, digest in GOLDEN if pinned == command]
    assert (run.returncode, hashlib.sha256(run.stdout).hexdigest()) == (2, digest)
    usage = subprocess.run(
        [sys.executable, "-m", "groverstop.cli", "rule", "--N", "4"], capture_output=True, env=env
    )
    assert (usage.returncode, usage.stdout) == (64, b"")
