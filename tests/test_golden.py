"""Golden outputs: stdout sha256 and exit code of every README CLI command.

A speedup or refactor must leave these bytes alone; a hash that changes is a
contract change and has to be declared as one.  `table` runs without --out so
its CSV is hashed from stdout; a test checks that every README command is
pinned here, and another that each writes the same bytes to an --out file.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from groverstop import cli
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
    # Recorded before the CSV cells were written by array kernels: 100000
    # rows, most of their '%.17g' cells in the kernel's range.
    (
        "orbit --N 1048576 --M 37 --K 41 --l-max 199999",
        0,
        "cfac49e1c3c9a0935f82c64eac3471b766f539108b0af97b674d7a20a80b4155",
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
    # Recorded while each truth drew its own uniforms: two blocks of the
    # draw, the second a partial one.
    (
        "experiment --N 4096 --M 8 --K 12 --l 79 --trials 16389 --seed 1001",
        0,
        "2478c886ecbd224f4f39cffe73e599ccd3ddfb7f247fba5d8c77b26db0240451",
    ),
    # The paper's scale, past the full-simulation cap: the certified rule of
    # rule --N 1099511627776 --M 1000000 --K 1081600.  The same bytes came
    # from the per-truth experiment with its N cap lifted.
    (
        "experiment --N 1099511627776 --M 1000000 --K 1081600 --l 46123 --trials 200000"
        " --seed 1001",
        0,
        "8cc940105571d93746c5b1d4fd7c2f7c992ed1f5759fb595b07ac672b89018c3",
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
    # condition hold, so the reason is gamma_too_large.  Re-pinned when the
    # error's advice came to name the --best-effort flag.
    (
        "rule --N 1000000 --M 1 --K 2",
        2,
        "927a1cb7325a63a9825b7d202e159c1dbea70b5c091d7cc0889e1f7f6982484b",
    ),
    # Recorded while construct_rule still had a strict mode: the ordering
    # refusal and its --best-effort override, the size-condition refusal
    # overridden, and the plain-Grover path of M = 0.
    (
        "rule --N 100 --M 1 --K 60",
        2,
        "5d8a80247744bb257d05bf209a149e40b0383d121eb4221123d1345eef15738f",
    ),
    (
        "rule --N 100 --M 1 --K 60 --best-effort",
        0,
        "581231e3036d02b42a31b365cbc7a4b8452ff3e88c43a9ec0a0284c5c6ebd046",
    ),
    (
        "rule --N 1048576 --M 740 --K 800 --best-effort",
        0,
        "b7bef7c1f1de27f28f3fbf4a8818ffee593021a7bb07616f2244c180cfb66bd7",
    ),
    (
        "rule --N 4 --M 0 --K 1",
        0,
        "74a0bf6dea9c74dd56470ba27daedf551a60fc6840c6c2171671ea8c16c170df",
    ),
    # No README command reaches these paths: a strict scan that exhausts its
    # horizon (127857), a relaxed hit at l = 4995677, recorded while scans
    # still ran through 65536-wide chunks of odd l, and the --reduced and
    # JSON table emitters.
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
    # Recorded with the linear scan over every odd l, before scans stepped
    # through the runs of each torus coordinate.  Slow orbits: a hit at
    # l = 24627107, an exhausted default horizon at N = 2^48, and the same
    # instance's hit at l = 556970777 past HORIZON_CAP.  The strict search
    # exhausts 5*10^6 odd l at tol 1e-6, where runs are shorter than one l.
    (
        "search --N 1099511627776 --M 500 --K 501",
        0,
        "d19ffcfe3b446b938ca2c7c13f8802fb695d2fefa48b532f6b6bc85dfd7a5831",
    ),
    (
        "search --N 281474976710656 --M 1000 --K 1001",
        0,
        "7c9a161291287bb78e2588c5a0cb21d90243c430e630e73bb35d97d77ad31a94",
    ),
    (
        "search --N 281474976710656 --M 1000 --K 1001 --horizon 1000000001",
        0,
        "7094fbfa81b472685b01e5f085b5e58c208e41ff312bb96e8d602be72e0c6ba5",
    ),
    (
        "search --N 1048576 --M 37 --K 41 --tol 1e-6 --mode strict --horizon 9999999",
        0,
        "702a1075c5f5aade6d07b43642a039aed1e0e17a1e213f858ef6231696770c63",
    ),
    # Recorded while every scan started at l = 1.  gamma is within 7e-9 of
    # 3: no relaxed hit lies below l = 4.38e12, so a scan to 10^12 finds none.
    (
        "search --N 7104134430 --M 11 --K 99 --tol 0.0157 --horizon 1000000000001",
        0,
        "6b21a09d4baa939be204afdef6b1faf98941080620fe0cdee4fffb0177ff0508",
    ),
    # Recorded while the whole CSV was formatted as one matrix, before it was
    # written in blocks of rows: 12400 rows, M = 0 rows among them.
    (
        "table --N-range 4096:65536:4096 --M-range 0:30 --K-range 1:40 --horizon 1001",
        0,
        "6e1c7a0f95f6b11712a8c45856276488e18ee58ce37dc92db3b9385221174674",
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


ENVELOPE_EDGE_PINS = [
    ("csv", "f834c90fdcff35e6fa8c07adb39cff48ab79f9bd68411c2ab8cd28159de46d01"),
    ("json", "acd81bec17503e76e2f947ac4ef22618a7e6607eeb525a97575fb2478105fc66"),
]


@pytest.mark.parametrize("fmt, digest", ENVELOPE_EDGE_PINS)
def test_golden_envelope_edge_table(capsys, tmp_path, fmt, digest):
    triples = tmp_path / "edge.triples"
    triples.write_text("".join(f"{N} {M} {K}\n" for N, M, K in ENVELOPE_EDGE_TRIPLES))
    assert main(["table", "--triples", str(triples), "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"  # sha256 of b""
CRLF_TRIPLES = "# header\r\n4096,8,12\r\n\r\n1024, 4, 6\r\n  # note\r\n65536 12 13\r\n"
# Rows whose gamma lies near a/b with small odd b (3, 5/3, 7/5, 9/7, 11/9,
# 13/11, 1, 5), and a few others (3/2, M = 0, applicable rows): at epsilon
# 0.02 most are exhausted or hit late.  Recorded while every scan started at
# l = 1, before scans started at the small-divisor bound on l_minimal.
SMALL_DIVISOR_TRIPLES = (
    "1048576 11 99\n7104134430 11 99\n1048576 9 25\n1048576 25 49\n16777216 49 81\n"
    "16777216 81 121\n16777216 121 169\n65536 4 9\n1048576 100 101\n1073741824 50 51\n"
    "281474976710656 1000 1001\n4194304 1 9\n4194304 1 25\n1048576 3 27\n268435456 20 180\n"
    "1048576 0 5\n1048576 37 41\n262144 12 13\n65536 8 12\n"
)

# `table` over --triples files: (file text, further flags, exit code, stdout
# sha256, stderr).  Recorded while each row was parsed and passed to
# make_instance one at a time, so the first bad row in file order, malformed
# or invalid, names the error.  The BOM row is a declared change: it failed
# with "invalid literal for int() with base 10: '\\ufeff4096'", and now reads
# as the same file without the BOM.
TRIPLES_PINS = [
    ("4096 12 8\n4096 8 x\n", [], 1, EMPTY, "need M < K, got M=12, K=8"),
    (f"{2**70} 1 2\n4096 8 x\n", [], 1, EMPTY,
     "N=1180591620717411303424 exceeds the float64 envelope 2**48"),
    ("4096 8 x\n4096 12 8\n", [], 1, EMPTY, "invalid literal for int() with base 10: 'x'"),
    ("4096 8 12 7\n", [], 1, EMPTY, "too many values to unpack (expected 3)"),
    ("4096 8 12 x\n", [], 1, EMPTY, "invalid literal for int() with base 10: 'x'"),
    ("4096 x\n", [], 1, EMPTY, "invalid literal for int() with base 10: 'x'"),
    (",,,\n", [], 1, EMPTY, "not enough values to unpack (expected 3, got 0)"),
    (f"4096 {2**70} 12\n", [], 1, EMPTY, "need M < K, got M=1180591620717411303424, K=12"),
    (f"{-2**70} 0 1\n", [], 1, EMPTY, "N must be positive, got -1180591620717411303424"),
    ("# only\n   # comments\n\n", [], 1, EMPTY, "empty grid"),
    (CRLF_TRIPLES, [], 0,
     "e5aa15fba1dba49f9511f194f04ef010d7bd9c4b464258d3ba483e1485b72b69", None),
    (CRLF_TRIPLES, ["--format", "json"], 0,
     "8e44c0648daee06ed43157dc3f6d6b33b69e9dc9f3c60f76f12623640609b151", None),
    ("1_024 8 12\n٤٠٩٦ ٨ ١٢\n", [], 0,
     "fd8fc09adbc93876130d3b557b057e310331bc6d67bfd27a9dbc1e372f26c2d0", None),
    ("4096 8 12\n2048 4 6\n4096 8 12\n1024 3 5\n3072 9 15\n1024 2 3\n", ["--reduced"], 0,
     "dfa655424c6abfe5a2336db81b372d8d07c1a3b246ad6954f65c70debd0b8c88", None),
    ("4096 8 12\n2048 4 6\n4096 8 12\n4096 12 8\n", ["--reduced"], 1, EMPTY,
     "need M < K, got M=12, K=8"),
    ("\ufeff4096 8 12\n1024 4 6\n", [], 0,
     "fca79b0a91d0ffddc6f542b8a9c4577e041e7e9d6e7bb287f0b316e47d405444", None),
    (SMALL_DIVISOR_TRIPLES, ["--epsilon", "0.02"], 0,
     "592ba05551a772c7d1d2fcfd63e9870af88037221c860e14bb919825eb147c5b", None),
]


@pytest.mark.parametrize(
    "text, flags, code, digest, error", TRIPLES_PINS, ids=[repr(pin[0]) for pin in TRIPLES_PINS]
)
def test_golden_triples_file(capsys, tmp_path, text, flags, code, digest, error):
    triples = tmp_path / "pin.triples"
    triples.write_bytes(text.encode("utf-8"))
    assert main(["table", "--triples", str(triples), *flags]) == code
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == digest
    assert captured.err == ("" if error is None else f"groverstop: error: {error}\n")


def _block_triples(count: int) -> str:
    """A --triples file of `count` rows from a fixed 64-bit LCG, N in [2^16, 2^24).

    Every fourth row has K/M near 1 and a small K, so some rules certify;
    every seventh other row has M = 0, so gamma is missing there.
    """
    rows, x = [], 2026
    for i in range(count):
        x = (x * 6364136223846793005 + 1442695040888963407) % 2**64
        N = 2**16 + (x >> 20) % (2**24 - 2**16)
        u = x >> 44
        if i % 4 == 0:
            K = 2 + u % max(1, N // 2**19 + 3)
            M = max(1, K - 1 - (u >> 10) % 2) if K > 2 else 1
        else:
            M = (u % 200) if i % 7 else 0
            K = M + 1 + (u >> 8) % (4 * max(M, 1))
        rows.append(f"{N} {M} {K}\n")
    return "".join(rows)


# 7000 rows: 776 with M = 0, 431 certified and 1546 not found by --horizon
# 3001.  Recorded while the whole CSV was formatted as one matrix, before it
# was written in blocks of rows.
BLOCK_TRIPLES_PIN = (
    ["--horizon", "3001"], "9e3d21571b9f21d9a346291fd2c2b932075e39a2f5432df75699f05f3463e4cb"
)


def test_golden_multi_block_triples_file(capsys, tmp_path):
    flags, digest = BLOCK_TRIPLES_PIN
    triples = tmp_path / "blocks.triples"
    triples.write_text(_block_triples(7000))
    assert main(["table", "--triples", str(triples), *flags]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 7001
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


TABLE_RANGE_PINS = [
    ("--N-range 1180591620717411303424 --M-range 1 --K-range 2", 1, EMPTY,
     "N=1180591620717411303424 exceeds the float64 envelope 2**48"),
    # No corner of this grid is valid: the header alone.
    ("--N-range 4 --M-range 5 --K-range 6", 0,
     "9ded1d838d567488c4a3c14e668fd5d89143929933a81996f87c23c6cc58d8a0", None),
]


@pytest.mark.parametrize("ranges, code, digest, error", TABLE_RANGE_PINS)
def test_golden_table_ranges(capsys, ranges, code, digest, error):
    assert main(["table", *ranges.split()]) == code
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == digest
    assert captured.err == ("" if error is None else f"groverstop: error: {error}\n")


def _csv_pins(tmp_path: Path) -> list[tuple[list[str], str]]:
    """(argv, stdout sha256) of every pinned `orbit` and CSV `table` command.

    The --triples pins are written to files under tmp_path; their error pins
    are kept, as bad input must write nothing at any block size.
    """
    pins = [
        (command.split(), digest) for command, _, digest in GOLDEN
        if command.split()[0] in ("orbit", "table") and "json" not in command
    ]
    pins += [(["table", *ranges.split()], digest) for ranges, _, digest, _ in TABLE_RANGE_PINS]
    files = [(text, flags, digest) for text, flags, _, digest, _ in TRIPLES_PINS]
    files.append((_block_triples(7000), *BLOCK_TRIPLES_PIN))
    edge = "".join(f"{N} {M} {K}\n" for N, M, K in ENVELOPE_EDGE_TRIPLES)
    files.append((edge, [], dict(ENVELOPE_EDGE_PINS)["csv"]))
    for i, (text, flags, digest) in enumerate(files):
        if "json" not in flags:
            path = tmp_path / f"pin{i}.triples"
            path.write_bytes(text.encode("utf-8"))
            pins.append((["table", "--triples", str(path), *flags], digest))
    return pins


def test_csv_pins_hold_at_any_block_size(capsys, tmp_path, monkeypatch):
    """Every pinned CSV has the same bytes however many rows a block holds.

    Sizes of one to a few rows cross a block boundary after every row or
    few, and leave a partial last block; each pin runs at each size that
    gives it at most 2048 blocks, which keeps this test fast.
    """
    checked = 0
    for argv, digest in _csv_pins(tmp_path):
        rows = None
        for block_rows in (cli._BLOCK_ROWS, 1021, 3, 1):
            if rows is not None and rows > 2048 * block_rows:
                continue
            monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
            main(argv)
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, (argv, block_rows)
            rows = out.count("\n")
            checked += block_rows == 1
        monkeypatch.undo()
    assert checked > 20


def test_masked_column_empty_within_a_block(capsys, tmp_path, monkeypatch):
    """Three-row blocks of a table where some blocks hold no l_constructive cell and others do."""
    triples = tmp_path / "blocks.triples"
    triples.write_text(_block_triples(600))
    assert main(["table", "--triples", str(triples)]) == 0
    whole = capsys.readouterr().out
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 3)
    assert main(["table", "--triples", str(triples)]) == 0
    assert capsys.readouterr().out == whole
    rows = [line.split(",") for line in whole.splitlines()[1:]]
    present = [sum(row[9] != "" for row in rows[i : i + 3]) for i in range(0, len(rows), 3)]
    assert 0 in present and max(present) > 0


@pytest.mark.parametrize(
    "argv",
    [["orbit", "--N", "4096", "--M", "8", "--K", "12", "--l-max", "1"],
     ["table", "--N-range", "4096", "--M-range", "8", "--K-range", "12"]],
    ids=["orbit", "table"],
)
def test_one_row_output(capsys, monkeypatch, argv):
    """One data row, alone in its block at every block size."""
    outputs = []
    for block_rows in (1, 3, cli._BLOCK_ROWS):
        monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0].count("\n") == 2 and outputs == outputs[:1] * 3


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


def test_readme_commands_leave_numpy_random_unimported(tmp_path):
    """No README command imports numpy.random: its ~2 MiB of RSS is about 5 % of a
    monte_carlo peak, so run_discrimination replays PCG64 without it."""
    commands = [command.split() for command in _readme_commands()]
    for words in commands:
        if words[0] == "table":
            words += ["--out", str(tmp_path / "table.csv")]
    script = (
        "import json, sys\n"
        "from pathlib import Path\n"
        "from groverstop.cli import main\n"
        "codes = [main(words) for words in json.loads(sys.argv[1])]\n"
        "Path(sys.argv[2]).write_text(json.dumps([codes, 'numpy.random' in sys.modules]))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = tmp_path / "result.json"
    run = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands), str(result)],
        capture_output=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert (run.returncode, run.stderr) == (0, b"")
    codes, imported = json.loads(result.read_text())
    pinned = {command: code for command, code, _ in GOLDEN}
    assert codes == [pinned[command] for command in _readme_commands()]
    assert (tmp_path / "table.csv").stat().st_size > 0
    assert not imported


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
