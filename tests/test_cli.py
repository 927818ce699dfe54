import contextlib
import csv
import io
import json
import math
import sys
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from groverstop import (
    angles_of,
    certify,
    check_applicability,
    cli,
    construct_rule,
    core_model,
    default_horizon,
    diophantine,
    error_bound,
    failure_probabilities,
    make_instance,
    minimal_odd_l,
    stopping_rule,
    transforms,
)
from groverstop.cli import (
    TABLE_FIELDS, _TABLE_COLUMNS, _csv_text, _row_blocks, _triple_columns, _with_none,
    build_table_rows, main,
)
from oracles import reduce_common_divisor


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _table_rows(triples, epsilon, horizon=None):
    """build_table_rows' columns, transposed: one tuple of Python values per row.

    A cell outside its column's presence mask is None.
    """
    columns, present = build_table_rows(_triple_columns(triples), epsilon, horizon)
    return list(zip(*map(_with_none, columns, present)))


class TestRuleCommand:
    def test_best_effort_emits_construction(self, capsys):
        code, out = run_cli(
            capsys, "rule", "--N", "1000000", "--M", "1", "--K", "2", "--best-effort"
        )
        assert code == 0
        report = json.loads(out)
        assert report["rule"]["p"] == 1
        assert report["rule"]["s"] == 6283
        assert report["rule"]["l"] == 6283
        assert report["certificate"]["residual_K_ok"]

    def test_not_applicable_ordering(self, capsys):
        code, out = run_cli(capsys, "rule", "--N", "100", "--M", "1", "--K", "60")
        assert code == 2
        assert json.loads(out)["reason"] == "ordering"

    @pytest.mark.parametrize(
        "N, M, K, reason, error",
        [
            ("100", "1", "60", "ordering", "applicability flag failed: ordering"),
            ("1048576", "740", "800", "size_condition",
             "applicability flag failed: size_condition"),
            ("1000000", "1", "2", "gamma_too_large",
             "gamma - 1 > 1/4; retry with --best-effort or search"),
        ],
    )
    def test_refusal_names_first_failed_flag(self, capsys, N, M, K, reason, error):
        argv = ["rule", "--N", N, "--M", M, "--K", K]
        code, out = run_cli(capsys, *argv)
        report = json.loads(out)
        assert (code, report["reason"], report["error"]) == (2, reason, error)
        assert "rule" not in report and "certificate" not in report
        code, out = run_cli(capsys, *argv, "--best-effort")
        report = json.loads(out)
        assert code == 0 and "reason" not in report and "error" not in report
        instance = make_instance(int(N), int(M), int(K))
        assert report["rule"] == asdict(construct_rule(instance))

    def test_plain_grover_path(self, capsys):
        code, out = run_cli(capsys, "rule", "--N", "4", "--M", "0", "--K", "1")
        assert code == 0
        report = json.loads(out)
        assert report["path"] == "plain-grover"
        assert report["search"]["l"] == 3

    def test_input_error(self, capsys):
        code, _ = run_cli(capsys, "rule", "--N", "4", "--M", "2", "--K", "1")
        assert code == 1

    def test_usage_error_exit_64(self):
        with pytest.raises(SystemExit) as exc:
            main(["rule", "--N", "4", "--M", "0"])
        assert exc.value.code == 64
        with pytest.raises(SystemExit) as exc:
            main(["nonsense"])
        assert exc.value.code == 64


class TestSearchCommand:
    def test_degenerate_pair(self, capsys):
        code, out = run_cli(
            capsys, "search", "--N", "4", "--M", "0", "--K", "1", "--tol", "0.01"
        )
        assert code == 0
        assert json.loads(out)["search"]["l"] == 3

    def test_strict_mode(self, capsys):
        code, out = run_cli(
            capsys,
            "search", "--N", "4", "--M", "0", "--K", "1",
            "--tol", "0.001", "--mode", "strict",
        )
        assert code == 0
        report = json.loads(out)["search"]
        assert report["mode"] == "strict"
        assert report["l"] == 3

    def test_horizon_of_exact_doubles_is_scanned(self, capsys):
        code, out = run_cli(
            capsys, "search", "--N", "4096", "--M", "8", "--K", "12", "--horizon", str(2**53)
        )
        assert code == 0
        assert json.loads(out)["search"]["horizon"] == 2**53

    # No scan gets past 2**53, so a report must not claim a horizon beyond it.
    @pytest.mark.parametrize("horizon", ["0", "-3", str(2**53 + 1), "99999999999999999999"])
    def test_horizon_outside_exact_doubles_rejected(self, capsys, horizon):
        code = main(["search", "--N", "4096", "--M", "8", "--K", "12", "--horizon", horizon])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == (
            f"groverstop: error: --horizon must lie in [1, 2**53], got {horizon}\n"
        )

    # scan_rows checks its threshold too, but under its own name, not the flag's.
    @pytest.mark.parametrize("tol", ["2", "1", "0", "-0.5", "nan"])
    def test_tol_outside_unit_interval_rejected(self, capsys, tol):
        code = main(["search", "--N", "4096", "--M", "8", "--K", "12", "--tol", tol])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == f"groverstop: error: --tol must lie in (0, 1), got {float(tol)}\n"


class TestOrbitCommand:
    def test_trace(self, capsys):
        code, out = run_cli(
            capsys, "orbit", "--N", "4", "--M", "0", "--K", "1", "--l-max", "5"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "l,x_K,x_M,strict_distance,relaxed_score"
        assert len(lines) == 1 + (5 + 1) // 2
        row3 = lines[2].split(",")
        assert row3[0] == "3"
        assert float(row3[3]) <= 1e-15  # strict distance at the exact hit

    def test_byte_identical_regeneration(self, capsys):
        _, a = run_cli(capsys, "orbit", "--N", "64", "--M", "3", "--K", "7", "--l-max", "41")
        _, b = run_cli(capsys, "orbit", "--N", "64", "--M", "3", "--K", "7", "--l-max", "41")
        assert a == b

    def test_even_l_max_rejected(self, capsys):
        code, _ = run_cli(capsys, "orbit", "--N", "4", "--M", "0", "--K", "1", "--l-max", "4")
        assert code == 1

    # 2**53 + 1 is odd but past the exact doubles; the largest odd l_max that
    # passes is 2**53 - 1, which would stream its rows, so it is not run here.
    @pytest.mark.parametrize("l_max", [2**53 + 1, 2**53, 0, -1, 2**70 + 1])
    def test_l_max_outside_exact_doubles_rejected(self, capsys, tmp_path, l_max):
        out_file = tmp_path / "orbit.csv"
        argv = ["orbit", "--N", "4", "--M", "0", "--K", "1", f"--l-max={l_max}"]
        for out in ([], ["--out", str(out_file)]):
            code = main([*argv, *out])
            captured = capsys.readouterr()
            assert (code, captured.out) == (1, "")
            assert captured.err == (
                f"groverstop: error: --l-max must be odd and lie in [1, 2**53], got {l_max}\n"
            )
        assert not out_file.exists()

    def test_memory_is_flat_in_l_max(self, tmp_path):
        """Rows are computed and written per block: 4x the rows, the same traced peak."""
        out_file = tmp_path / "orbit.csv"

        def peak(l_max):
            argv = ["orbit", "--N", "1048576", "--M", "37", "--K", "41", "--l-max", str(l_max)]
            tracemalloc.start()
            try:
                assert main([*argv, "--out", str(out_file)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        rows = 4 * cli._BLOCK_ROWS
        peak(1)  # builds the layout table before anything is traced
        small, large = peak(2 * rows - 1), peak(8 * rows - 1)
        assert out_file.read_text().count("\n") == 1 + 4 * rows
        assert large <= small + 64 * 1024, (small, large)


class TestTableCommand:
    def test_single_triple(self, capsys, tmp_path):
        triples = tmp_path / "triples.txt"
        triples.write_text("4 0 1\n")
        code, out = run_cli(capsys, "table", "--triples", str(triples))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ",".join(TABLE_FIELDS)
        assert len(lines) == 2
        row = dict(zip(TABLE_FIELDS, lines[1].split(",")))
        assert row["l_minimal"] == "3"
        assert row["gamma"] == ""  # absent for M = 0
        assert row["p"] == ""

    def test_reduced_dedup(self, capsys, tmp_path):
        triples = tmp_path / "triples.txt"
        triples.write_text("4 0 1\n8 0 2\n12 0 3\n")
        code, out = run_cli(capsys, "table", "--triples", str(triples), "--reduced")
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_csv_round_trip(self, capsys, tmp_path):
        triples = tmp_path / "triples.txt"
        triples.write_text("1024 8 12\n4096 32 48\n")
        code, out = run_cli(capsys, "table", "--triples", str(triples))
        assert code == 0
        lines = out.splitlines()
        for line, (n, m, k) in zip(lines[1:], [(1024, 8, 12), (4096, 32, 48)]):
            parsed = dict(zip(TABLE_FIELDS, line.split(",")))
            row = dict(zip(TABLE_FIELDS, _table_rows([(n, m, k)], 1.0 / 12.0)[0]))
            for field, value in row.items():
                cell = parsed[field]
                if value is None:
                    assert cell == ""
                elif isinstance(value, bool):
                    assert cell == ("true" if value else "false")
                elif isinstance(value, float):
                    assert float(cell) == value
                else:
                    assert int(cell) == value

    def test_json_uses_null(self, capsys, tmp_path):
        triples = tmp_path / "triples.txt"
        triples.write_text("4 0 1\n")
        code, out = run_cli(capsys, "table", "--triples", str(triples), "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["gamma"] is None
        assert rows[0]["l_minimal"] == 3

    def test_grid_ranges_and_invariant(self, capsys):
        code, out = run_cli(
            capsys,
            "table",
            "--N-range", "1024:4096:1024",
            "--M-range", "4:12:4",
            "--K-range", "6:18:6",
            "--format", "json",
        )
        assert code == 0
        for row in json.loads(out):
            if row["l_minimal"] is not None and row["l_constructive"] is not None:
                assert row["l_minimal"] <= row["l_constructive"]

    def test_empty_grid_is_input_error(self, capsys, tmp_path):
        triples = tmp_path / "triples.txt"
        triples.write_text("")
        code, _ = run_cli(capsys, "table", "--triples", str(triples))
        assert code == 1

    @pytest.mark.parametrize("text", [" \n\t\n\n", "# N M K\n  # more\n"], ids=["blank", "comments"])
    def test_file_without_rows_writes_one_error_line(self, capsys, tmp_path, text):
        triples = tmp_path / "triples.txt"
        triples.write_text(text)
        code = main(["table", "--triples", str(triples)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", "groverstop: error: empty grid\n")

    def test_csv_matches_csv_writer(self):
        columns = [("a", float), ("b_c", bool), ("d", int), ("e", float)]
        rows = [
            (None, True, 0, math.inf),
            (-0.0, False, -7, -math.inf),
            (1e-300, None, 2**60, 0.1),
            (math.nan, True, None, -1.5e17),
            (1.0, False, 1, 0.0),  # numbers equal to True and False
            (None, None, None, None),
        ]

        def cell(value):
            if value is None:
                return ""
            if isinstance(value, bool):
                return "true" if value else "false"
            if isinstance(value, float):
                return format(value, ".17g")
            return str(value)

        reference = io.StringIO()
        writer = csv.writer(reference, lineterminator="\n")
        writer.writerow([name for name, _ in columns])
        for row in rows:
            writer.writerow([cell(value) for value in row])
        cells, present = [], []
        for (_, kind), column in zip(columns, zip(*rows)):
            cells.append(np.array([kind() if v is None else v for v in column], dtype=kind))
            present.append(np.array([v is not None for v in column]))
        assert "".join(_csv_text(columns, _row_blocks(cells, present))) == reference.getvalue()

    def test_scan_miss_keeps_certified_rule(self, monkeypatch):
        # The scan cannot miss below a certified l, so force the miss.
        def missed(theta_K, theta_M, threshold, horizons, mode="relaxed"):
            return np.zeros(len(horizons), dtype=np.int64), np.full(len(horizons), np.nan)

        monkeypatch.setattr(cli, "scan_rows", missed)
        row = dict(zip(TABLE_FIELDS, _table_rows([(65536, 12, 13)], 1.0 / 12.0)[0]))
        instance = make_instance(65536, 12, 13)
        assert check_applicability(instance).all_ok
        rule = construct_rule(instance)
        cert = certify(rule, instance, 1.0 / 12.0)
        fails = failure_probabilities(rule.l, angles_of(instance))
        assert row["l_constructive"] == rule.l == 3255 and row["l_minimal"] is None
        assert (row["fail_K"], row["fail_M"]) == (cert.fail_K, cert.fail_M)
        assert (row["fail_K"], row["fail_M"]) == (fails.fail_K, fails.fail_M)


def _reference_triples(path):
    """Each kept line of a --triples file parsed, then passed to make_instance, one at a time."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                n, m, k = (int(tok) for tok in line.replace(",", " ").split())
                instance = make_instance(n, m, k)
                rows.append((instance.N, instance.M, instance.K))
    if not rows:
        raise ValueError("empty grid")
    return rows


@st.composite
def _valid_triple(draw):
    N = draw(st.integers(1, 2 ** draw(st.integers(0, 48))))
    K = draw(st.integers(1, N))
    return N, draw(st.integers(0, K - 1)), K


_ANY_COUNT = st.one_of(st.integers(-3, 300), st.integers(-(2**70), 2**70))
_JUNK = st.sampled_from(["x", "1.5", "1e3", "0x10", "1_0", "٤٢", "+7", "-0", "--1", "_1"])
_SEPARATOR = st.sampled_from([" ", ",", ", ", "\t", " ,, "])


@st.composite
def _triples_line(draw):
    """A valid, invalid or malformed row, a comment or a blank line."""
    kind = draw(st.sampled_from(["valid", "valid", "invalid", "malformed", "comment", "blank"]))
    if kind == "comment":
        return draw(st.sampled_from(["#", "# N M K", "  #4096 12 8"]))
    if kind == "blank":
        return draw(st.sampled_from(["", "   ", "\t"]))
    if kind == "valid":
        tokens = [str(value) for value in draw(_valid_triple())]
    elif kind == "invalid":
        tokens = [str(draw(_ANY_COUNT)) for _ in range(3)]
    else:
        tokens = draw(st.lists(st.one_of(_JUNK, _ANY_COUNT.map(str)), max_size=5))
    return draw(_SEPARATOR).join(tokens)


def _load_quietly(path):
    """cli._load_triples(path), which must write nothing to stderr."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            return cli._load_triples(path)
    finally:
        assert err.getvalue() == ""


class TestTriplesReader:
    """The columnar reader takes --triples rows as the row-by-row reference does."""

    # The examples after the first three are where np.loadtxt and int() part
    # ways: the reader must fall back to its row-by-row path there.
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_triples_line(), max_size=12), st.sampled_from(["\n", "\r\n"]))
    @example(["4096 12 8", "4096 8 x"], "\n")
    @example([f"{2**70} 1 2", "4096 8 x"], "\n")
    @example(["4096 8 x", "4096 12 8"], "\n")
    @example(["4096 8 12 # x"], "\n")
    @example(["4096 8 12", "1_0 2 3", "1024,4,6"], "\n")
    @example(["4096 8 12", "\u0664\u0662 1 2", "1024 4 6"], "\r\n")
    @example(["4096 8 12", f"{2**63} 1 2"], "\n")
    @example(["4096 8 12", f"{2**63 - 1} 1 2"], "\n")
    @example(["   ", "\t", ""], "\n")
    @example(["# N M K", "  # 4096 8 12"], "\r\n")
    def test_matches_row_by_row_reference(self, tmp_path_factory, lines, newline):
        path = tmp_path_factory.mktemp("triples") / "rows.txt"
        path.write_bytes("".join(line + newline for line in lines).encode("utf-8"))
        try:
            expected = _reference_triples(path)
        except ValueError as exc:
            with pytest.raises(type(exc)) as raised:
                _load_quietly(path)
            assert str(raised.value) == str(exc)
        else:
            counts = _load_quietly(path)
            assert counts.dtype == np.int64 and counts.shape == (3, len(expected))
            assert list(zip(*counts.tolist())) == expected

    def test_plain_file_takes_one_loadtxt_parse(self, tmp_path, monkeypatch):
        # A file of ASCII integers, three to a line, never reaches the row-by-row path.
        def row_by_row(rows):
            raise AssertionError("row-by-row path taken")

        monkeypatch.setattr(cli, "_triple_columns", row_by_row)
        path = tmp_path / "rows.txt"
        path.write_bytes("\ufeff4096 8 12\r\n\r\n1024, 4, 6\r\n+7 -0 1\n".encode("utf-8"))
        assert cli._load_triples(path).tolist() == [[4096, 1024, 7], [8, 4, 0], [12, 6, 1]]
        path.write_text("4096 8 12\n4096 12 8\n")
        with pytest.raises(ValueError, match="need M < K, got M=12, K=8"):
            cli._load_triples(path)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from([(8, 2, 3), (12, 0, 5), (9, 3, 6)]), st.integers(1, 4)),
            min_size=1, max_size=12,
        )
    )
    def test_reduced_keeps_first_of_each_family(self, tmp_path_factory, scaled):
        triples = [(N * g, M * g, K * g) for (N, M, K), g in scaled]
        path = tmp_path_factory.mktemp("triples") / "rows.txt"
        path.write_text("".join(f"{N} {M} {K}\n" for N, M, K in triples))
        args = cli._parser().parse_args(["table", "--triples", str(path), "--reduced"])
        seen, expected = set(), []
        for N, M, K in triples:
            family = reduce_common_divisor(M, K, N)
            if family not in seen:
                seen.add(family)
                expected.append((N, M, K))
        assert list(zip(*cli._table_counts(args).tolist())) == expected

    @pytest.mark.parametrize(
        "bad, error", [("4096 12 8", "need M < K, got M=12, K=8"),
                       ("4096 8 x", "invalid literal for int() with base 10: 'x'")],
        ids=["invalid", "malformed"],
    )
    def test_bad_row_after_full_blocks_writes_nothing(
        self, capsys, tmp_path, monkeypatch, bad, error
    ):
        """Every row is judged before the first block: no byte reaches stdout or --out."""
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 1)
        path = tmp_path / "rows.txt"
        path.write_text("4096 8 12\n1024 4 6\n65536 12 13\n" + bad + "\n")
        out_file = tmp_path / "table.csv"
        for out in ([], ["--out", str(out_file)]):
            code = main(["table", "--triples", str(path), *out])
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (1, "", f"groverstop: error: {error}\n")
        assert not out_file.exists()


def _reference_corners(ns, ms, ks):
    """The corners of a grid product with 0 <= m < k <= n, in product order, one at a time."""
    return _triple_columns((n, m, k) for n in ns for m in ms for k in ks if 0 <= m < k <= n)


_SMALL_RANGE = st.builds(
    range, st.integers(-6, 40), st.integers(-6, 60), st.integers(1, 7)
)


class TestGridCorners:
    """A range grid's corners are built as arrays, and equal the row-by-row product."""

    @settings(max_examples=300, deadline=None)
    @given(_SMALL_RANGE, _SMALL_RANGE, _SMALL_RANGE)
    def test_matches_row_by_row_product(self, ns, ms, ks):
        counts = cli._grid_counts(ns, ms, ks)
        expected = _reference_corners(ns, ms, ks)
        assert counts.dtype == np.int64 and counts.shape == expected.shape
        assert (counts == expected).all()

    @pytest.mark.parametrize("cells", [1, 5, 64])
    @pytest.mark.parametrize(
        "ranges",
        [(range(2, 3000), range(1, 2), range(2, 3)),
         (range(3, 60, 7), range(0, 9, 2), range(1, 12, 3)),
         (range(40, 41), range(0, 30), range(1, 41))],
        ids=["tall", "mixed", "wide"],
    )
    def test_batches_of_n_values(self, monkeypatch, cells, ranges):
        """Batches of N values, capped at a few cells or at one N's pairs, keep product order."""
        monkeypatch.setattr(cli, "_GRID_CELLS", cells)
        assert cli._grid_counts(*ranges).tolist() == _reference_corners(*ranges).tolist()

    # Ends past int64, of either sign, at the envelope or past it, each with
    # the small ranges that hold the same corners.
    @pytest.mark.parametrize(
        "ranges, small",
        [
            ((range(4, 5), range(-(2**70), 2), range(1, 2**70)),
             (range(4, 5), range(0, 2), range(1, 5))),
            # -2**70 is 2 mod 3, and 2 is the only K under N = 2.
            ((range(-(2**70), 4, 3), range(-(2**63) - 1, 3), range(2, 2**64, 2**62)),
             (range(2, 3), range(0, 3), range(2, 3))),
            ((range(2**48 - 1, 2**48 + 1), range(2**48 - 3, 2**48), range(2**48 - 1, 2**70)),
             (range(2**48 - 1, 2**48 + 1), range(2**48 - 3, 2**48), range(2**48 - 1, 2**48 + 1))),
            # No K above any M: no corner, however many N.
            ((range(1, 2**70), range(5, 2**70), range(-(2**70), 6)),
             (range(1, 2), range(0), range(0))),
        ],
    )
    def test_range_ends_of_any_size(self, ranges, small):
        counts = cli._grid_counts(*ranges)
        assert counts.dtype == np.int64
        assert counts.tolist() == _reference_corners(*small).tolist()

    def test_first_corner_past_the_envelope_is_the_error(self):
        ns = range(2**48 - 1, 2**48 + 4)
        with pytest.raises(ValueError, match=f"^N={2**48 + 1} exceeds the float64 envelope"):
            cli._grid_counts(ns, range(0, 1), range(1, 2))
        with pytest.raises(ValueError, match=f"^N={2**48 + 3} exceeds the float64 envelope"):
            cli._grid_counts(ns, range(2**48 + 2, 2**48 + 3), range(2**48 + 3, 2**70))

    @pytest.mark.parametrize(
        "ranges", [["--M-range=-1180591620717411303424:1", "--K-range", "1:18446744073709551617"],
                   ["--M-range", "1180591620717411303424", "--K-range", "1:2"]],
        ids=["beyond-int64", "no-corner"],
    )
    def test_cli_takes_range_ends_past_int64(self, capsys, ranges):
        code, out = run_cli(capsys, "table", "--N-range", "4", *ranges)
        assert code == 0 and out.startswith("N,M,K,")
        assert [line[:6] for line in out.splitlines()[1:]] == (
            ["4,0,1,", "4,0,2,", "4,0,3,", "4,0,4,", "4,1,2,", "4,1,3,", "4,1,4,"]
            if ranges[0].startswith("--M-range=") else []
        )


def _cell_texts(kind, values):
    """The cells cli._cell_block writes for the values, padding dropped."""
    block = cli._cell_block(kind, np.asarray(values, dtype=kind))
    return [bytes(row).replace(b"\0", b"").decode("ascii") for row in block]


class TestCellKernels:
    """The column kernels write what Python's %-format writes, cell for cell."""

    def check_floats(self, values):
        values = np.asarray(values, dtype=np.float64)
        assert _cell_texts(float, values) == ["%.17g" % value for value in values.tolist()]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_float_random_bit_patterns(self, seed):
        rng = np.random.default_rng(seed)
        # Any bits, so every exponent; then bits whose exponent lies in the kernel's range.
        bits = rng.integers(0, 2**64, size=2000, dtype=np.uint64)
        near = rng.integers(1023 - 40, 1023 + 52, size=2000, dtype=np.uint64)
        bits[1000:] = bits[1000:] & np.uint64(2**52 - 1) | near[1000:] << np.uint64(52)
        self.check_floats(bits.view(np.float64))

    def test_float_powers_of_ten_and_neighbours(self):
        powers = [float(f"1e{k}") for k in range(-13, 19)]
        below = np.nextafter(powers, 0.0)
        self.check_floats(powers + below.tolist() + np.nextafter(powers, math.inf).tolist())
        self.check_floats(np.nextafter(below, 0.0))

    # m / 2**j has the digits of m * 5**j.  For odd m with m * 5**j in
    # [10**17, 10**18) that is 18 significant digits, the last a 5: a tie at
    # 17.  j = 17 holds the odd/2**17 in [1, 2); j from 3 to 25 spans about
    # 1e-7 to 1e15.
    @pytest.mark.parametrize("j", [3, 8, 13, 17, 21, 25])
    def test_float_exact_ties_round_half_to_even(self, j):
        if j == 17:
            m = np.arange(2**17 + 1, 2**18, 2)
        else:
            lo, hi = -(-(10**17) // 5**j), 10**18 // 5**j
            m = np.unique(np.linspace(lo, hi - 1, 20000).astype(np.int64) | 1)
        assert all(10**17 <= value * 5**j < 10**18 for value in m.tolist())
        ties = np.ldexp(m.astype(np.float64), -j)
        self.check_floats(ties)
        # The kernel writes them, but for a few just below a power of ten,
        # where log10 rounds up and the estimated exponent is one too large.
        done, _ = cli._float_kernel(ties)
        assert done.mean() > 0.999

    def test_float_special_values(self):
        self.check_floats([
            0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308,
            -2.2250738585072014e-308, 1e-300, -1.5, -0.1, -1e-5, 1.7976931348623157e308,
            1e15, 2.0**53, 1e16, 1e17, 123456789012345680.0,
        ])
        assert _cell_texts(float, []) == []

    def test_int_edges(self):
        values = [0, 9, 10, 99, 100, 9999, 10**4, 2**63 - 1, -1, -10, -(2**63), 7, 0]
        assert _cell_texts(int, values) == ["%d" % value for value in values]
        assert _cell_texts(int, [0]) == ["0"]
        assert _cell_texts(int, []) == []

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=50))
    def test_int_any_values(self, values):
        assert _cell_texts(int, values) == ["%d" % value for value in values]


class TestExperimentCommand:
    def test_exact_case(self, capsys):
        code, out = run_cli(
            capsys,
            "experiment", "--N", "4", "--M", "0", "--K", "1",
            "--l", "3", "--trials", "1000", "--seed", "3",
        )
        assert code == 0
        report = json.loads(out)
        assert report["outcomes"]["M"]["errors"] == 0
        assert report["outcomes"]["K"]["errors"] == 0
        assert report["rng_algorithm"]

    def test_deterministic(self, capsys):
        args = (
            "experiment", "--N", "64", "--M", "2", "--K", "4",
            "--l", "7", "--trials", "200", "--seed", "11",
        )
        _, a = run_cli(capsys, *args)
        _, b = run_cli(capsys, *args)
        assert a == b

    def test_cap_advises_subspace(self, capsys):
        code, _ = run_cli(
            capsys,
            "experiment", "--N", str(1 << 23), "--M", "1", "--K", "2",
            "--l", "3", "--trials", "10", "--seed", "0",
        )
        assert code == 1

    def test_negative_seed(self, capsys):
        code, out = run_cli(
            capsys,
            "experiment", "--N", "1024", "--M", "2", "--K", "3",
            "--l", "5", "--trials", "20", "--seed", "-1",
        )
        assert (code, out) == (1, "")


class TestPadCommand:
    def test_doubling(self, capsys):
        code, out = run_cli(
            capsys, "pad", "--M", "1", "--N", str(1 << 20)
        )
        assert code == 0
        report = json.loads(out)
        assert report["r"] == 16
        assert report["M_prime"] == 17
        assert report["K_prime"] == 18

    def test_premise_violated_is_input_error(self, capsys):
        code, _ = run_cli(capsys, "pad", "--M", "100", "--N", "400")
        assert code == 1

    def test_error_names_the_given_N(self, capsys):
        # The padded N, 17 times as large, is not what the user typed.
        code = main(["pad", "--M", "1", "--N", "562949953421312"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == (
            "groverstop: error: N=562949953421312 exceeds the float64 envelope 2**48\n"
        )


class TestDiagnoseCommand:
    def test_threshold_zero_lists_everything(self, capsys):
        code, out = run_cli(
            capsys,
            "diagnose", "--N", "1024",
            "--M-range", "1:3", "--K-range", "4:6", "--threshold", "0",
        )
        assert code == 0
        entries = json.loads(out)
        assert len(entries) == 9
        ratios = [e["ratio"] for e in entries]
        assert ratios == sorted(ratios, reverse=True)

    def test_well_conditioned_high_threshold_empty(self, capsys):
        code, out = run_cli(
            capsys,
            "diagnose", "--N", "4096",
            "--M-range", "8:8", "--K-range", "12:12", "--threshold", "11",
        )
        assert code == 0
        assert json.loads(out) == []

    @pytest.mark.parametrize("horizon", [None, 151])
    def test_entries_match_per_row_reference(self, capsys, horizon):
        N, epsilon, threshold = 1024, 0.05, 1.2
        flags = [] if horizon is None else ["--horizon", str(horizon)]
        code, out = run_cli(
            capsys, "diagnose", "--N", str(N), "--M-range", "0:12", "--K-range", "1:40",
            "--threshold", str(threshold), "--epsilon", str(epsilon), *flags,
        )
        expected = []
        for M in range(13):
            for K in range(M + 1, 41):
                instance = make_instance(N, M, K)
                scan_horizon = default_horizon(instance) if horizon is None else horizon
                search = minimal_odd_l(angles_of(instance), error_bound(epsilon), scan_horizon)
                l_bound = transforms.l_bound_of(N, M, K)
                ratio = (search.l or scan_horizon) / l_bound
                if not search.found or ratio > threshold:
                    expected.append({
                        "N": N, "M": M, "K": K, "l_minimal": search.l, "l_bound": l_bound,
                        "ratio": ratio, "exhausted": not search.found, "horizon": scan_horizon,
                    })
        expected.sort(key=lambda e: (-e["ratio"], e["M"], e["K"]))
        exhausted = sum(e["exhausted"] for e in expected)
        assert code == 0 and 0 < exhausted < len(expected)
        assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


class TestOutputFile:
    def test_out_flag_writes_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code, out = run_cli(
            capsys, "rule", "--N", "4", "--M", "0", "--K", "1", "--out", str(out_file)
        )
        assert code == 0
        assert out == ""
        assert json.loads(out_file.read_text())["search"]["l"] == 3


INSTANCE_KEYS = {"N", "M", "K", "strict_regime"}
APPLICABILITY_KEYS = {
    "ordering_ok", "size_condition_ok", "gamma_small_ok", "epsilon_bound", "all_ok",
}
SEARCH_KEYS = {"found", "l", "score", "fail_K", "fail_M", "horizon", "mode", "threshold"}


class TestJsonKeys:
    """The key sets of every JSON report, pinned so serialization cannot drift."""

    def test_rule_constructive(self, capsys):
        code, out = run_cli(capsys, "rule", "--N", "65536", "--M", "12", "--K", "13")
        assert code == 0
        report = json.loads(out)
        assert set(report) == {
            "instance", "applicability", "epsilon", "path", "rule", "certificate",
        }
        assert set(report["instance"]) == INSTANCE_KEYS
        assert set(report["applicability"]) == APPLICABILITY_KEYS
        assert set(report["rule"]) == {
            "p", "s", "l", "m", "residual_K", "residual_M", "l_bound", "m_bound",
        }
        assert set(report["certificate"]) == {
            "epsilon", "error_bound", "fail_K", "fail_M", "l_odd", "residual_K_ok",
            "residual_M_ok", "epsilon_covers_gamma", "fail_K_ok", "fail_M_ok",
            "l_within_bound", "certified",
        }
        assert report["rule"]["l"] == 3255 and report["certificate"]["certified"]

    def test_rule_plain_grover(self, capsys):
        code, out = run_cli(capsys, "rule", "--N", "4", "--M", "0", "--K", "1")
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"instance", "applicability", "epsilon", "path", "search"}
        assert set(report["instance"]) == INSTANCE_KEYS
        assert set(report["applicability"]) == APPLICABILITY_KEYS
        assert set(report["search"]) == SEARCH_KEYS

    def test_search(self, capsys):
        code, out = run_cli(
            capsys, "search", "--N", "4096", "--M", "8", "--K", "12", "--tol", "0.25"
        )
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"instance", "search"}
        assert set(report["instance"]) == INSTANCE_KEYS
        assert set(report["search"]) == SEARCH_KEYS

    def test_pad(self, capsys):
        code, out = run_cli(capsys, "pad", "--M", "1", "--N", "1048576")
        assert code == 0
        report = json.loads(out)
        assert set(report) == {
            "r", "M_prime", "K_prime", "N_prime", "original", "gamma_prime",
            "gamma_prime_lower", "gamma_gap_ok", "size_condition_ok", "m_bound_padded",
        }
        assert set(report["original"]) == INSTANCE_KEYS

    def test_experiment(self, capsys):
        code, out = run_cli(
            capsys, "experiment", "--N", "1024", "--M", "2", "--K", "3", "--l", "5",
            "--trials", "20", "--seed", "0",
        )
        assert code == 0
        report = json.loads(out)
        assert set(report) == {
            "instance", "l", "trials", "seed", "epsilon", "rng_algorithm", "expected",
            "outcomes",
        }
        assert set(report["instance"]) == INSTANCE_KEYS
        assert set(report["expected"]) == {"fail_K", "fail_M"}
        assert set(report["outcomes"]) == {"M", "K"}
        for outcome in report["outcomes"].values():
            assert set(outcome) == {
                "truth", "trials", "errors", "empirical_error", "bound", "seed",
            }


class TestBadInputIsExitOne:
    """Out-of-range or non-finite input exits 1 and writes nothing to stdout."""

    # 0.25, 0.5 and 0.9 lie outside (0, 1/4); 1e-320 inside, but its error
    # bound rounds to 0.
    @pytest.mark.parametrize(
        "epsilon", ["-1", "nan", "0", "1", "inf", "0.25", "0.5", "0.9", "1e-320"]
    )
    def test_rule_epsilon(self, capsys, epsilon):
        code, out = run_cli(
            capsys, "rule", "--N", "4096", "--M", "8", "--K", "9", "--epsilon", epsilon
        )
        assert (code, out) == (1, "")

    @pytest.mark.parametrize("epsilon", ["-1", "nan"])
    def test_rule_epsilon_on_other_paths(self, capsys, epsilon):
        for triple in (("4", "0", "1"), ("1048576", "740", "800")):
            N, M, K = triple
            code, out = run_cli(
                capsys, "rule", "--N", N, "--M", M, "--K", K, "--epsilon", epsilon
            )
            assert (code, out) == (1, "")

    def test_experiment_epsilon_nan(self, capsys):
        code, out = run_cli(
            capsys, "experiment", "--N", "1024", "--M", "2", "--K", "3", "--l", "5",
            "--trials", "20", "--seed", "0", "--epsilon", "nan",
        )
        assert (code, out) == (1, "")

    def test_table_epsilon_nan(self, capsys):
        code, out = run_cli(
            capsys, "table", "--N-range", "4096", "--M-range", "8", "--K-range", "12",
            "--epsilon", "nan",
        )
        assert (code, out) == (1, "")

    def test_diagnose_threshold_nan(self, capsys):
        code, out = run_cli(
            capsys, "diagnose", "--N", "4096", "--M-range", "1:64", "--K-range", "2:128",
            "--threshold", "nan",
        )
        assert (code, out) == (1, "")

    @pytest.mark.parametrize("N", ["0", "-5", str(2**48 + 1)])
    def test_diagnose_bad_N(self, capsys, N):
        code, out = run_cli(
            capsys, "diagnose", "--N", N, "--M-range", "1:2", "--K-range", "2:3",
            "--threshold", "2",
        )
        assert (code, out) == (1, "")

    @pytest.mark.parametrize("N", [2**48 + 1, 2**70])
    def test_table_N_beyond_envelope(self, capsys, tmp_path, N):
        triples = tmp_path / "triples.txt"
        triples.write_text(f"{N} 1 2\n")
        code = main(["table", "--triples", str(triples)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert "exceeds the float64 envelope 2**48" in captured.err

    # The grids below hold no valid triple, so a bad flag is the only error.
    @pytest.mark.parametrize(
        "flag, value", [("--epsilon", "2"), ("--epsilon", "nan"), ("--horizon", "-3"),
                        ("--horizon", "0"), ("--epsilon", "0.25"), ("--epsilon", "1e-320"),
                        ("--horizon", str(2**53 + 1)), ("--horizon", "99999999999999999999")]
    )
    def test_table_every_triple_skipped(self, capsys, flag, value):
        code = main(["table", "--N-range", "10", "--M-range", "5", "--K-range", "1", flag, value])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert flag.lstrip("-") in captured.err

    @pytest.mark.parametrize(
        "flag, value", [("--epsilon", "2"), ("--horizon", "-3"), ("--horizon", "0"),
                        ("--epsilon", "0.25"), ("--epsilon", "1e-320"),
                        ("--horizon", str(2**53 + 1)), ("--horizon", "99999999999999999999")]
    )
    def test_diagnose_every_pair_skipped(self, capsys, flag, value):
        code = main([
            "diagnose", "--N", "10", "--M-range", "5:5", "--K-range", "1:1",
            "--threshold", "1", flag, value,
        ])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert flag.lstrip("-") in captured.err

    # A negative or zero STEP, or a range with no values, in either command.
    @pytest.mark.parametrize("spec", ["8:1:-1", "1:8:-1", "1:8:0", "8:4", "8:4:2"])
    @pytest.mark.parametrize(
        "command",
        [
            ["table", "--N-range", "4096", "--K-range", "12:16"],
            ["diagnose", "--N", "4096", "--K-range", "12:16", "--threshold", "1"],
        ],
        ids=["table", "diagnose"],
    )
    def test_bad_range_spec(self, capsys, command, spec):
        code = main([*command, "--M-range", spec])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.startswith(f"groverstop: error: range {spec!r}")

    @pytest.mark.parametrize(
        "command",
        [
            ["table", "--N-range", "4096", "--K-range", "12:16"],
            ["diagnose", "--N", "4096", "--K-range", "12:16", "--threshold", "1"],
        ],
        ids=["table", "diagnose"],
    )
    def test_range_spec_of_four_parts(self, capsys, command):
        code = main([*command, "--M-range", "1:8:1:2"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == (
            "groverstop: error: bad range spec '1:8:1:2'; expected START:STOP[:STEP]\n"
        )

    @pytest.mark.parametrize(
        "flags", [[], ["--N-range", "4096"], ["--N-range", "4096", "--M-range", "8"]]
    )
    def test_table_needs_triples_or_every_range(self, capsys, flags):
        code = main(["table", *flags])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == (
            "groverstop: error: provide --triples or all of --N-range/--M-range/--K-range\n"
        )

    @pytest.mark.parametrize("epsilon", ["0.25", "0.75", "1e-320", "0.5"])
    def test_degenerate_epsilon_everywhere(self, capsys, epsilon):
        commands = [
            "rule --N 65536 --M 12 --K 13",
            "rule --N 4 --M 0 --K 1",
            "experiment --N 4096 --M 8 --K 12 --l 79 --trials 10 --seed 1",
            "pad --M 1 --N 1048576",
            "table --N-range 4096 --M-range 8 --K-range 12",
            "diagnose --N 4096 --M-range 1:4 --K-range 2:8 --threshold 1",
        ]
        for command in commands:
            code = main([*command.split(), "--epsilon", epsilon])
            captured = capsys.readouterr()
            assert (code, captured.out) == (1, ""), command
            assert captured.err.startswith(f"groverstop: error: epsilon={epsilon}"), command

    def test_table_horizon_rejected_for_certified_rule(self, capsys):
        # The scan horizon is raised to the certified rule's l, which used to
        # hide a bad --horizon on this triple.
        code, out = run_cli(
            capsys, "table", "--N-range", "65536", "--M-range", "12", "--K-range", "13",
            "--horizon", "-3",
        )
        assert (code, out) == (1, "")

    @pytest.mark.parametrize("a", ["inf", "nan"])
    def test_pad_non_finite_ratio(self, capsys, a):
        code, out = run_cli(capsys, "pad", "--M", "1", "--N", "1048576", "--a", a)
        assert (code, out) == (1, "")

    def test_pad_overflowing_ratio(self, capsys):
        # a is finite, a*M is not; round() of it would raise an uncaught OverflowError.
        code = main(["pad", "--M", "10", "--N", "1048576", "--a", "1e308"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "groverstop: error: a*M must be finite, got a=1e+308, M=10\n"

    @pytest.mark.parametrize("M, N", [(10**400, 4), (10**400, 10**401), (2**48 + 1, 2**49)])
    def test_pad_M_beyond_N_or_envelope(self, capsys, M, N):
        # M is rejected before a*M, which raised an uncaught OverflowError
        # for an M too large for a double.
        code = main(["pad", "--M", str(M), "--N", str(N)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == f"groverstop: error: need M < N <= 2**48, got M={M}, N={N}\n"

    def test_pad_ratio_above_half_N(self, capsys):
        code = main(["pad", "--M", "3", "--N", "4"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "groverstop: error: need a*M <= N/2, got a*M=6, N=4\n"

    # A --triples row is taken as written, never skipped like a grid corner.
    @pytest.mark.parametrize("row", ["4096 12 8", "0 0 1", "4096 5 5000", "-4 0 1"])
    @pytest.mark.parametrize("reduced", [[], ["--reduced"]], ids=["plain", "reduced"])
    def test_table_bad_triples_row(self, capsys, tmp_path, row, reduced):
        triples = tmp_path / "triples.txt"
        triples.write_text(f"4096 8 12\n{row}\n")
        code = main(["table", "--triples", str(triples), *reduced])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        with pytest.raises(ValueError) as rejected:
            make_instance(*map(int, row.split()))
        assert captured.err == f"groverstop: error: {rejected.value}\n"

    @pytest.mark.parametrize(
        "command",
        ["pad --M 1 --N 1048576", "table --N-range 1024 --M-range 4 --K-range 6"],
        ids=["json", "csv"],
    )
    def test_unwritable_out(self, capsys, tmp_path, command):
        out_file = tmp_path / "missing" / "report"
        code, out = run_cli(capsys, *command.split(), "--out", str(out_file))
        assert (code, out) == (1, "")
        assert not out_file.parent.exists()


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestParserReuse:
    COMMANDS = [
        "rule --N 65536 --M 12 --K 13",
        "table --N-range 1024:2048:1024 --M-range 4:12:4 --K-range 6:18:6",
        "table --N-range 1024 --M-range 4 --K-range 6 --format xml",  # usage error
        "search --N 4096 --M 8 --K 12 --tol 0.25 --mode strict",
        "rule --N 4 --M 0",  # usage error: --K missing
        "experiment --N 64 --M 2 --K 4 --l 7 --trials 50 --seed 3",
        "diagnose --N 256 --M-range 1:8 --K-range 2:16 --threshold 2.0",
        "search --N 4096 --M 8 --K 12 --tol 0.25",
        "pad --M 1 --N 1048576",
        "table --N-range 1024 --M-range 4 --K-range 6 --epsilon 2",  # input error
        "orbit --N 4096 --M 8 --K 12 --l-max 9",
    ]

    def test_back_to_back_commands_match_fresh_runs(self, monkeypatch):
        fresh = []
        for command in self.COMMANDS:
            cli._parser.cache_clear()
            fresh.append(_run_captured(command.split()))
        cli._parser.cache_clear()
        built = []
        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        back_to_back = [_run_captured(command.split()) for command in self.COMMANDS]
        assert back_to_back == fresh
        assert [code for code, _, _ in fresh] == [0, 0, 64, 0, 64, 0, 0, 0, 0, 1, 0]
        assert len(built) == 1


def _count_calls(monkeypatch, original):
    """Count calls of a package function, through every module's reference to it."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    name = original.__name__
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("groverstop") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


@st.composite
def _table_cases(draw):
    """(triples, epsilon, horizon): random triples in the float64 envelope.

    Each triple is of one kind: any, M = 0, K = M+1, K >= N/2, or K/M near 1
    with K small enough that the rule may certify.  Without --horizon a
    triple's scan may run to 10^8, so the largest N come with a short one.
    """
    triples = []
    for _ in range(draw(st.integers(1, 6))):
        N = draw(st.integers(1, 2 ** draw(st.integers(0, 48))))
        kind = draw(st.sampled_from(["any", "zero", "successor", "half", "near"]))
        if kind == "near" and N >= 2**12:
            excess = draw(st.floats(0.02, 0.04))
            K = draw(st.integers(2, max(3, math.floor(256.0 * excess**4 * N))))
            M = min(K - 1, max(1, round(K / (1.0 + excess) ** 2)))
        elif kind == "successor" and N >= 2:
            M = draw(st.integers(1, N - 1))
            K = M + 1
        elif kind == "half":
            K = draw(st.integers((N + 1) // 2, N))
            M = draw(st.integers(0, K - 1))
        else:
            K = draw(st.integers(1, N))
            M = 0 if kind == "zero" else draw(st.integers(0, K - 1))
        triples.append((N, M, K))
    epsilon = draw(st.sampled_from([1.0 / 12.0, 0.02, 0.2]))
    if max(N for N, _, _ in triples) > 2**32:
        horizon = draw(st.integers(1, 50001))
    else:
        horizon = draw(st.none() | st.integers(1, 50001))
    return triples, epsilon, horizon


def _reference_row(N, M, K, epsilon, horizon):
    """A table row from the instance-level functions, one triple at a time."""
    instance = make_instance(N, M, K)
    angles = angles_of(instance)
    l_bound = transforms.l_bound_of(N, M, K)
    row = dict(zip(TABLE_FIELDS, (
        N, M, K, angles.theta_M, angles.theta_K, angles.gamma,
        check_applicability(instance).all_ok, None, None, None, None, l_bound, None, None,
    )))
    scan_horizon = default_horizon(instance) if horizon is None else horizon
    if M > 0:
        rule = construct_rule(instance)
        certificate = certify(rule, instance, epsilon)
        if certificate.certified:
            row["p"], row["s"], row["l_constructive"] = rule.p, rule.s, rule.l
            row["fail_K"], row["fail_M"] = certificate.fail_K, certificate.fail_M
            scan_horizon = max(scan_horizon, rule.l)
    search = minimal_odd_l(angles, error_bound(epsilon), scan_horizon)
    if search.found:
        row["l_minimal"], row["fail_K"], row["fail_M"] = search.l, search.fail_K, search.fail_M
    return row


def _bits(row):
    """Each cell's type and repr: equal only for the same value, bit for bit."""
    return [(type(value), repr(value)) for value in row.values()]


class TestColumnarTable:
    GRID = ["--N-range", "1024:4096:1024", "--M-range", "0:64:8", "--K-range", "6:96:6"]
    PER_INSTANCE = [
        angles_of, check_applicability, construct_rule, certify,
        default_horizon, minimal_odd_l,
    ]
    KERNELS = [
        core_model.half_angle, core_model.rotation_angles, transforms.l_bound_of,
        transforms.applicability_flags, stopping_rule.nearest_odd, stopping_rule.rule_terms,
        stopping_rule.certificate_flags, stopping_rule.error_flags,
        stopping_rule.certified_rules, diophantine.horizon_for_bound, diophantine.scan_rows,
    ]
    TRIG_FREE_FLAGS = [
        "l_odd", "residual_K_ok", "residual_M_ok", "epsilon_covers_gamma", "l_within_bound",
    ]

    def test_table_makes_no_per_row_scalar_calls(self, monkeypatch, capsys):
        code, out = run_cli(capsys, "table", *self.GRID)
        triples = [tuple(map(int, line.split(",")[:3])) for line in out.splitlines()[1:]]
        assert code == 0 and len(triples) > 100
        # cos and sin run once for each rule that passes every other flag.
        trig_rows = 0
        for N, M, K in triples:
            if M > 0:
                instance = make_instance(N, M, K)
                report = certify(construct_rule(instance), instance)
                trig_rows += all(getattr(report, flag) for flag in self.TRIG_FREE_FLAGS)
        assert 0 < trig_rows < len(triples)
        per_instance = {f.__name__: _count_calls(monkeypatch, f) for f in self.PER_INSTANCE}
        kernels = {f.__name__: _count_calls(monkeypatch, f) for f in self.KERNELS}
        failure_calls = _count_calls(monkeypatch, core_model.failure_kernel)
        assert run_cli(capsys, "table", *self.GRID) == (code, out)
        assert {name: len(calls) for name, calls in per_instance.items()} == dict.fromkeys(
            per_instance, 0
        )
        assert {name: len(calls) for name, calls in kernels.items()} == {
            "half_angle": 2, "rotation_angles": 1, "l_bound_of": 1, "applicability_flags": 1,
            "nearest_odd": 2, "rule_terms": 1, "certificate_flags": 1, "error_flags": 1,
            "certified_rules": 1, "horizon_for_bound": 1, "scan_rows": 1,
        }
        scalar_l = [args for args in failure_calls if not isinstance(args[0], np.ndarray)]
        assert len(scalar_l) == trig_rows

    def test_every_cell_is_none_or_of_its_column_type(self):
        # M = 0 rows, certified rules, uncertified ones and a scan that finds
        # nothing: every column holds a value somewhere, and the optional ones
        # a None too.
        corners = [(n, m, k) for n in range(1024, 4097, 1024) for m in range(0, 65, 8)
                   for k in range(6, 97, 6) if m < k]
        rows = _table_rows(corners + [(4, 0, 1), (65536, 12, 13)], 1.0 / 12.0, 501)
        rows += _table_rows([(1 << 20, 1, 2)], 1.0 / 12.0, 1)
        seen = {name: set() for name in TABLE_FIELDS}
        for row in rows:
            for (name, kind), cell in zip(_TABLE_COLUMNS, row):
                assert cell is None or type(cell) is kind, (name, cell)
                seen[name].add(type(cell))
        assert all(kind in seen[name] for name, kind in _TABLE_COLUMNS)
        optional = {name for name, types in seen.items() if type(None) in types}
        assert optional == {
            "gamma", "p", "s", "l_constructive", "l_minimal", "fail_K", "fail_M",
        }

    @settings(max_examples=60, deadline=None)
    @given(_table_cases())
    @example(([(65536, 12, 13), (2**48, 2**47 - 1, 2**47), (4, 0, 1), (2, 1, 2)], 1.0 / 12.0, None))
    def test_rows_equal_the_instance_level_rows(self, case):
        triples, epsilon, horizon = case
        rows = _table_rows(triples, epsilon, horizon)
        expected = [_reference_row(*triple, epsilon, horizon) for triple in triples]
        assert [_bits(dict(zip(TABLE_FIELDS, row))) for row in rows] == [
            _bits(row) for row in expected
        ]


class TestScalarWorkOncePerRow:
    @pytest.mark.parametrize(
        "function, column",
        [(angles_of, core_model.rotation_angles), (default_horizon, transforms.l_bound_of)],
        ids=["angles_of", "default_horizon"],
    )
    def test_table_row_computes_it_once(self, monkeypatch, capsys, function, column):
        per_row = _count_calls(monkeypatch, function)
        columns = _count_calls(monkeypatch, column)
        code, out = run_cli(capsys, "table", *TestColumnarTable.GRID)
        rows = len(out.splitlines()) - 1
        assert code == 0 and rows > 100 and per_row == []
        # One column call, one value for each row.
        assert [np.shape(args[0]) for args in columns] == [(rows,)]

    def test_diagnose_computes_angles_once_per_pair(self, monkeypatch, capsys):
        per_pair = _count_calls(monkeypatch, angles_of)
        columns = _count_calls(monkeypatch, core_model.rotation_angles)
        code, out = run_cli(
            capsys, "diagnose", "--N", "256", "--M-range", "0:8", "--K-range", "1:16",
            "--threshold", "0.0",  # lists every pair
        )
        pairs = len(json.loads(out))
        assert code == 0 and pairs > 50 and per_pair == []
        assert [M.size for _, M, _ in columns] == [pairs]  # one column call, one angle each

    def test_diagnose_computes_no_failure_pair(self, monkeypatch, capsys):
        # The README command: its entries hold no failure pair, so the kernel
        # runs only to score the l the scan's filter keeps.
        scorings = _count_calls(monkeypatch, diophantine._chunk_scores)
        kernel_calls = _count_calls(monkeypatch, core_model.failure_kernel)
        code, out = run_cli(
            capsys, "diagnose", "--N", "4096", "--M-range", "1:64", "--K-range", "2:128",
            "--threshold", "2.0",
        )
        assert code == 0 and json.loads(out) and scorings
        assert len(kernel_calls) == len(scorings)

    @pytest.mark.parametrize("flag", [[], ["--best-effort"]])
    def test_rule_checks_applicability_once(self, monkeypatch, capsys, flag):
        angle_calls = _count_calls(monkeypatch, angles_of)
        checks = _count_calls(monkeypatch, check_applicability)
        code, _ = run_cli(capsys, "rule", "--N", "65536", "--M", "12", "--K", "13", *flag)
        assert code == 0 and len(checks) == 1
        assert len(angle_calls) == 3  # applicability, construction, certificate
