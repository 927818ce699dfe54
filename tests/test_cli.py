import contextlib
import csv
import io
import json
import math
import sys
from dataclasses import asdict, astuple

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
    iteration_bound,
    make_instance,
    minimal_odd_l,
    stopping_rule,
    transforms,
)
from groverstop.cli import TABLE_FIELDS, TableRow, _csv_text, build_table_rows, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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
            row = TableRow(*build_table_rows([(n, m, k)], 1.0 / 12.0)[0])
            for field, value in asdict(row).items():
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
        assert _csv_text(columns, rows) == reference.getvalue()

    def test_scan_miss_keeps_certified_rule(self, monkeypatch):
        # The scan cannot miss below a certified l, so force the miss.
        def missed(theta_K, theta_M, threshold, horizons, mode="relaxed"):
            return np.zeros(len(horizons), dtype=np.int64), np.full(len(horizons), np.nan)

        monkeypatch.setattr(cli, "scan_rows", missed)
        row = TableRow(*build_table_rows([(65536, 12, 13)], 1.0 / 12.0)[0])
        instance = make_instance(65536, 12, 13)
        rule = construct_rule(instance)
        cert = certify(rule, instance, 1.0 / 12.0)
        fails = failure_probabilities(rule.l, angles_of(instance))
        assert row.l_constructive == rule.l == 3255 and row.l_minimal is None
        assert (row.fail_K, row.fail_M) == (cert.fail_K, cert.fail_M)
        assert (row.fail_K, row.fail_M) == (fails.fail_K, fails.fail_M)


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

    @pytest.mark.parametrize("epsilon", ["-1", "nan", "0", "1", "inf"])
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
                        ("--horizon", "0")]
    )
    def test_table_every_triple_skipped(self, capsys, flag, value):
        code, out = run_cli(
            capsys, "table", "--N-range", "10", "--M-range", "5", "--K-range", "1", flag, value
        )
        assert (code, out) == (1, "")

    @pytest.mark.parametrize(
        "flag, value", [("--epsilon", "2"), ("--horizon", "-3"), ("--horizon", "0")]
    )
    def test_diagnose_every_pair_skipped(self, capsys, flag, value):
        code, out = run_cli(
            capsys, "diagnose", "--N", "10", "--M-range", "5:5", "--K-range", "1:1",
            "--threshold", "1", flag, value,
        )
        assert (code, out) == (1, "")

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
    l_bound = iteration_bound(instance).l_bound
    row = TableRow(
        N, M, K, angles.theta_M, angles.theta_K, angles.gamma,
        check_applicability(instance).all_ok, None, None, None, None, l_bound, None, None,
    )
    scan_horizon = default_horizon(instance) if horizon is None else horizon
    if M > 0:
        rule = construct_rule(instance, best_effort=True)
        certificate = certify(rule, instance, epsilon)
        if certificate.certified:
            row.p, row.s, row.l_constructive = rule.p, rule.s, rule.l
            row.fail_K, row.fail_M = certificate.fail_K, certificate.fail_M
            scan_horizon = max(scan_horizon, rule.l)
    search = minimal_odd_l(angles, error_bound(epsilon), scan_horizon)
    if search.found:
        row.l_minimal, row.fail_K, row.fail_M = search.l, search.fail_K, search.fail_M
    return row


def _bits(row):
    """Each cell's type and repr: equal only for the same value, bit for bit."""
    return [(type(value), repr(value)) for value in astuple(row)]


class TestColumnarTable:
    GRID = ["--N-range", "1024:4096:1024", "--M-range", "0:64:8", "--K-range", "6:96:6"]
    PER_INSTANCE = [
        angles_of, iteration_bound, check_applicability, construct_rule, certify,
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
                report = certify(construct_rule(instance, best_effort=True), instance)
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

    @settings(max_examples=60, deadline=None)
    @given(_table_cases())
    @example(([(65536, 12, 13), (2**48, 2**47 - 1, 2**47), (4, 0, 1), (2, 1, 2)], 1.0 / 12.0, None))
    def test_rows_equal_the_instance_level_rows(self, case):
        triples, epsilon, horizon = case
        rows = build_table_rows(triples, epsilon, horizon)
        expected = [_reference_row(*triple, epsilon, horizon) for triple in triples]
        assert [_bits(TableRow(*row)) for row in rows] == [_bits(row) for row in expected]


class TestScalarWorkOncePerRow:
    @pytest.mark.parametrize(
        "function, column",
        [(angles_of, core_model.rotation_angles), (iteration_bound, transforms.l_bound_of)],
        ids=["angles_of", "iteration_bound"],
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
