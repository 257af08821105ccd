"""CLI behavior: output shapes, JSON, and the exit code contract."""

import contextlib
import hashlib
import io
import json
import math
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup import bounds
from blowup.cli import main
from blowup.errors import GraphParseError
from blowup.exact import Quadratic
from blowup.families import parse_expression, petersen
from blowup.graphs import g6_encode


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spectrum_exact_display(capsys):
    code, out, _ = run(capsys, "spectrum", "icosahedron")
    assert code == 0
    assert "icosahedron  n=12" in out
    assert "5^1 (sqrt5)^3 (-1)^5 (-sqrt5)^3" in out
    # the generalized dodecagon of order (3, 1): a - sqrt(d) is parenthesised too
    code, out, _ = run(capsys, "spectrum", "drg:6,3,3,3,3,3;1,1,1,1,1,2")
    assert code == 0
    assert out.splitlines()[1] == "6^1 5^104 (2+sqrt3)^168 2^182 (2-sqrt3)^168 (-1)^104 (-2)^729"


def test_drg_spectra_exact_past_the_integer_roots(capsys):
    # C_10: its roots (+-1 +- sqrt5)/2 split into two quadratic factors
    code, out, _ = run(capsys, "spectrum", "--exact", "drg:2,1,1,1,1;1,1,1,1,2")
    assert code == 0 and "note:" not in out
    assert out.splitlines()[1] == (
        "2^1 (1/2+1/2*sqrt5)^2 (-1/2+1/2*sqrt5)^2 (1/2-1/2*sqrt5)^2 (-1/2-1/2*sqrt5)^2 (-2)^1")
    # the generalized dodecagon of order (293, 1), n of about 6.4e14: exact
    # multiplicities, where a float one was refused with an error of 1e-2
    code, out, _ = run(capsys, "spectrum", "drg:586,293,293,293,293,293;1,1,1,1,1,2")
    assert code == 0
    assert out.splitlines()[1] == (
        "586^1 (292+sqrt879)^363605984994 (292+sqrt293)^1083397510818 292^1439633359162 "
        "(292-sqrt293)^1083397510818 (292-sqrt879)^363605984994 (-2)^632711491215049")
    # C_7's roots are cubic: floats, with the note
    code, out, _ = run(capsys, "spectrum", "--exact", "drg:2,1,1;1,1,1")
    assert code == 0 and "note:" in out


def test_spectrum_numeric_flag(capsys):
    code, out, _ = run(capsys, "spectrum", "--numeric", "complete:4")
    assert code == 0
    assert "3.000000^1" in out and "-1.000000^3" in out


def test_spectrum_exact_unavailable_notes(capsys):
    code, out, _ = run(capsys, "spectrum", "--exact", "cycle:7")
    assert code == 0
    assert "note:" in out


def test_spectrum_json_roundtrip(capsys):
    code, out, _ = run(capsys, "spectrum", "--json", "petersen")
    assert code == 0
    obj = json.loads(out)
    assert obj["name"] == "petersen"
    assert obj["n"] == 10
    assert obj["exact"] is True
    assert sum(e["mult"] for e in obj["spectrum"]) == 10
    # exact values serialize as strings, numeric ones as numbers
    assert obj["spectrum"][0] == {"value": "3", "mult": 1}
    assert obj["spectrum"][1] == {"value": "1", "mult": 5}


def test_bound_text_six_significant_figures(capsys):
    code, out, _ = run(capsys, "bound", "icosahedron", "--k", "4")
    assert code == 0
    assert "c_4 >= 1/12+1/12*sqrt(5) ~ 0.269672" in out
    assert "verification: verified" in out
    assert "ceiling: 0.288675" in out


def test_bound_finite_t(capsys):
    code, out, _ = run(capsys, "bound", "icosahedron", "--k", "4", "--t", "2")
    assert code == 0
    assert "blowup t=2 ratio for k=4" in out
    # (2*sqrt5 + 1)/24
    assert "1/24+1/12*sqrt(5)" in out


def test_bound_t1_is_plain_kth_ratio(capsys):
    code, out, _ = run(capsys, "bound", "icosahedron", "--k", "4", "--t", "1")
    assert code == 0
    assert "1/12*sqrt(5)" in out
    assert "0.186339" in out


def test_bound_json(capsys):
    code, out, _ = run(capsys, "bound", "--json", "johnson:8,2", "--k", "8")
    assert code == 0
    obj = json.loads(out)
    assert obj["ratio"]["exact"] == "5/28"
    assert obj["ratio"]["float"] == pytest.approx(5 / 28)
    assert obj["attained"] is True
    assert obj["verification"] == "verified"
    assert obj["t"] == "sup"


def test_bound_json_derived_provenance(capsys):
    code, out, _ = run(capsys, "bound", "--json", "blowup:gosset,7", "--k", "8")
    assert code == 0
    obj = json.loads(out)
    assert obj["verification"] == "exact-formula"
    assert obj["descriptor"]["provenance"] == {
        "kind": "derived", "op": "blowup", "t": 7,
        "parts": [{"name": "gosset", "n": 56, "provenance": {
            "kind": "intersection-array", "b": [27, 10, 1], "c": [1, 10, 27]}}],
    }


def test_dense_order_ceiling(capsys):
    # refused before any allocation; spectrum-level blowups need no graph
    for argv in (["spectrum", "complete:100000"], ["spectrum", "cycle:100000"],
                 ["spectrum", "paley:1000000000000000009"],
                 ["spectrum", "complement:blowup:petersen,1000"],
                 ["spectrum", "drg:2" + ",1" * 5000 + ";" + ",".join(["1"] * 5001)]):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "ceiling" in err
    code, out, _ = run(capsys, "bound", "blowup:petersen,10000", "--k", "2")
    assert code == 0
    assert "n=100000" in out


def test_infeasible_srg_exits_two(capsys):
    code, _, err = run(capsys, "bound", "srg:28,9,0,4", "--k", "2")
    assert code == 2
    assert "absolute bound" in err


def test_srg_large_discriminants_answer_fast(capsys):
    # a prime discriminant near 10^15 fails the conference condition with no
    # factoring; a conference discriminant near 10^13 splits by bounded
    # trial division once per constructed eigenvalue, never in arithmetic
    t0 = time.perf_counter()
    code, _, err = run(capsys, "spectrum", "srg:62500000000005000000000000101,250000000000010,0,1")
    assert code == 2
    assert "conference condition" in err
    code, out, _ = run(capsys, "bound", "srg:10000000000037,5000000000018,2500000000008,2500000000009",
                       "--k", "2")
    assert code == 0
    assert "c_2 >= 1/20000000000074+1/20000000000074*sqrt(10000000000037)" in out
    assert time.perf_counter() - t0 < 1.0


def test_bound_unattained_message(capsys):
    code, out, _ = run(capsys, "bound", "complete:5", "--k", "2")
    assert code == 0
    assert "not attained" in out


def test_table_text_and_json(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    assert out.count("\n") >= 22
    assert "icosahedron" in out and "taylor-co3" in out

    code, out, _ = run(capsys, "table", "--json", "--range", "6..8")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert [r["k"] for r in obj["rows"]] == [6, 7, 8]
    assert obj["rows"][0]["expected"] == "1/5"


def test_table_bad_range_is_usage_error(capsys):
    code, _, err = run(capsys, "table", "--range", "1..30")
    assert code == 2
    assert "table rows run" in err
    code, _, err = run(capsys, "table", "--range", "zzz")
    assert code == 2


def test_table_mismatch_exits_one(capsys, monkeypatch):
    printed, _, builders = bounds._TABLE_ENTRIES[7]
    monkeypatch.setitem(bounds._TABLE_ENTRIES, 7, (printed, Quadratic(1), builders))
    code, _, err = run(capsys, "table", "--range", "7..7")
    assert code == 1
    assert "mismatch" in err


def test_table_mismatch_json_reports_not_ok(capsys, monkeypatch):
    printed, _, builders = bounds._TABLE_ENTRIES[4]
    monkeypatch.setitem(bounds._TABLE_ENTRIES, 4, (printed, Quadratic(1), builders))
    code, out, _ = run(capsys, "table", "--range", "4..4", "--json")
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_ceiling_breach_is_a_consistency_failure(capsys, monkeypatch):
    monkeypatch.setattr(bounds, "nikiforov_upper", lambda k: 0.0)
    code, _, err = run(capsys, "bound", "icosahedron", "--k", "4")
    assert code == 1
    assert "consistency failure" in err


def test_usage_errors_exit_two(capsys):
    code, _, err = run(capsys, "bound", "petersen", "--k", "2", "--t", "0")
    assert code == 2 and "t must be" in err
    code, _, err = run(capsys, "search", "--method", "anneal", "--k", "3")
    assert code == 2 and "needs --n" in err


def test_numeric_spectrum_json_carries_its_note(capsys):
    code, out, _ = run(capsys, "spectrum", "--exact", "--json", "cycle:7")
    assert code == 0
    got = json.loads(out)
    assert got["exact"] is False and "exact form unavailable" in got["note"]


def test_srg_with_a_large_square_cofactor_is_exact(capsys):
    # v = 5 * 67108859^2: the conference parameter set whose radicand's cofactor
    # 67108859^2 lies beyond trial division but is a square
    code, out, _ = run(capsys, "bound", "srg:22517994781409405,11258997390704702,5629498695352350,"
                       "5629498695352351", "--k", "2", "--json")
    assert code == 0
    assert json.loads(out)["verification"] == "exact-formula"


def test_parse_error_exits_two(capsys):
    code, _, err = run(capsys, "spectrum", "johnson:x,2")
    assert code == 2
    assert "offset" in err


def test_bad_g6_literal_names_one_offset(capsys):
    # the literal's own offset, 4, is shifted into the expression once
    reason = "bad graph6 literal: truncated graph6 payload: need 326 bytes for n=63, got 0"
    with pytest.raises(GraphParseError) as ei:
        parse_expression("g6:~??~")
    assert str(ei.value) == f"{reason} (at offset 7)"
    assert (ei.value.offset, ei.value.reason) == (7, reason)
    code, out, err = run(capsys, "spectrum", "g6:~??~")
    assert (code, out, err) == (2, "", f"parse error: {reason} (at offset 7)\n")


@pytest.mark.parametrize("expr,offset", [("g6:>>graph6<<C!", 14), ("g6:  C!", 6)])
def test_g6_literal_offset_points_at_the_bad_byte(capsys, expr, offset):
    # the header and whitespace before the literal's body count toward the offset
    assert expr[offset] == "!"
    reason = "bad graph6 literal: byte 33 outside the graph6 range 63..126"
    with pytest.raises(GraphParseError) as ei:
        parse_expression(expr)
    assert (ei.value.offset, ei.value.reason) == (offset, reason)
    code, out, err = run(capsys, "spectrum", expr)
    assert (code, out, err) == (2, "", f"parse error: {reason} (at offset {offset})\n")


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["frobnicate"])
    assert ei.value.code == 2


def test_search_exhaustive(capsys):
    code, out, _ = run(capsys, "search", "--k", "3", "--n", "5", "--method", "exhaustive")
    assert code == 0
    assert "best ratio" in out
    assert "does not exceed" in out


def test_search_json_fields(capsys):
    code, out, _ = run(capsys, "search", "--k", "3", "--n", "6", "--method",
                       "exhaustive", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["method"] == "exhaustive"
    assert obj["best_ratio"] == pytest.approx(1 / 3)
    assert obj["threshold"] == pytest.approx(1 / 3)
    assert obj["exceeded"] is False
    # the 6 of the 34 classes on 5 vertices that reach the interlacing floor
    # 1/3 have 98 extensions, one per automorphism orbit of their 32
    # neighbourhoods; inertia leaves the 2 with lambda_3 = 1
    assert obj["evaluations"] == 2


def test_search_anneal_seeded(capsys):
    code, out1, _ = run(capsys, "search", "--k", "3", "--n", "7", "--budget", "2000",
                        "--restarts", "2", "--seed", "5", "--json")
    assert code == 0
    code, out2, _ = run(capsys, "search", "--k", "3", "--n", "7", "--budget", "2000",
                        "--restarts", "2", "--seed", "5", "--json")
    assert out1 == out2


def stdin_of(data: bytes) -> io.TextIOWrapper:
    """A stand-in for sys.stdin over these bytes, with a strict UTF-8 decoder."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def test_search_stream_stdin(capsys, monkeypatch):
    text = g6_encode(petersen()) + "\n"
    monkeypatch.setattr(sys, "stdin", stdin_of(text.encode()))
    code, out, _ = run(capsys, "search", "--k", "6", "--method", "stream",
                       "--g6-file", "-", "--json")
    assert code == 0
    obj = json.loads(out)
    # lambda_6(petersen) = 1 -> ratio 2/10
    assert obj["best_ratio"] == pytest.approx(0.2)


def test_search_stream_file(tmp_path, capsys):
    path = tmp_path / "graphs.g6"
    path.write_text(g6_encode(petersen()) + "\n")
    code, out, _ = run(capsys, "search", "--k", "2", "--method", "stream",
                       "--g6-file", str(path))
    assert code == 0


def test_search_stream_needs_a_file(capsys):
    code, _, err = run(capsys, "search", "--k", "3", "--method", "stream")
    assert code == 2
    assert "stream search needs --g6-file" in err


@pytest.mark.parametrize("on_error", ["raise", "skip"])
def test_search_stream_non_ascii_file_matches_stdin(tmp_path, capsys, monkeypatch, on_error):
    # a non-ASCII byte spoils its own line only, read from a file or from stdin
    text = g6_encode(petersen()) + "\nB\u00e9w\nBw\n"
    path = tmp_path / "graphs.g6"
    path.write_bytes(text.encode("utf-8"))
    argv = ["search", "--k", "2", "--method", "stream", "--on-error", on_error, "--json"]
    from_file = run(capsys, *argv, "--g6-file", str(path))
    monkeypatch.setattr(sys, "stdin", stdin_of(text.encode("utf-8")))
    from_stdin = run(capsys, *argv, "--g6-file", "-")
    assert from_file == from_stdin
    if on_error == "raise":
        assert from_file[0] == 2
        assert "line 2: non-ASCII byte in graph6 input" in from_file[2]
    else:
        assert from_file[0] == 0
        assert json.loads(from_file[1])["evaluations"] == 2


def test_search_stream_unicode_space_refused_from_both_sources(tmp_path, capsys, monkeypatch):
    # only ASCII whitespace is stripped, so an em space spoils its line
    # whether the bytes come from a file or from stdin
    data = "\u2003Bw\n".encode("utf-8")
    path = tmp_path / "graphs.g6"
    path.write_bytes(data)
    argv = ["search", "--k", "1", "--method", "stream"]
    from_file = run(capsys, *argv, "--g6-file", str(path))
    monkeypatch.setattr(sys, "stdin", stdin_of(data))
    from_stdin = run(capsys, *argv, "--g6-file", "-")
    assert from_file == from_stdin
    assert from_file[0] == 2
    assert "line 1: non-ASCII byte in graph6 input (at offset 0)" in from_file[2]


@pytest.mark.parametrize("on_error", ["raise", "skip"])
def test_search_stream_stdin_bytes_read_as_a_file(tmp_path, capsys, monkeypatch, on_error):
    # a byte that stdin's own strict decoder cannot read spoils only its
    # line, as it does in a file; the real stdin is left open
    data = b"Bw\n\xffBw\n"
    path = tmp_path / "graphs.g6"
    path.write_bytes(data)
    argv = ["search", "--k", "1", "--method", "stream", "--on-error", on_error, "--json"]
    from_file = run(capsys, *argv, "--g6-file", str(path))
    stdin = stdin_of(data)
    monkeypatch.setattr(sys, "stdin", stdin)
    from_stdin = run(capsys, *argv, "--g6-file", "-")
    assert from_file == from_stdin
    assert not stdin.closed
    if on_error == "raise":
        assert from_file[0] == 2
        assert "line 2: non-ASCII byte in graph6 input (at offset 0)" in from_file[2]
    else:
        assert from_file[0] == 0
        assert json.loads(from_file[1])["evaluations"] == 1


def test_search_missing_n_is_usage(capsys):
    code, _, err = run(capsys, "search", "--k", "3", "--method", "exhaustive")
    assert code == 2


def test_search_n9_refused(capsys):
    code, _, err = run(capsys, "search", "--k", "3", "--n", "10", "--method", "exhaustive")
    assert code == 2
    assert "capped at n = 9" in err


def test_search_exhaustive_n8(capsys):
    code, out, _ = run(capsys, "search", "--k", "3", "--n", "8", "--method", "exhaustive", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["best_ratio"] <= 1 / 3 + 1e-9
    # the 262 of the 1,044 classes on 7 vertices that reach the interlacing
    # floor have 20,958 extensions, one per automorphism orbit of their 128
    # neighbourhoods; inertia leaves 217 that may reach it
    assert obj["evaluations"] == 217


def test_exceedance_exit_ten(capsys, monkeypatch, tmp_path):
    # pretend the record for k=4 sits below what n=4 graphs reach, so the
    # exhaustive run "discovers" an exceedance and writes its witness
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(bounds, "best_known_ratio", lambda k: 0.01 if k == 4 else None)
    code, out, err = run(capsys, "search", "--k", "4", "--n", "4", "--method", "exhaustive")
    assert code == 10
    assert "EXCEEDS" in out
    witness = tmp_path / "witness_k4.json"
    assert witness.exists()
    block = json.loads(witness.read_text())
    assert block["result"]["best_ratio"] > 0.01
    assert sum(e["mult"] for e in block["spectrum"]) == 4


def test_table_column_order(capsys):
    code, out, _ = run(capsys, "table", "--range", "4..4")
    assert code == 0
    header, row = out.splitlines()[:2]
    assert header.split() == ["k", "ratio", "decimal", "source", "status", "ceiling"]
    assert row.split() == ["4", "1/12+1/12*sqrt(5)", "0.269672",
                           "icosahedron", "verified", "0.288675"]


def test_verify_runs_clean(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert out.count("PASS") == 4
    assert "FAIL" not in out


def test_verify_catches_corrupted_family(capsys, monkeypatch):
    # a corrupted icosahedron edge list must fail the family check with
    # exit 1, not crash the command
    import blowup.families as fam

    broken = list(fam._ICOSAHEDRON_EDGES)
    broken[0] = (0, 7)
    monkeypatch.setattr(fam, "_ICOSAHEDRON_EDGES", tuple(broken))
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "FAIL" in out
    assert "family spectra" in out.splitlines()[0]


def test_verify_family_check_solves_itself(capsys, monkeypatch):
    # with the exact check of stated spectra switched off, a wrong one (right
    # order and trace) must still fail: the family check calls the eigensolver
    import blowup.families as fam

    wrong = ((3, 1), (1, 3), (0, 4), (-3, 2))
    monkeypatch.setattr(fam, "check_stated_spectrum", lambda graph, stated, generators=(): None)
    monkeypatch.setitem(fam._PRESETS, "petersen", lambda: fam.Explicit(fam.petersen(), wrong))
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert out.splitlines()[0].startswith("FAIL  family spectra")
    assert "petersen disagree" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert len(obj["checks"]) == 4
    # the blowup check is acceptance criterion 4's residual
    assert obj["checks"][1]["detail"] == f"max residual {bounds.blowup_residual():.2e}"


def test_grammar_help_names_every_table_entry(capsys):
    from blowup import families
    from blowup.cli import GRAMMAR_HELP

    for name in [*families._PRESETS, *families._INTEGER_HEADS]:
        assert name in GRAMMAR_HELP, name
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "taylor-co3" in capsys.readouterr().out


def test_table_sources_are_expressions(capsys):
    # the table's row 24 source name rebuilds its certificate from the CLI
    code, out, _ = run(capsys, "bound", "taylor-co3", "--k", "24", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["ratio"]["exact"] == "7/69"
    assert obj["verification"] == "exact-formula"
    assert obj["descriptor"]["n"] == 552


def test_huge_drg_array_exits_two(capsys):
    # diameter 1100: valencies 3*2^(j-1) pass the float range
    d = 1100
    expr = "drg:3" + ",2" * (d - 1) + ";" + ",".join(["1"] * d)
    code, _, err = run(capsys, "spectrum", expr)
    assert code == 2
    assert "2^52" in err and "Traceback" not in err


@pytest.mark.parametrize("b,c,reason", [
    # 1000 entries of about 10^12: n has about 12,000 digits, past Python's
    # 4,300-digit limit for integer strings
    ([10**12] + [10**12 - 1] * 999, [1] * 1000,
     "order <39864-bit integer> is at least 2^52, too large to test float multiplicities for integrality"),
    # k_400 = b0 (b0 - 1)^399 / 7 with b0 = 10^12 + 1 has a numerator of about 4,800 digits
    ([10**12 + 1] + [10**12] * 399, [1] * 399 + [7], "valency k_400 = <15946-bit integer>/7 is not a positive integer"),
], ids=["order", "valency"])
def test_refusal_names_an_integer_past_the_digit_limit_by_bits(capsys, b, c, reason):
    code, _, err = run(capsys, "spectrum", f"drg:{','.join(map(str, b))};{','.join(map(str, c))}")
    assert (code, err) == (2, f"error: {reason}\n")


def test_shared_parser_carries_nothing_between_calls(capsys):
    # main() reuses one parser per process; each call parses as if it were the first
    from blowup.cli import build_parser
    from blowup.search import DEFAULT_SEED

    assert build_parser() is build_parser()
    search = ("search", "--k", "3", "--n", "6", "--method", "hillclimb", "--budget", "40", "--json")
    code, out, _ = run(capsys, *search, "--seed", "5")
    assert code == 0 and json.loads(out)["seed"] == 5
    code, out, _ = run(capsys, *search)
    assert code == 0 and json.loads(out)["seed"] == DEFAULT_SEED

    code, out, _ = run(capsys, "spectrum", "--exact", "cycle:7")
    assert code == 0 and "note:" in out
    code, out, _ = run(capsys, "spectrum", "--numeric", "complete:4")
    assert code == 0 and "3.000000^1 -1.000000^3" in out and "note:" not in out
    code, out, _ = run(capsys, "spectrum", "complete:4")
    assert code == 0 and "3^1 (-1)^3" in out

    with pytest.raises(SystemExit) as ei:
        main(["bound", "petersen"])  # --k is required
    assert ei.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "bound", "petersen", "--k", "2")
    assert code == 0 and out.startswith("c_2 >= ")


def test_search_defaults_are_search_config_defaults():
    from blowup.cli import build_parser
    from blowup.search import SearchConfig

    args = build_parser().parse_args(["search", "--k", "3", "--n", "5"])
    cfg = SearchConfig(k=3, n=5)
    for name in ("budget", "restarts", "t0", "cooling", "seed"):
        assert getattr(args, name) == getattr(cfg, name), name


def test_nesting_cap_exit_codes(capsys):
    # bound --json renders the whole provenance tree, nested as deep as the cap
    from blowup.families import _MAX_NESTING

    for prefix, suffix in (("complement:", ""), ("union:", "+complete:1"), ("blowup:", ",1")):
        at_cap = prefix * _MAX_NESTING + "petersen" + suffix * _MAX_NESTING
        code, out, _ = run(capsys, "bound", at_cap, "--k", "1", "--json")
        assert code == 0, prefix
        assert json.loads(out)["descriptor"]["name"] == at_cap
        beyond = prefix + at_cap + suffix
        code, _, err = run(capsys, "bound", beyond, "--k", "1", "--json")
        assert code == 2, prefix
        assert f"nests more than {_MAX_NESTING} operators" in err


@pytest.mark.parametrize("argv", [
    ("bound", "drg:1" + "0" * 400 + ";1", "--k", "2"),
    ("spectrum", "blowup:petersen," + "1" + "0" * 400),
    ("spectrum", "blowup:complement:johnson:9,2," + "1" + "0" * 400),
])
def test_huge_integer_exits_two(capsys, argv):
    # an integer past the float range is a usage error, not a traceback
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_huge_blowup_within_float_range(capsys):
    code, out, _ = run(capsys, "spectrum", "blowup:petersen," + "1" + "0" * 300)
    assert code == 0 and "n=1" + "0" * 301 in out


@pytest.mark.parametrize("argv", [
    ("spectrum", "blowup:complement:johnson:9,2,10000000000"),
    ("bound", "blowup:complement:johnson:9,2,10000000000", "--k", "3"),
    ("spectrum", "union:blowup:complement:johnson:9,2,10000000000+petersen"),
])
def test_large_float_blowup_is_not_refused_by_its_trace(capsys, argv):
    # only leaves test their trace: eigenvalues near 10^11 round past the
    # absolute tolerance, though each part's trace passed
    code, _, err = run(capsys, *argv)
    assert code == 0, err


#: integer tokens, most of them small: negative, malformed, spelled oddly
#: but accepted by int(), and 400 digits long
INTS = st.sampled_from([*map(str, range(1, 10)), *map(str, range(1, 10)), "-1", "0", "", "x", "1.5", "0x9",
                        " 4", "+3", "1_0", "9" * 400, "-" + "9" * 400])


def _int(tok):
    try:
        return int(tok)
    except ValueError:
        return None


def _leaf(head, toks):
    ints = [_int(t) for t in toks]
    n = 0
    if None not in ints and all(0 <= i <= 100 for i in ints):
        n = math.comb(*ints) if head == "johnson" else ints[0]
    return f"{head}:{','.join(toks)}", n


def _blowup(a, tok):
    t = _int(tok)
    return f"blowup:{a[0]},{tok}", a[1] * t if t is not None and 0 < t <= 100 else 0


#: every head, as (expression, bound): the bound is at least the order of the
#: graph a complement of the expression builds and solves, and 0 where it
#: builds none (a refused or a formula-only operand, or one past the dense
#: ceiling)
LEAVES = st.one_of(
    st.sampled_from([("petersen", 10), ("icosahedron", 12), ("gosset", 0), ("taylor-co3", 0), ("srg:16,5,0,2", 0),
                     ("drg:3,2;1,1", 0), ("g6:Bw", 3), ("g6:Ch", 4), ("johnson:7", 0), ("cycle:4,4", 0)]),
    *(st.builds(_leaf, st.just(head), st.lists(INTS, min_size=arity, max_size=arity))
      for head, arity in (("complete", 1), ("cycle", 1), ("paley", 1), ("johnson", 2))),
    st.lists(INTS, min_size=4, max_size=4).map(lambda t: (f"srg:{','.join(t)}", 0)),
    st.tuples(st.lists(INTS, max_size=3), st.lists(INTS, max_size=3)).map(
        lambda bc: (f"drg:{','.join(bc[0])};{','.join(bc[1])}", 0)),
    # an order byte and a few data bytes, or a byte outside graph6; at most 62 vertices
    st.text(st.characters(min_codepoint=33, max_codepoint=125), max_size=6).map(lambda text: (f"g6:{text}", 62)),
)

#: every operator; a complement builds and solves its operand's graph, so it
#: takes only operands of at most 100 vertices
EXPRESSIONS = st.recursive(LEAVES, lambda parts: st.one_of(
    st.builds(lambda a, b: (f"union:{a[0]}+{b[0]}", a[1] + b[1]), parts, parts),
    parts.filter(lambda a: a[1] <= 100).map(lambda a: (f"complement:{a[0]}", a[1])),
    st.builds(_blowup, parts, st.one_of(INTS, st.sampled_from(["9" * 400, "1" + "0" * 300]))),
), max_leaves=4)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(EXPRESSIONS, st.one_of(st.integers(-2, 30), st.just(10**400)))
def test_grammar_fuzz_exits_zero_or_two(expr, k):
    # whatever the expression, spectrum and bound answer or refuse, never raise
    for argv in (["spectrum", expr[0], "--json"], ["bound", expr[0], f"--k={k}"]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 2), argv


#: sha256 of the stdout of exact commands, all of which exit 0: a faster path
#: through the builders and the Hoffman check must print the same bytes
PINNED_OUTPUTS = [
    ("table --json", "f443e01dda66342b78303a48bb226d664475036e8c0e82488182d7b69918ccd5"),
    ("bound johnson:6,2 --k 6 --json", "908a5883e3d46dbe8251413cca78010584522a22549d3f43c0323c3c98fed99a"),
    ("bound johnson:12,2 --k 12 --json", "3d3337a49c2a282d61d46dfeb58732a0d24eecb6f61741e7ae9e00eac1c43b78"),
    ("spectrum johnson:25,2 --json", "03ff0788d1e5bc420633c9cd5a089567a4c0740a28a740cf5879b2b58353341c"),
    ("bound johnson:40,2 --k 30 --json", "58e69cc9cf09661d26cd5dcfb6a6a5dc0a1c8608695ba7b7a35c65d7092777a6"),
    ("spectrum johnson:40,2", "c68d5715fe174cfedebb895fa7b9b285174aa009c81f75e53a6416b5c6989033"),
    ("bound paley:29 --k 5 --json", "498f047519f99c8454299bf2db8410b224eef6c522578390d4031fd4cc8b4df0"),
    ("spectrum paley:197 --json", "b0c10d229980b9c4cee6a988ce585eb83397cb6f030948b1c12c9aa7f45e4697"),
    ("bound paley:197 --k 20", "10de4a93a7958036f170fbe32e72900ad9bb32c56ae968c966f981960a44e507"),
    ("bound petersen --k 6 --json", "365e386add5025eec98d9c41d81d4443bfacf144f1db0936d8d57c1b1266211a"),
    ("spectrum icosahedron --json", "235c7abd176ae469343afca7f8c41fcbcd325f0bb5fb39f0db3fbb43d07f9467"),
    ("bound icosahedron --k 4 --json", "dc8effef6ac86fd18a8ee9a254dcdf7cd5d9864081975272902fcff21ced56b5"),
    ("bound gosset --k 8 --json", "65c39131a2b5c18b5a75bd313699678124277485c1797f3630f525c91e30d721"),
    ("spectrum srg:57,24,11,9 --json", "3f3083ded7b0f3aee9c97dec4f2dba480a82efdc43525f918b62f76e7eb0027f"),
    ("bound srg:243,132,81,60 --k 22", "a126357092013cc6ccbc768fbbe78957ee669bde6340f25326bab2e75ac24b47"),
    ("bound union:petersen+icosahedron --k 7 --json", "469c6feeb484c619799e85e98dcbd581bfc6901c86792e2a2af831d286ebe23c"),
    ("spectrum union:johnson:12,2+paley:29 --json", "88236a8fbb1a701cfbfc0edde254caa68e15c3018bd2e35ca81c17687c93354b"),
    ("bound blowup:petersen,3 --k 6 --json", "3a488655fe162f8a9fdc4b7a6b38dc91a5219dc358bc316f1bda71d183d513c6"),
    ("spectrum blowup:johnson:25,2,2 --json", "dd0c53519b4c0f86fa243c3486103ea106415f0f139d88575956e7e74c21b1fd"),
    ("bound blowup:icosahedron,50 --k 4 --json", "d875efd1e85d75cd0f12f08c07831cee26d6e90221d73785cb69d960e1e0357b"),
]


def test_exact_outputs_are_pinned(capsys):
    for command, digest in PINNED_OUTPUTS:
        code, out, _ = run(capsys, *command.split())
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, command
