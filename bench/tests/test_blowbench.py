"""The benchmark's own tests: tiny runs of every workload, and oracles that reject.

Run from the repository root:

    python3 -m pytest bench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import blowup.search as search  # noqa: E402
import blowup.spectra as spectra  # noqa: E402
from blowup.cli import EXIT_OK, EXIT_USAGE  # noqa: E402

from blowbench import oracles as O  # noqa: E402
from blowbench.harness import run  # noqa: E402
from blowbench.inputs import atlas_max, stream_input  # noqa: E402
from blowbench.tracing import Tracer, instrument  # noqa: E402
from blowbench.workloads import Anneal, _bound, check_table, make_workloads, run_cli  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().split("\n")[-1])


def _run_tiny(name, trace, tmp_path, capsys) -> dict:
    wl = make_workloads(tiny=True)[name]
    rc = run(wl, seed=3, seconds=0.01, trace=trace, root=ROOT, out_dir=tmp_path)
    result = _result(capsys)
    assert rc == 0 and result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1
    return result


def test_benchmark_names_the_same_workloads():
    assert set(WORKLOADS) == set(make_workloads())


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run_emits_every_end_to_end_metric(name, tmp_path, capsys):
    metrics = _run_tiny(name, False, tmp_path, capsys)["metrics"]
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == want
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_runs_emit_every_layer_metric_and_repeat_counts(name, tmp_path, capsys):
    first = _run_tiny(name, True, tmp_path, capsys)["metrics"]
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in first.items()} == want
    assert (tmp_path / f"trace-{name}-seed3.npz").is_file()
    second = _run_tiny(name, True, tmp_path, capsys)["metrics"]
    counts = [k for k, unit in want.items() if unit in ("count", "n3")]
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}


def test_instrument_restores_every_binding():
    originals = (search.eigen_spectrum, spectra.Spectrum.__init__, np.linalg.eigvalsh)
    tracer = Tracer()
    with instrument(tracer):
        assert search.eigen_spectrum is not originals[0]
        search.stream_max(3, ["Bw", "", "Dhc"])
    assert (search.eigen_spectrum, spectra.Spectrum.__init__, np.linalg.eigvalsh) == originals
    calls = tracer.snapshot()
    # search imports eigen_spectrum by name: its calls are seen, with their solves
    assert calls["spectra.eigen_spectrum.calls"] == 3  # two lines and the self-check
    assert calls["search.stream_max.solves_within"] == 3


def test_graph6_codec_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(5)
    for n in (1, 2, 6, 7, 12, 63, 70):
        a = np.triu(rng.random((n, n)) < 0.5, 1)
        a = (a | a.T).astype(np.uint8)
        ours = O.g6_strings(n, O.edge_bits(a[None]))[0]
        theirs = nx.to_graph6_bytes(nx.from_numpy_array(a), header=False).decode().strip()
        assert ours == theirs
        assert np.array_equal(O.g6_matrix(ours), a)


def test_stream_input_is_seeded_and_counts_its_lines():
    one, again = stream_input(11, 400, 3), stream_input(11, 400, 3)
    assert one.text == again.text
    assert sum(r is not None for r in one.ratios) == one.graph_lines == 400
    assert one.text[0].startswith(">>graph6<<") and "" in one.text
    assert one.distinct < 400
    assert one.best == max(r for r in one.ratios if r is not None)


# -- each oracle rejects a wrong answer ---------------------------------------------------


def test_exhaustive_oracle_rejects_wrong_k():
    want, _ = atlas_max(5, 3)
    wrong = search.exhaustive_max(2, 5).to_json_obj()
    with pytest.raises(O.Mismatch):
        O.check_exhaustive(wrong, 3, want, 1 << 10, 5)
    right = search.exhaustive_max(3, 5).to_json_obj()
    O.check_exhaustive(right, 3, want, 1 << 10, 5)
    # fewer evaluations than labeled graphs pass (isomorph-free generation); more do not
    O.check_exhaustive(dict(right, evaluations=34), 3, want, 1 << 10, 5)
    with pytest.raises(O.Mismatch):
        O.check_exhaustive(dict(right, evaluations=(1 << 10) + 1), 3, want, 1 << 10, 5)


def test_stream_oracle_rejects_miscounts_and_wrong_witnesses():
    data = stream_input(2, 200, 3)
    obj = search.stream_max(3, data.text).to_json_obj()
    O.check_search(obj, 3, data.best, data.graph_lines, None)
    with pytest.raises(O.Mismatch):
        O.check_search(obj, 3, data.best, data.graph_lines + 1, None)
    with pytest.raises(O.Mismatch):
        O.check_search(dict(obj, best_graph="Bw"), 3, data.best, data.graph_lines, None)


def test_anneal_oracle_rejects_drift_and_a_low_ratio():
    wl = Anneal("anneal-n12", 4, 12, 2, 300, 300, 1, floor=0.25)
    wl.prepare(7)
    first = search.local_search(wl.cfgs[0]).to_json_obj()
    other = search.local_search(wl.cfgs[1]).to_json_obj()
    wl.check_repeat(0, first)
    with pytest.raises(O.Mismatch):
        wl.check_repeat(0, other)
    wl.floor = 0.5
    with pytest.raises(O.Mismatch, match="floor"):
        wl.check_floor(first)
    assert wl.final_check()[1]


def test_certify_oracles_reject_wrong_answers():
    cmd = _bound("johnson:10,2", 7)
    rc, out = run_cli(cmd.argv)
    cmd.check(rc, out)
    with pytest.raises(O.Mismatch):
        cmd.check(EXIT_USAGE, out)
    rc, wrong_k = run_cli(["bound", "johnson:10,2", "--k", "1", "--json"])
    with pytest.raises(O.Mismatch):
        cmd.check(rc, wrong_k)
    rc, paley = run_cli(["bound", "paley:13", "--k", "7", "--json"])
    with pytest.raises(O.Mismatch):
        cmd.check(rc, paley)

    rc, table = run_cli(["table", "--range", "5..7", "--json"])
    check_table(5, 7, rc, table)
    doctored = table.replace('"expected": "2/9"', '"expected": "1/5"')
    with pytest.raises(O.Mismatch):
        check_table(5, 7, rc, doctored)
    with pytest.raises(O.Mismatch):
        check_table(5, 8, rc, table)
    assert rc == EXIT_OK


def test_quadratic_strings_parse_to_their_values():
    assert O.quadratic_value("7/45") == pytest.approx(7 / 45, abs=1e-15)
    assert O.quadratic_value("-1/2+1/2*sqrt(13)") == pytest.approx((13 ** 0.5 - 1) / 2, abs=1e-15)
    assert O.quadratic_value("-1*sqrt(5)") == pytest.approx(-(5 ** 0.5), abs=1e-15)
    with pytest.raises(O.Mismatch):
        O.quadratic_value("sqrt5")
