"""The public names, and the names the benchmark looks up, resolve.

bench/blowbench/tracing.py looks each traced name up with no fallback, and
the benchmark's table oracle finds each certificate's closed form by its
descriptor name, so a rename in the package would otherwise only show up as
a failed benchmark run.
"""

import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import blowup
from blowup import search
from blowup.bounds import reproduce_table

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "blowbench" / "tracing.py"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "blowup"


def test_all_names_resolve():
    missing = [name for name in blowup.__all__ if not hasattr(blowup, name)]
    assert missing == []


def test_bench_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("blowbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for modname, attr in tracing.FUNCTION_SPANS.values():
        if not callable(getattr(importlib.import_module(modname), attr, None)):
            missing.append(f"{modname}.{attr}")
    for modname, clsname, attr in [*tracing.METHOD_SPANS.values(), *tracing.COUNTED_METHODS.values()]:
        cls = getattr(importlib.import_module(modname), clsname, None)
        if cls is None or attr not in vars(cls):
            missing.append(f"{modname}.{clsname}.{attr}")
    assert missing == []


def test_bench_table_names_have_closed_forms(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("blowbench.workloads")
    oracles = importlib.import_module("blowbench.oracles")
    wrong = []
    for row in reproduce_table():
        for cert in row.certificates:
            spec, _ = workloads.spectrum_of(cert.base.name)
            n = sum(mult for _, mult in spec)
            ratio, _ = oracles.limit_ratio(oracles.kth(spec, row.k), n)
            if abs(ratio - float(row.expected)) > oracles.RATIO_TOL:
                wrong.append((row.k, cert.base.name, ratio))
    assert wrong == []


def test_one_eigensolver_call_site():
    # The tracer counts solves by patching numpy.linalg.eigvalsh; a solver
    # bound under another name, or called elsewhere, would escape its counts.
    # The one eigenvector solve is named as plainly, beside it.
    for solver in ("eigvalsh", "eigh"):
        uses = {p.name: len(re.findall(rf"\b{solver}\b", p.read_text())) for p in PACKAGE.rglob("*.py")}
        assert {name: count for name, count in uses.items() if count} == {"spectra.py": 1}, solver
        assert (PACKAGE / "spectra.py").read_text().count(f"np.linalg.{solver}(") == 1


def test_one_graph6_line_rule():
    # g6_parse owns the line rule: the header is named nowhere else, and the
    # stream hands each line to it as read, with no strip of its own
    uses = {p.name: p.read_text().count(">>graph6<<") for p in PACKAGE.rglob("*.py")}
    assert {name for name, count in uses.items() if count} == {"graphs.py"}
    tree = ast.parse((PACKAGE / "search.py").read_text())
    strips = [ast.unparse(node) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr in ("strip", "lstrip", "rstrip")]
    assert strips == []
    assert not hasattr(search, "_ASCII_SPACE")


def test_stated_spectrum_check_takes_one_row_at_a_time():
    # the check walks the orbits' rows one at a time, with no block path;
    # its callers name the automorphisms they know, none if they know none
    from blowup import spectra

    assert not hasattr(spectra, "_BLOCK_ENTRIES") and not hasattr(spectra, "_hoffman_rows")
    generators = inspect.signature(spectra.check_stated_spectrum).parameters["generators"]
    assert generators.default is inspect.Parameter.empty


def test_no_cache_keyed_by_an_input_order():
    # A cache keyed by a graph's order keeps memory for every order an input
    # brings. The two left hold little: one parser, and one census order per
    # order an exhaustive search reads, up to 8 (under 8 MiB at order 8).
    # Quadratic arithmetic never splits a radicand again, so
    # squarefree_split needs no cache.
    cached, uses = set(), 0
    for p in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                cached |= {(p.name, node.name, ast.unparse(d)) for d in node.decorator_list
                           if "cache" in ast.unparse(d)}
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            uses += name in ("cache", "lru_cache", "cached_property")
    assert cached == {
        ("cli.py", "build_parser", "functools.cache"),
        ("search.py", "_census", "lru_cache(maxsize=EXHAUSTIVE_HARD_MAX)"),
    }
    assert uses == len(cached)


def test_batched_engines_share_drive():
    # both batched engines return through _drive, the one place a stack of
    # adjacency matrices is built and folded into a result; the exhaustive
    # engine's census builds the only other stack, of the classes of one
    # order, solved once for the floor and the inertia filter and never
    # folded into a result, so exhaustive_max solves none itself. The
    # filter reads eigenpairs it is handed.
    uses = {p.name: p.read_text().count("_adjacency_stack(") for p in PACKAGE.rglob("*.py")}
    assert {name: count for name, count in uses.items() if count} == {"search.py": 3}
    assert inspect.getsource(search._drive).count("_adjacency_stack(") == 1
    assert inspect.getsource(search._census).count("_adjacency_stack(") == 1
    assert inspect.getsource(search.exhaustive_max).count("_adjacency_stack(") == 0
    assert inspect.getsource(search._may_exceed).count("_adjacency_stack(") == 0
    for gone in ("_Best", "c3_campaign", "CampaignReport", "_best_run", "_interlacing_floor",
                 "_order_tables", "_canonical_labels", "_extensions", "_extend", "_classes"):
        assert not hasattr(search, gone), gone


def test_one_descriptor_construction_site():
    # The parser renders every descriptor name and is the one place a
    # descriptor is built; the family builders return provenances.
    uses = {p.name: p.read_text().count("SpectralDescriptor(") for p in PACKAGE.rglob("*.py")}
    assert {name: count for name, count in uses.items() if count} == {"families.py": 1}
    source = (PACKAGE / "families.py").read_text()
    parser = source[source.index("def _parse_expr("):]
    assert parser.count("SpectralDescriptor(") == 1
    removed = {
        "complete_descriptor", "cycle_descriptor", "johnson_descriptor", "icosahedron_descriptor",
        "petersen_descriptor", "paley_descriptor", "srg_spectrum", "drg_spectrum", "gosset_descriptor",
        "taylor_co3_descriptor", "union_descriptor", "blowup_descriptor", "complement_descriptor",
        "explicit_descriptor", "c3_campaign",
    }
    assert removed.isdisjoint(blowup.__all__)


def test_provenance_nodes_share_one_interface():
    # every head of the grammar yields one of four node types, and each
    # answers the same three questions; no wrapper or free function remains
    import blowup.families as fam

    nodes = (fam.Explicit, fam.SrgParams, fam.IntersectionArray, fam.Derived)
    exprs = [f"{head}:{','.join(['5', '2', '0', '1'][: params.count(',') + 1])}"
             for head, (params, _) in fam._INTEGER_HEADS.items()]
    exprs += list(fam._PRESETS) + ["drg:3,2;1,1", "g6:Ch", "union:petersen+srg:5,2,0,1",
                                   "complement:petersen", "blowup:gosset,2"]
    seen = set()
    for expr in exprs:
        p = fam.parse_expression(expr).provenance
        assert isinstance(p, nodes), expr
        seen.add(type(p))
        assert p.strength in (fam.VERIFIED, fam.EXACT_FORMULA), expr
        assert p.spectrum().n >= 1, expr
        assert "kind" in p.to_json_obj(), expr
    assert seen == set(nodes)
    assert {e.partition(":")[0] for e in exprs} >= set(fam._INTEGER_HEADS) | set(fam._PRESETS)
    for gone in ("FromSrg", "FromIntersectionArray", "strength", "_graph"):
        assert not hasattr(fam, gone), gone


def test_no_runtime_recheck_of_a_proven_fact():
    # a leaf's derivation proves its trace zero, an intersection array stores
    # its a_i and k_i once, and the tests pin the table's printed decimals
    from blowup import bounds
    from blowup.families import IntersectionArray
    from blowup.spectra import Spectrum

    assert not hasattr(Spectrum, "trace_is_zero")
    assert not hasattr(IntersectionArray, "a")
    assert not hasattr(bounds, "_printed_tolerance")
