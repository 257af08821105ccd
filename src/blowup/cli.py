"""Command line front end.

Commands: spectrum, bound, table, search, verify. Graphs are named in the
shared expression grammar (see `blowup spectrum --help`). Exit codes:
0 success, 1 verification or table failure, 2 usage or parse error,
3 numeric failure, 10 a search result beating an open or recorded
threshold (witness written to the working directory).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import json
import sys

from . import bounds as B
from . import search as S
from .errors import (
    GraphParseError,
    InternalConsistencyError,
    NumericError,
    TableMismatchError,
)
from .families import GRAMMAR, parse_expression
from .spectra import Spectrum

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_EXCEEDED = 10

GRAMMAR_HELP = f"expression grammar: {GRAMMAR}"


def _sig6(x: float) -> str:
    return f"{x:.6g}"


# -- spectrum ---------------------------------------------------------------


def cmd_spectrum(args) -> int:
    desc = parse_expression(args.expr)
    spectrum = desc.spectrum
    note = None
    if args.numeric and spectrum.is_exact:
        spectrum = Spectrum((float(v), m) for v, m in spectrum.entries)
    elif args.exact and not spectrum.is_exact:
        note = "exact form unavailable; numeric values shown (eigensolver, 1e-9 accuracy)"
    if args.json:
        obj = {
            "name": desc.name,
            "n": desc.n,
            "exact": spectrum.is_exact,
            "spectrum": spectrum.to_json_obj(),
        }
        if note:
            obj["note"] = note
        print(json.dumps(obj))
    else:
        print(f"{desc.name}  n={desc.n}")
        print(spectrum.display())
        if note:
            print(f"note: {note}")
    return EXIT_OK


# -- bound ------------------------------------------------------------------


def cmd_bound(args) -> int:
    desc = parse_expression(args.expr)
    k = args.k
    cert = B.certify(desc, k)
    if args.t == "sup":
        ratio, attained, t_label = cert.ratio, cert.attained, "sup"
    else:
        t = int(args.t)
        if t < 1:
            raise ValueError("t must be >= 1 or 'sup'")
        ratio = B.finite_ratio(desc, t, k)
        attained = True
        t_label = str(t)
    rendered = B.ratio_json(ratio)
    if args.json:
        obj = cert.to_json_obj()
        obj.update(ratio=rendered, attained=attained, t=t_label)
        print(json.dumps(obj))
    else:
        exact, value = rendered["exact"], _sig6(rendered["float"])
        shown = f"{exact} ~ {value}" if exact else value
        head = f"c_{k} >=" if t_label == "sup" else f"blowup t={t_label} ratio for k={k}:"
        print(f"{head} {shown}")
        print(f"base: {desc.name} (n={desc.n})  verification: {cert.verification}")
        if t_label == "sup" and not attained:
            print("supremum 0 is not attained: lambda_k <= -1")
        if k >= 2:
            print(f"proven ceiling: {_sig6(B.nikiforov_upper(k))}")
    return EXIT_OK


# -- table ------------------------------------------------------------------


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError("range must look like 4..24")
    return int(lo), int(hi)


def cmd_table(args) -> int:
    k_lo, k_hi = _parse_range(args.range) if args.range else (B.TABLE_K_MIN, B.TABLE_K_MAX)
    try:
        rows = B.reproduce_table(k_lo, k_hi)
    except TableMismatchError as e:
        if args.json:
            print(json.dumps({"ok": False, "rows": [r.to_json_obj() for r in (e.rows or [])]}))
        else:
            print(f"table mismatch: {e}", file=sys.stderr)
            for r in e.rows or []:
                if not r.match:
                    got = ", ".join(str(c.ratio) for c in r.certificates)
                    print(f"  k={r.k}: expected {r.expected}, got {got}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    if args.json:
        print(json.dumps({"ok": True, "rows": [r.to_json_obj() for r in rows]}))
        return EXIT_OK
    print(f"{'k':>3}  {'ratio':<22} {'decimal':<10} {'source':<34} {'status':<24} ceiling")
    for r in rows:
        names = " + ".join(c.base.name for c in r.certificates)
        status = ",".join(sorted({c.verification for c in r.certificates}))
        print(
            f"{r.k:>3}  {str(r.expected):<22} {_sig6(float(r.expected)):<10} "
            f"{names:<34} {status:<24} {_sig6(B.nikiforov_upper(r.k))}"
        )
    return EXIT_OK


# -- search -----------------------------------------------------------------


def cmd_search(args) -> int:
    if args.method == "stream":
        if args.g6_file is None:
            raise ValueError("stream search needs --g6-file")
        # stdin's bytes are decoded as a file's, whatever decoder the interpreter gave
        # sys.stdin; a non-ASCII byte stays in its line, which the line check rejects
        stdin = args.g6_file == "-"
        raw = sys.stdin.buffer if stdin else open(args.g6_file, "rb")
        fh = io.TextIOWrapper(raw, encoding="ascii", errors="surrogateescape")
        try:
            result = S.stream_max(args.k, fh, on_error=args.on_error)
        finally:
            if stdin:
                fh.detach()  # leaves the real stdin open
            else:
                fh.close()
    elif args.method == "exhaustive":
        if args.n is None:
            raise ValueError("exhaustive search needs --n")
        result = S.exhaustive_max(args.k, args.n)
    else:
        if args.n is None:
            raise ValueError("local search needs --n")
        # every SearchConfig field is an argparse dest of the same name
        cfg = S.SearchConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(S.SearchConfig)})
        result = S.local_search(cfg)

    payload, witness = S.exceedance(result)
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"best ratio {result.best_ratio!r} at k={result.k} after {result.evaluations} evaluations")
        print(f"witness graph6: {result.best_graph}")
        if payload["threshold"] is not None:
            rel = "EXCEEDS" if witness else "does not exceed"
            print(f"{rel} the reference threshold {_sig6(payload['threshold'])}")
    if witness:
        path = f"witness_k{args.k}.json"
        with open(path, "w", encoding="ascii") as fh:
            json.dump(witness, fh, indent=2)
        print(f"witness written to {path}", file=sys.stderr)
        return EXIT_EXCEEDED
    return EXIT_OK


# -- verify -----------------------------------------------------------------


def cmd_verify(args) -> int:
    results = B.self_checks()
    ok = all(r[1] for r in results)
    if args.json:
        print(
            json.dumps(
                {
                    "ok": ok,
                    "checks": [{"name": n, "ok": o, "detail": d} for n, o, d in results],
                }
            )
        )
    else:
        for name, good, detail in results:
            print(f"{'PASS' if good else 'FAIL'}  {name}: {detail}")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


# -- parser -------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process; each parse_args call
    starts from a fresh namespace, so nothing carries over between calls."""
    p = argparse.ArgumentParser(
        prog="blowup",
        description="Adjacency spectra, closed blowups, and eigenvalue ratio bounds.",
        epilog=GRAMMAR_HELP,
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="print the spectrum of a graph expression")
    sp.add_argument("expr", help=GRAMMAR_HELP)
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", help="prefer the exact form")
    mode.add_argument("--numeric", action="store_true", help="force float values")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_spectrum)

    bp = sub.add_parser("bound", help="certified lower bound from a base graph")
    bp.add_argument("expr", help=GRAMMAR_HELP)
    bp.add_argument("--k", type=int, required=True)
    bp.add_argument("--t", default="sup", help="blowup factor, or 'sup' for the limit")
    bp.add_argument("--json", action="store_true")
    bp.set_defaults(func=cmd_bound)

    tp = sub.add_parser("table", help="reproduce the reference table of records")
    tp.add_argument("--range", help="row range like 4..24 (default all)")
    tp.add_argument("--json", action="store_true")
    tp.set_defaults(func=cmd_table)

    qp = sub.add_parser("search", help="hunt for graphs with a large limit ratio")
    qp.add_argument("--k", type=int, required=True)
    qp.add_argument("--n", type=int)
    qp.add_argument(
        "--method",
        choices=("exhaustive", "stream", "hillclimb", "anneal"),
        default="anneal",
    )
    qp.add_argument("--seed", type=int, default=S.DEFAULT_SEED,
                    help=f"RNG seed for local search (default {S.DEFAULT_SEED})")
    qp.add_argument("--budget", type=int, default=S.SearchConfig.budget)
    qp.add_argument("--restarts", type=int, default=S.SearchConfig.restarts)
    qp.add_argument("--t0", type=float, default=S.SearchConfig.t0)
    qp.add_argument("--cooling", type=float, default=S.SearchConfig.cooling)
    qp.add_argument("--g6-file", help="graph6 lines for --method stream, '-' for stdin")
    qp.add_argument("--on-error", choices=("raise", "skip"), default="raise")
    qp.add_argument("--json", action="store_true")
    qp.set_defaults(func=cmd_search)

    vp = sub.add_parser("verify", help="run the cross-check suite")
    vp.add_argument("--json", action="store_true")
    vp.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GraphParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (InternalConsistencyError, TableMismatchError) as e:
        print(f"consistency failure: {e}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    except (ValueError, OverflowError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
