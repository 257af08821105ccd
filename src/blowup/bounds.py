"""Lower-bound certificates for c_k, the extremal ratio of the k-th eigenvalue.

c_k is the supremum of lambda_k(G)/n over graphs with at least k vertices.
Closed t-blowups push the finite ratio lambda_k(G^[t])/(nt) up to the limit
(lambda_k + 1)/n as t grows, provided lambda_k >= -1, so any base spectrum
yields a certified lower bound. Every certificate is checked against the
proven ceiling 1/(2*sqrt(k-1)); a violation is a solver bug and raises.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import InternalConsistencyError, TableMismatchError
from .exact import Quadratic
from .families import SpectralDescriptor, parse_expression
from .graphs import closed_blowup_graph, random_graph
from .spectra import (
    NUMERIC_SPECTRUM_TOL,
    Spectrum,
    blowup_transform,
    eigen_spectrum,
    spectrum_invariant_checks,
)

#: slack allowed when comparing a certified ratio against the proven ceiling
DOMINANCE_TOL = 1e-12


def finite_ratio(base: SpectralDescriptor, t: int, k: int):
    """lambda_k(G^[t]) / (n t) over the whole blowup multiset, new -1s included;
    exact when the base spectrum is exact."""
    return blowup_transform(base.spectrum, t).kth(k) / (base.n * t)


# -- limit ratios ----------------------------------------------------------------


@dataclass(frozen=True)
class LimitRatio:
    """Supremum over t of the blowup ratio; attained == False means the
    supremum is 0 approached from below (lambda_k <= -1)."""

    value: Quadratic | float
    attained: bool


def limit_ratio(s: Spectrum, k: int) -> LimitRatio:
    """sup_t lambda_k(blowup_t)/(n t) for a base spectrum on n = s.n vertices.

    Equals (lambda_k + 1)/n when lambda_k >= -1; otherwise the blowup
    ratios are negative for every t and the supremum is 0, not attained.
    """
    lam = s.kth(k)
    if lam > -1:
        return LimitRatio((lam + 1) / s.n, True)
    # a typed zero, so the JSON "exact" field still follows the spectrum
    return LimitRatio(Quadratic(0) if isinstance(lam, Quadratic) else 0.0, False)


# -- reference bounds --------------------------------------------------------------


def nikiforov_upper(k: int) -> float:
    """Proven ceiling c_k <= 1/(2*sqrt(k-1)) for k >= 2."""
    if k < 2:
        raise ValueError("the ceiling 1/(2*sqrt(k-1)) needs k >= 2")
    return 1.0 / (2.0 * math.sqrt(k - 1))


def reference_lower(k: int) -> float:
    """Prior-art floor c_k >= 1/(k - 1/2) for k >= 5."""
    if k < 5:
        raise ValueError("the floor 1/(k-1/2) is stated for k >= 5")
    return 1.0 / (k - 0.5)


def check_ceiling(ratio: float, k: int, source: str) -> None:
    """Raise InternalConsistencyError if ratio, from source, exceeds the proven ceiling (k >= 2)."""
    if k >= 2 and ratio > nikiforov_upper(k) + DOMINANCE_TOL:
        raise InternalConsistencyError(
            f"{source} ratio {ratio} for k={k} exceeds the proven ceiling {nikiforov_upper(k)}"
        )


# -- certificates -------------------------------------------------------------------


def ratio_json(ratio: Quadratic | float) -> dict:
    """{"exact": its exact form or None, "float": its value} for a ratio."""
    return {"exact": str(ratio) if isinstance(ratio, Quadratic) else None, "float": float(ratio)}


@dataclass(frozen=True)
class BoundCertificate:
    """A certified lower bound c_k >= ratio obtained from one base descriptor."""

    k: int
    base: SpectralDescriptor
    ratio: Quadratic | float
    attained: bool
    verification: str

    def ratio_float(self) -> float:
        return float(self.ratio)

    def to_json_obj(self) -> dict:
        return {
            "k": self.k,
            "descriptor": self.base.to_json_obj(),
            "ratio": ratio_json(self.ratio),
            "attained": self.attained,
            "verification": self.verification,
        }


def certify(base: SpectralDescriptor, k: int) -> BoundCertificate:
    """Build a lower-bound certificate for c_k from a base descriptor.

    The certificate is as strong as the base's provenance (its `strength`); the
    base was validated when it was built and is not solved again. Any ratio
    above the proven ceiling (k >= 2) is a contradiction and raises
    InternalConsistencyError.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > base.n:
        raise ValueError(f"k={k} exceeds the order {base.n} of {base.name}")
    lr = limit_ratio(base.spectrum, k)
    check_ceiling(float(lr.value), k, f"{base.name}:")
    return BoundCertificate(k, base, lr.value, lr.attained, base.provenance.strength)


# -- the reference table of best-known lower bounds ----------------------------------
#
# Rows k = 4..24. Each row: printed decimal of record, exact expected ratio,
# and the expressions of the descriptors that realize it, so every printed
# source name rebuilds its own certificate. Rows 17-24 rest on srg
# parameters or an intersection array, so they are `exact-formula`.

_TABLE_ENTRIES: dict[int, tuple[str, Quadratic, tuple[str, ...]]] = {
    4: ("0.26967", Quadratic(1, 1, 5) / 12, ("icosahedron",)),
    5: ("0.2222", Quadratic(2) / 9, ("paley:9",)),
    6: ("0.2", Quadratic(1) / 5, ("petersen", "johnson:6,2")),
    7: ("0.190476", Quadratic(4) / 21, ("johnson:7,2",)),
    8: ("0.178571", Quadratic(5) / 28, ("johnson:8,2", "gosset")),
    9: ("0.1666", Quadratic(1) / 6, ("johnson:9,2",)),
    10: ("0.1555", Quadratic(7) / 45, ("johnson:10,2",)),
    11: ("0.14545", Quadratic(8) / 55, ("johnson:11,2",)),
    12: ("0.13636", Quadratic(3) / 22, ("johnson:12,2",)),
    13: ("0.128205", Quadratic(5) / 39, ("johnson:13,2",)),
    14: ("0.1208791", Quadratic(11) / 91, ("johnson:14,2",)),
    15: ("0.1142857", Quadratic(4) / 35, ("johnson:15,2",)),
    16: ("0.108333", Quadratic(13) / 120, ("johnson:16,2",)),
    17: ("0.10526", Quadratic(2) / 19, ("srg:57,24,11,9",)),
    18: ("0.10526", Quadratic(2) / 19, ("srg:57,24,11,9",)),
    19: ("0.10526", Quadratic(2) / 19, ("srg:57,24,11,9",)),
    20: ("0.104", Quadratic(13) / 125, ("srg:125,72,45,36",)),
    21: ("0.104", Quadratic(13) / 125, ("srg:125,72,45,36",)),
    22: ("0.10288", Quadratic(25) / 243, ("srg:243,132,81,60",)),
    23: ("0.10288", Quadratic(25) / 243, ("srg:243,132,81,60",)),
    24: ("0.101449", Quadratic(56) / 552, ("taylor-co3",)),
}

TABLE_K_MIN = 4
TABLE_K_MAX = 24


@dataclass(frozen=True)
class TableRow:
    k: int
    expected: Quadratic
    printed: str
    certificates: tuple[BoundCertificate, ...]
    match: bool

    def to_json_obj(self) -> dict:
        return {
            "k": self.k,
            "expected": str(self.expected),
            "printed": self.printed,
            "match": self.match,
            "certificates": [c.to_json_obj() for c in self.certificates],
        }


def best_known_ratio(k: int) -> Quadratic | None:
    """Exact record ratio for table rows, None outside 4..24."""
    row = _TABLE_ENTRIES.get(k)
    return row[1] if row else None


def _build_row(k: int, bases: dict[str, SpectralDescriptor]) -> TableRow:
    printed, expected, sources = _TABLE_ENTRIES[k]
    certs = tuple(certify(bases[src], k) for src in sources)
    ok = all(isinstance(c.ratio, Quadratic) and c.ratio == expected for c in certs)
    return TableRow(k, expected, printed, certs, ok)


def reproduce_table(k_lo: int = TABLE_K_MIN, k_hi: int = TABLE_K_MAX) -> list[TableRow]:
    """Rebuild the reference rows k_lo..k_hi and compare each exactly.

    Raises TableMismatchError naming the offending rows if any certificate
    disagrees with the recorded exact ratio (the tests pin the printed decimals).
    """
    if not (TABLE_K_MIN <= k_lo <= k_hi <= TABLE_K_MAX):
        raise ValueError(f"table rows run k = {TABLE_K_MIN}..{TABLE_K_MAX}")
    ks = range(k_lo, k_hi + 1)
    # rows 17-19, 20-21 and 22-23 share a source: each is built once, in row order
    sources = dict.fromkeys(src for k in ks for src in _TABLE_ENTRIES[k][2])
    bases = {src: parse_expression(src) for src in sources}
    rows = [_build_row(k, bases) for k in ks]
    bad = [r.k for r in rows if not r.match]
    if bad:
        raise TableMismatchError(f"table rows {bad} disagree with the reference values", rows)
    return rows


# -- self-checks ----------------------------------------------------------------------
#
# `blowup verify` runs these cross-checks; the acceptance gate asserts on the
# same functions.


def blowup_residual() -> float:
    """Worst gap between analytic and eigensolved closed-blowup spectra.

    The inputs are acceptance criterion 4's: 50 graphs G(n, 1/2) with n in
    2..10 drawn from random.Random(20260818), each blown up with t = 1, 2, 3.
    """
    rng = random.Random(20260818)
    worst = 0.0
    for _ in range(50):
        g = random_graph(rng.randint(2, 10), rng)
        base = eigen_spectrum(g)
        for t in (1, 2, 3):
            analytic = blowup_transform(base, t).float_values()
            numeric = eigen_spectrum(closed_blowup_graph(g, t)).float_values()
            worst = max(worst, float(abs(analytic - numeric).max()))
    return worst


def _family_spectra():
    # the stated spectra are checked exactly when built; the eigensolver is an
    # independent oracle here
    exprs = ["icosahedron", "petersen", "paley:5", "paley:9", "paley:13"]
    exprs += [f"johnson:{m},2" for m in range(4, 17)]
    descs = [parse_expression(e) for e in exprs]
    bad = [d.name for d in descs if not d.spectrum.allclose(eigen_spectrum(d.provenance.graph))]
    if bad:
        return False, f"{', '.join(bad)} disagree with the eigensolver beyond {NUMERIC_SPECTRUM_TOL}"
    return True, f"{len(exprs)} families agree within {NUMERIC_SPECTRUM_TOL}"


def _blowups():
    worst = blowup_residual()
    return worst <= 1e-8, f"max residual {worst:.2e}"


def _power_sums():
    rng = random.Random(8128)
    graphs = [random_graph(rng.randint(2, 12), rng) for _ in range(100)]
    bad = sum(not spectrum_invariant_checks(g, eigen_spectrum(g)) for g in graphs)
    return bad == 0, f"{bad} failures of 100"


def _table_rows():
    return True, f"{len(reproduce_table())} rows match"


_SELF_CHECKS = (
    ("family spectra vs eigensolver", _family_spectra),
    ("analytic vs numeric closed blowups", _blowups),
    ("power sum identities", _power_sums),
    ("reference table rows 4..24", _table_rows),
)


def self_checks() -> list[tuple[str, bool, str]]:
    """Run every cross-check as (name, ok, detail); one that raises counts as failed."""
    results = []
    for name, fn in _SELF_CHECKS:
        try:
            ok, detail = fn()
        except Exception as e:  # noqa: BLE001 - a self-check must report, not crash
            ok, detail = False, f"{type(e).__name__}: {e}"
        results.append((name, ok, detail))
    return results
