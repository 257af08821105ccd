"""Independent answers to check the program against.

Nothing here imports blowup: the graph6 codec, the closed-form spectra and
the ratio arithmetic are written again from their definitions, so a defect
in the package cannot also hide in its check.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np

#: agreement between two floating evaluations of the same exact quantity
RATIO_TOL = 1e-12
#: agreement with a quantity the program computed by eigensolver
NUMERIC_TOL = 1e-9
#: rounding slack for ratios that sit exactly on a floor or ceiling
THRESHOLD_TOL = 1e-9

# The original solver, saved at import so oracles never enter a trace.
_eigvalsh = np.linalg.eigvalsh


class Mismatch(Exception):
    """The program's answer disagrees with the oracle."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def close(got: float, want: float, tol: float, what: str) -> None:
    expect(abs(got - want) <= tol * max(1.0, abs(want)), f"{what}: got {got!r}, expected {want!r}")


# -- graph6 ------------------------------------------------------------------------


def _pair_order(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) with i < j in graph6 bit order: column j ascending, then row i."""
    j, i = np.nonzero(np.tril(np.ones((n, n), dtype=bool), -1))
    return i, j


def g6_matrix(text: str) -> np.ndarray:
    """Adjacency matrix (float64) of one graph6 string; short and 4-byte headers."""
    raw = text.encode("ascii")
    if raw[0] == 126:
        n = ((raw[1] - 63) << 12) | ((raw[2] - 63) << 6) | (raw[3] - 63)
        body = raw[4:]
    else:
        n, body = raw[0] - 63, raw[1:]
    m = n * (n - 1) // 2
    vals = np.frombuffer(body, dtype=np.uint8) - np.uint8(63)
    bits = np.unpackbits(vals[:, None], axis=1)[:, 2:].ravel()
    expect(len(bits) >= m and not bits[m:].any(), f"malformed graph6 payload for n={n}")
    a = np.zeros((n, n))
    i, j = _pair_order(n)
    a[i, j] = a[j, i] = bits[:m]
    return a


def g6_strings(n: int, bits: np.ndarray) -> list[str]:
    """graph6 strings for a batch of edge-bit rows already in graph6 order."""
    m = n * (n - 1) // 2
    bits = np.asarray(bits, dtype=np.uint8).reshape(len(bits), m)
    pad = (-m) % 6
    padded = np.concatenate([bits, np.zeros((len(bits), pad), np.uint8)], axis=1)
    vals = padded.reshape(len(bits), -1, 6) @ np.array([32, 16, 8, 4, 2, 1], np.uint8)
    body = (vals + 63).astype(np.uint8)
    head = chr(n + 63) if n <= 62 else "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    return [head + row.tobytes().decode("ascii") for row in body]


def edge_bits(mats: np.ndarray) -> np.ndarray:
    """Edge bits in graph6 order for a stack of adjacency matrices."""
    n = mats.shape[-1]
    i, j = _pair_order(n)
    return mats[:, i, j].astype(np.uint8)


# -- ratios ---------------------------------------------------------------------------


def limit_ratio(lam_k: float, n: int) -> tuple[float, bool]:
    """sup over t of lambda_k(G^[t])/(nt): (lambda_k + 1)/n when lambda_k > -1."""
    if lam_k > -1.0 + THRESHOLD_TOL:
        return (lam_k + 1.0) / n, True
    return 0.0, False


def ratios_of(mats: np.ndarray, k: int) -> np.ndarray:
    """max(0, (lambda_k + 1)/n) for a stack of adjacency matrices, batched."""
    n = mats.shape[-1]
    w = _eigvalsh(mats)
    return np.maximum(0.0, (w[..., n - k] + 1.0) / n)


def ceiling(k: int) -> float:
    """The proven upper bound 1/(2 sqrt(k-1)) on c_k, k >= 2."""
    return 1.0 / (2.0 * math.sqrt(k - 1))


def check_search(obj: dict, k: int, want_ratio: float, evaluations: int | None, n: int | None) -> None:
    """Check a search result (as its JSON object) against an oracle maximum."""
    expect(obj["k"] == k, f"result is for k={obj['k']}, expected k={k}")
    if evaluations is not None:
        expect(obj["evaluations"] == evaluations,
               f"evaluations {obj['evaluations']}, expected {evaluations}")
    got = obj["best_ratio"]
    close(got, want_ratio, RATIO_TOL, "best ratio")
    check_witness(obj, k, n)


def check_exhaustive(obj: dict, k: int, want_ratio: float, labeled: int, n: int) -> None:
    """Check an exhaustive search over the `labeled` graphs on n vertices.

    Evaluations are only bounded: a generator that skips isomorphic copies,
    or prunes, evaluates fewer graphs than the labeled sweep and must pass.
    """
    check_search(obj, k, want_ratio, None, n)
    expect(1 <= obj["evaluations"] <= labeled,
           f"evaluations {obj['evaluations']} outside 1..{labeled}")


def check_witness(obj: dict, k: int, n: int | None) -> None:
    g = obj["best_graph"]
    a = g6_matrix(g)
    if n is not None:
        expect(a.shape[0] == n, f"witness has {a.shape[0]} vertices, expected {n}")
    close(float(ratios_of(a, k)), obj["best_ratio"], RATIO_TOL, f"ratio recomputed from witness {g}")
    if k >= 2:
        expect(obj["best_ratio"] <= ceiling(k) + THRESHOLD_TOL, "ratio above the proven ceiling")


# -- spectra from closed forms ---------------------------------------------------------
#
# A spectrum is a list of (value, multiplicity) with float values.


def johnson2_spectrum(m: int) -> list[tuple[float, int]]:
    """J(m, 2): 2(m-2) once, m-4 with multiplicity m-1, -2 with m(m-3)/2."""
    return [(2.0 * (m - 2), 1), (m - 4.0, m - 1), (-2.0, m * (m - 3) // 2)]


def srg_spectrum(v: int, k: int, lam: int, mu: int) -> list[tuple[float, int]]:
    """Strongly regular (v,k,lambda,mu): k once, then r and s with multiplicities f, g."""
    d = (lam - mu) ** 2 + 4 * (k - mu)
    root = math.sqrt(d)
    r, s = (lam - mu + root) / 2, (lam - mu - root) / 2
    f = ((v - 1) - (2 * k + (v - 1) * (lam - mu)) / root) / 2
    g = ((v - 1) + (2 * k + (v - 1) * (lam - mu)) / root) / 2
    expect(abs(f - round(f)) < 1e-9 and abs(g - round(g)) < 1e-9, "non-integral srg multiplicity")
    return [(float(k), 1), (r, round(f)), (s, round(g))]


def paley_spectrum(q: int) -> list[tuple[float, int]]:
    return srg_spectrum(q, (q - 1) // 2, (q - 5) // 4, (q - 1) // 4)


NAMED_SPECTRA = {
    "petersen": [(3.0, 1), (1.0, 5), (-2.0, 4)],
    "icosahedron": [(5.0, 1), (math.sqrt(5), 3), (-1.0, 5), (-math.sqrt(5), 3)],
    "gosset": [(27.0, 1), (9.0, 7), (-1.0, 27), (-3.0, 21)],
    # the paper's 552-vertex Taylor graph (a double cover of K_276), table row 24
    "taylor-co3": [(275.0, 1), (55.0, 23), (-1.0, 275), (-5.0, 253)],
}


def regular_complement(spec: list[tuple[float, int]]) -> list[tuple[float, int]]:
    """Complement of a connected d-regular graph: n-1-d, and -1-theta for the rest."""
    n = sum(mult for _, mult in spec)
    (d, _), rest = spec[0], spec[1:]
    return [(n - 1.0 - d, 1)] + [(-1.0 - th, mult) for th, mult in rest]


def blowup_spectrum(spec: list[tuple[float, int]], t: int) -> list[tuple[float, int]]:
    """Closed t-blowup: theta -> t*theta + t - 1, plus (t-1)n copies of -1."""
    n = sum(mult for _, mult in spec)
    out = [(t * th + t - 1.0, mult) for th, mult in spec]
    return out + ([(-1.0, (t - 1) * n)] if t > 1 else [])


def expand(spec: list[tuple[float, int]]) -> np.ndarray:
    """All eigenvalues, descending."""
    vals = np.concatenate([np.full(mult, float(th)) for th, mult in spec])
    return np.sort(vals)[::-1]


def kth(spec: list[tuple[float, int]], k: int) -> float:
    return float(expand(spec)[k - 1])


# -- the program's exact strings -----------------------------------------------------------

_QUADRATIC = re.compile(
    r"^(?P<a>-?\d+(?:/\d+)?)?(?:(?P<sign>[+-]?)(?P<b>\d+(?:/\d+)?)\*sqrt\((?P<d>\d+)\))?$"
)


def quadratic_value(text: str) -> float:
    """Float value of a printed a+b*sqrt(d) such as '-1/2+1/2*sqrt(13)' or '7/45'."""
    match = _QUADRATIC.match(text)
    expect(match is not None and text != "", f"unreadable exact value {text!r}")
    a = Fraction(match["a"]) if match["a"] else Fraction(0)
    value = float(a)
    if match["b"]:
        b = float(Fraction(match["b"])) * (-1.0 if match["sign"] == "-" else 1.0)
        value += b * math.sqrt(int(match["d"]))
    return value


def json_value(v) -> float:
    return quadratic_value(v) if isinstance(v, str) else float(v)


def check_spectrum_json(entries: list[dict], want: list[tuple[float, int]], tol: float) -> None:
    """The program's spectrum entries equal the closed form as a multiset."""
    got = np.sort(np.concatenate([np.full(e["mult"], json_value(e["value"])) for e in entries]))[::-1]
    ref = expand(want)
    expect(len(got) == len(ref), f"spectrum has {len(got)} eigenvalues, expected {len(ref)}")
    worst = float(np.max(np.abs(got - ref)))
    expect(worst <= tol * max(1.0, float(np.max(np.abs(ref)))), f"spectrum off by {worst:.3g}")


def check_bound_json(obj: dict, k: int, want: list[tuple[float, int]], exact: bool) -> None:
    """A `bound --json` certificate against the closed-form spectrum of its base."""
    n = sum(mult for _, mult in want)
    tol = RATIO_TOL if exact else NUMERIC_TOL
    expect(obj["k"] == k, f"certificate is for k={obj['k']}, expected {k}")
    expect(obj["descriptor"]["n"] == n, f"base has n={obj['descriptor']['n']}, expected {n}")
    ratio, attained = limit_ratio(kth(want, k), n)
    close(obj["ratio"]["float"], ratio, tol, f"c_{k} ratio")
    expect(obj["attained"] == attained, f"attained={obj['attained']}, expected {attained}")
    if obj["ratio"]["exact"] is not None:
        close(quadratic_value(obj["ratio"]["exact"]), ratio, RATIO_TOL, "exact ratio")
    if k >= 2:
        expect(obj["ratio"]["float"] <= ceiling(k) + THRESHOLD_TOL, "certificate above the ceiling")
    check_spectrum_json(obj["descriptor"]["spectrum"], want, tol)
    prov = obj["descriptor"]["provenance"]
    if prov.get("kind") == "explicit":
        a = g6_matrix(prov["graph6"])
        expect(a.shape[0] == n, f"explicit witness has {a.shape[0]} vertices, expected {n}")
        lam = float(_eigvalsh(a)[n - k])
        close(limit_ratio(lam, n)[0], ratio, NUMERIC_TOL, "ratio recomputed from the witness graph6")
