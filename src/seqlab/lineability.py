"""Geometric-ratio generators and certified finite-zero-set bounds.

The generator family x_r = (r^1, r^2, r^3, ...) for rational r in (0,1)
is closed under coordinatewise products (x_r * x_s = x_{rs} exactly) and
any finite nonzero combination has only finitely many zero coordinates.
The bound here makes that quantitative: past the certified index M, the
largest-ratio term strictly dominates the magnitude of all others
combined, so no further coordinate can vanish.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .certificates import (SCHEMA_VERSION, checks_status, ledger_summary,
                           make_check)
from .core import AmbientSpace, Seq
from .errors import ConfigError, DuplicateRatio, RatioOutOfRange
from .scalar import scalar_to_json


@dataclass(frozen=True)
class GeometricCombination:
    """sum(coeffs[i] * x_{ratios[i]}) with 0 < ratios[0] < ... < ratios[-1] < 1."""

    ratios: tuple
    coeffs: tuple

    def __post_init__(self):
        if not self.ratios:
            raise ConfigError("combination needs at least one term")
        if len(self.ratios) != len(self.coeffs):
            raise ConfigError("ratios and coeffs must have equal length")
        prev = None
        for r in self.ratios:
            if not isinstance(r, Fraction):
                raise ConfigError("ratios must be Fractions")
            if not 0 < r < 1:
                raise RatioOutOfRange(f"ratio {r} outside (0, 1)")
            if prev is not None and r == prev:
                raise DuplicateRatio(f"duplicate ratio {r}")
            if prev is not None and r < prev:
                raise ConfigError("ratios must be sorted increasing")
            prev = r
        for c in self.coeffs:
            if c == 0:
                raise ConfigError("coefficients must be nonzero")


def geometric_generator(ratio, t: int, space: Optional[AmbientSpace] = None) -> Seq:
    """x_ratio truncated at T: coords[j] = ratio^j, exact rationals.

    The tail bound defaults to the l1 value ratio^{T+1}/(1-ratio), which
    dominates every lq (q >= 1) and sup tail norm; a sup-norm space
    tightens it to ratio^{T+1}.
    """
    r = Fraction(ratio)
    if not 0 < r < 1:
        raise RatioOutOfRange(f"ratio {r} outside (0, 1)")
    coords = []
    power = Fraction(1)
    for _ in range(t):
        power *= r
        coords.append(power)
    tail = power * r  # r^{T+1}
    if space is None or not space.is_sup:
        tail = tail / (1 - r)
    return Seq(tuple(coords), True, tail)


def zero_scan(comb: GeometricCombination, upto: int) -> list[int]:
    """Exact scan: all 1-based j <= upto where the combination vanishes."""
    zeros = []
    powers = [Fraction(1)] * len(comb.ratios)
    for j in range(1, upto + 1):
        total = Fraction(0)
        for i, r in enumerate(comb.ratios):
            powers[i] *= r
            total += comb.coeffs[i] * powers[i]
        if total == 0:
            zeros.append(j)
    return zeros


def dominance_holds(comb: GeometricCombination, j: int) -> bool:
    """|sum of lower-ratio terms at j| < |top coefficient| * top_ratio^j."""
    top = len(comb.ratios) - 1
    lhs = sum(comb.coeffs[i] * comb.ratios[i] ** j for i in range(top))
    rhs = abs(comb.coeffs[top]) * comb.ratios[top] ** j
    return abs(lhs) < rhs


def certified_zero_bound(comb: GeometricCombination) -> int:
    """Least M such that the top term strictly dominates for every j > M.

    Past M no coordinate can vanish: a zero coordinate would force the
    top term to equal minus the rest, contradicting strict dominance.
    Found by the monotone envelope
    (sum of |lower coeffs|) * (ratio_{N-1}/ratio_N)^j < |top coeff|,
    then tightened by an exact descending scan of the true inequality.
    """
    n = len(comb.ratios)
    if n == 1:
        return 0
    top_ratio = comb.ratios[-1]
    top_coeff = abs(comb.coeffs[-1])
    others = sum(abs(c) for c in comb.coeffs[:-1])
    q = comb.ratios[-2] / top_ratio  # in (0, 1)
    # envelope: first j0 with others * q^j0 < top_coeff; monotone in j
    j0 = 1
    power = q
    while others * power >= top_coeff:
        j0 += 1
        power *= q
    # exact refinement: the largest failure below the envelope bound
    m = 0
    for j in range(j0 - 1, 0, -1):
        if not dominance_holds(comb, j):
            m = j
            break
    return m


def independence_rank(ratios: Sequence, t: int) -> int:
    """Rank of the (#ratios x T) matrix [ratio_i^j] in exact arithmetic.

    Distinct ratios give a generalized Vandermonde system, so the rank
    equals #ratios; this computes it rather than assuming it, stopping
    as soon as all rows have pivoted.
    """
    fracs = [Fraction(r) for r in ratios]
    seen = set()
    for r in fracs:
        if not 0 < r < 1:
            raise RatioOutOfRange(f"ratio {r} outside (0, 1)")
        if r in seen:
            raise DuplicateRatio(f"duplicate ratio {r}")
        seen.add(r)
    n = len(fracs)
    if t < n:
        raise ConfigError(f"truncation {t} smaller than family size {n}")
    # Column-by-column elimination with on-demand powers; early exit at full rank.
    rows = list(range(n))  # active row ids
    powers = [Fraction(1)] * n
    coeffs = {i: {i: Fraction(1)} for i in range(n)}  # row = combo of originals
    rank = 0
    for j in range(1, t + 1):
        if rank == n:
            break
        for i in range(n):
            powers[i] *= fracs[i]
        # current column value for each active (combined) row
        col = {}
        for rid in rows:
            col[rid] = sum(c * powers[i] for i, c in coeffs[rid].items())
        pivot_rid = next((rid for rid in rows if col[rid] != 0), None)
        if pivot_rid is None:
            continue
        piv = col[pivot_rid]
        rows.remove(pivot_rid)
        rank += 1
        for rid in rows:
            f = col[rid] / piv
            if f == 0:
                continue
            merged = dict(coeffs[rid])
            for i, c in coeffs[pivot_rid].items():
                merged[i] = merged.get(i, Fraction(0)) - f * c
            coeffs[rid] = merged
    return rank


def lineability_checks(comb: GeometricCombination, zeros: Sequence[int],
                       m: int, rank: int, scan_upto: int) -> list:
    """The lineability ledger: the scanned zero set lies within the
    certified bound M and has at most M elements, the ratio family has
    full rank, and the top term strictly dominates at the 16 indices
    after M (within the scan)."""
    checks = [
        make_check("zero_set_within_bound", [], max(zeros, default=0), "le", m, 0),
        make_check("zero_set_size", [], len(zeros), "le", m, 0),
        make_check("rank_full", [], rank, "eq", len(comb.ratios), 0),
    ]
    top = len(comb.ratios) - 1
    for j in range(m + 1, min(m + 1 + 16, scan_upto + 1)):
        lhs = abs(sum((comb.coeffs[i] * comb.ratios[i] ** j for i in range(top)),
                      Fraction(0)))
        rhs = abs(comb.coeffs[top]) * comb.ratios[top] ** j
        checks.append(make_check("dominance_beyond_bound", [j], lhs, "lt", rhs, 0))
    return checks


def lineability_certificate(comb: GeometricCombination, t: int,
                            scan_upto: int = 500) -> dict:
    """JSON-ready certificate: {ratios, coeffs, zero_set, certified bound, rank}."""
    m = certified_zero_bound(comb)
    zeros = zero_scan(comb, scan_upto)
    rank = independence_rank(comb.ratios, max(t, len(comb.ratios)))
    checks = lineability_checks(comb, zeros, m, rank, scan_upto)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "lineability",
        "mode": "exact",
        "truncation": t,
        "params": {"scan_upto": scan_upto},
        "data": {
            "ratios": [scalar_to_json(r) for r in comb.ratios],
            "coeffs": [scalar_to_json(c) for c in comb.coeffs],
            "zero_set": zeros,
            "certified_bound": m,
            "rank": rank,
        },
        "checks": ledger_summary(checks),
        "status": checks_status(checks),
    }
