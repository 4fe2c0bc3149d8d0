"""Constructions under the sup norm: the halving-coordinate search, a
Mazur-style basic sequence with unit diagonal, stabilizing-subsequence
extraction (the computable stand-in for cluster points), the four-case
cascade with sup-norm bounds 6/2/8/8, and the final zeroing recursion
with bound 9.

Cluster points of bounded coordinate arrays are not computable from a
truncation, so limits are replaced by value buckets of width stab_tol:
the bucket (centered at an integer multiple of stab_tol) holding the
most indices stands in for the limit, and InsufficientStabilization is
the explicit failure mode when no bucket captures enough indices.

Norming functionals in the sup norm are realized as signed coordinate
evaluations at a maximal coordinate, so each net point adds at most one
new zeroed coordinate to the shrinking working subspace.  That subspace
is an RREF basis, updated for each new zero constraint, and each f_k's
tail bound is read off its coefficients in the fixture's reduced basis,
so it depends on f_k alone.

The sup-norm spaces are exact: every vector, eps and tolerance here is
rational, and ``core.Subspace.build`` refuses a linf or c0 span of float
generators.  Scans that read one number from each combination and drop
it (the net, the ratio ascent, the sampled basis inequality) run on the
family's nonzero columns, on integer numerators over one common
denominator (``core.scan_rows``); only the vectors a construction keeps
become Fractions.  Each Mazur step's search reads one such scan frame of
its working subspace, with each row's sup, and compares ratios on
integer cross products; every ratio ascent of the step reads that frame,
and rejects most candidates from two of their entries, before building
them.  The net's points are evaluated from their structure:
an axis point is a signed scan row, a pair point combines two rows.  The
sampled basis-inequality margins stay integer numerators over one
denominator per prefix pair, and become one Fraction per pair at the
end.
"""
from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .certificates import checks_status, ledger_summary, make_check
from .core import (
    AmbientSpace,
    Seq,
    Subspace,
    norm,
    scan_combine,
    scan_prefix_sups,
    scan_rows,
)
from .errors import (
    CaseBoundViolated,
    ConfigError,
    DimensionExhausted,
    InsufficientStabilization,
    NetTooCoarse,
    SearchExhausted,
)
from .lp_construction import basis_constant_lower_bound
from .scalar import Scalar, scalar_to_json

DEFAULT_STAB_TOL = Fraction(1, 10 ** 6)
#: grid step of the Mazur net's coefficients
NET_RESOLUTION = Fraction(1, 4)
#: cascade levels built beyond the requested depth
CASCADE_PAD = 2
#: Mazur steps built beyond the two per cascade level
MAZUR_PAD = 6
#: coordinate passes of the Mazur ratio ascent after its pair phase
_ASCENT_PASSES = 2
#: the ascent's grid steps n, each adding (n/4) w_i
_TICKS = (-4, -3, -2, -1, 1, 2, 3, 4)
#: the sup norm, which linf and c0 share
_SUP = AmbientSpace.linf()
#: the zero tolerance of every sup-norm check: the sup-norm spaces are exact
_TOL = Fraction(0)


def default_eps_seq(mazur_depth: int) -> list:
    """The Mazur eps sequence the pipelines use: 1, 1/4, 1/8, ..., up to
    1/2^mazur_depth."""
    return [Fraction(1)] + [Fraction(1, 2 ** i)
                            for i in range(2, mazur_depth + 1)]


@dataclass(frozen=True)
class MazurCert:
    """Basic family with unit diagonal: f_{n_k}(n_k) = 1, later vectors
    vanish at earlier marked coordinates, and 1 <= |f_{n_k}| <= 2."""

    space: AmbientSpace
    eps_seq: tuple
    n: tuple
    f: tuple
    net_sizes: tuple
    functionals: tuple  # per step: tuple of (coordinate, sign)
    zeroed_coords: tuple
    checks: tuple
    seed: int
    samples: int

    @property
    def status(self) -> str:
        return checks_status(self.checks)

    def as_json(self) -> dict:
        return {
            "space": self.space.as_json(),
            "eps_seq": [scalar_to_json(e) for e in self.eps_seq],
            "n": list(self.n),
            "f": [v.as_json() for v in self.f],
            "net_sizes": list(self.net_sizes),
            "functionals": [[[j, s] for (j, s) in step] for step in self.functionals],
            "zeroed_coords": list(self.zeroed_coords),
            "seed": self.seed,
            "samples": self.samples,
            "checks": ledger_summary(self.checks),
        }


@dataclass(frozen=True)
class CascadeCert:
    """Cascade vectors h with unit diagonal at t_k, zeros at earlier t's,
    per-case sup bounds, and vanishing post-horizon envelopes."""

    space: AmbientSpace
    m: tuple  # input index list (subset of the Mazur indices)
    t: tuple
    h: tuple
    case_trace: tuple  # per level: {"case": i, "L1":, "L2":, "bound":, "t":}
    limit_estimates: tuple
    stab_tol: Scalar
    final_pool: tuple  # stabilized indices remaining after the last level
    source: MazurCert
    checks: tuple

    @property
    def status(self) -> str:
        ok = checks_status(self.checks) == "pass"
        return "pass" if ok and self.source.status == "pass" else "fail"

    def as_json(self) -> dict:
        return {
            "space": self.space.as_json(),
            "m": list(self.m),
            "t": list(self.t),
            "h": [v.as_json() for v in self.h],
            "case_trace": [dict(c, L1=scalar_to_json(c["L1"]),
                                L2=scalar_to_json(c["L2"]),
                                bound=scalar_to_json(c["bound"]))
                           for c in self.case_trace],
            "limit_estimates": [
                {"L1": scalar_to_json(e["L1"]), "L2": scalar_to_json(e["L2"]),
                 "stab_tol": scalar_to_json(e["stab_tol"])}
                for e in self.limit_estimates],
            "stab_tol": scalar_to_json(self.stab_tol),
            "final_pool": list(self.final_pool),
            "source": self.source.as_json(),
            "checks": ledger_summary(self.checks),
        }


@dataclass(frozen=True)
class SupZeroingCert:
    """Final family l with l(s_k) = 1, zeros at the other selected
    markers, and |l| <= 9; built by correcting cascade vectors."""

    space: AmbientSpace
    eps: Scalar
    k_est: Scalar
    depth: int
    s: tuple
    l: tuple
    residuals: tuple
    cascade: CascadeCert
    checks: tuple
    seed: int
    true_k_condition_verified: bool = False

    @property
    def status(self) -> str:
        ok = checks_status(self.checks) == "pass"
        return "pass" if ok and self.cascade.status == "pass" else "fail"

    def as_json(self) -> dict:
        return {
            "space": self.space.as_json(),
            "eps": scalar_to_json(self.eps),
            "k_est": scalar_to_json(self.k_est),
            "depth": self.depth,
            "s": list(self.s),
            "l": [v.as_json() for v in self.l],
            "residuals": [scalar_to_json(r) for r in self.residuals],
            "cascade": self.cascade.as_json(),
            "seed": self.seed,
            "true_k_condition_verified": self.true_k_condition_verified,
            "checks": ledger_summary(self.checks),
        }


def _bucket_key(value: Scalar, tol: Scalar) -> int:
    """Centered bucket index: value lies within tol/2 of key*tol."""
    return math.floor(value / tol + Fraction(1, 2))


def extract_stabilizing_subsequence(g1: Seq, g2: Seq, m: Sequence[int],
                                    stab_tol: Scalar = DEFAULT_STAB_TOL):
    """Sublist of m on which both g1 and g2 coordinates stabilize.

    Buckets of width stab_tol centered at integer multiples; the bucket
    with the most indices wins (ties to the smaller value).  The first
    two entries of m are dropped so the result starts strictly after
    m_2.  Returns (indices, L1, L2) with L the bucket midpoints.
    """
    if len(m) < 4:
        raise InsufficientStabilization(
            f"need at least 4 indices to stabilize, got {len(m)}")
    candidates = list(m[2:])

    def best_bucket(seq: Seq, idxs: list[int]):
        counts: dict[int, int] = {}
        for j in idxs:
            key = _bucket_key(seq.at(j), stab_tol)
            counts[key] = counts.get(key, 0) + 1
        best_key, best_count = None, -1
        for key in sorted(counts):
            if counts[key] > best_count:
                best_key, best_count = key, counts[key]
        kept = [j for j in idxs if _bucket_key(seq.at(j), stab_tol) == best_key]
        return best_key, kept

    k1, kept = best_bucket(g1, candidates)
    k2, kept = best_bucket(g2, kept)
    if len(kept) < 4:
        raise InsufficientStabilization(
            "no value bucket captures >= 4 indices: truncation too short "
            "for this fixture")
    mid = stab_tol
    l1 = k1 * mid
    l2 = k2 * mid
    return kept, l1, l2


# ---------------------------------------------------------------------------
# Mazur-style basic sequence
# ---------------------------------------------------------------------------

def _impose_zeros(w_basis: Sequence[Seq], coords: Sequence[int]) -> tuple:
    """RREF basis of {f in span(w_basis): f(j)=0 for j in coords}, for an
    RREF basis w_basis.

    Each j removes at most one dimension.  The last vector b* with
    b*(j) != 0 is dropped, after b*(j)^-1 b(j) b* is subtracted from each
    other vector b nonzero at j.  Those vectors come before b*, so b* is
    zero at their pivots and they keep them; b* is zero at every other
    pivot too, so the result is again an RREF basis: the RREF basis of
    the constrained subspace, which is unique.  The tail bounds are the
    ones Seq.sub gives; ``mazur_basic_sequence`` does not read them.
    """
    basis = list(w_basis)
    for j in coords:
        hits = [i for i, b in enumerate(basis) if b.coords[j - 1]]
        if not hits:
            continue
        star = basis.pop(hits[-1])
        pivot = star.coords[j - 1]
        for i in hits[:-1]:
            b = basis[i]
            basis[i] = b.sub(star.scale(b.coords[j - 1] / pivot))
    return tuple(basis)


def _scan_frame(w_basis: Sequence[Seq]) -> tuple:
    """``scan_rows(w_basis)`` plus each row's sup: (rows, D, cols, sups),
    sups[i] = max |rows[i]|, which is D |w_basis[i]|_inf."""
    rows, denom, cols = scan_rows(w_basis)
    return rows, denom, cols, [max(map(abs, row)) for row in rows]


def _above(a: int, b: int, c: int, d: int) -> bool:
    """a / b > c / d for b, d > 0, on integer cross products."""
    return a * d > c * b


def _step_row(y: list, c: int, row: list) -> list:
    """The scan row 4 y + c row."""
    return [4 * u + c * v for u, v in zip(y, row)]


def _ascend_ratio(w_basis: Sequence[Seq], s: int,
                  frame: Optional[tuple] = None) -> tuple:
    """Deterministic grid/coordinate ascent for max |f(s)| / |f|_inf over
    the span of w_basis.  Returns (best_ratio, best_vector).

    Every candidate is best + (n/4) w_i.  The search keeps only its scan
    row, 4 y + n q R_i for y = q D best (q a power of 4).  frame is
    ``_scan_frame(w_basis)``, built here when not given.  A candidate is
    read first at s and at the column j where the best row attains its
    sup.  Its ratio is at most |y(s)| / |y(j)|, so it is rejected unbuilt
    when y(s) = 0 or when that bound is not above the best ratio.  The
    best ratio is kept as the integer pair (|y(s)|, max |y|), compared by
    ``_above``.  The winner is then rebuilt by replaying its steps with
    Seq.add and Seq.scale, so its coordinates and tail bound are what
    those operations give.
    """
    rows, denom, cols, sups = frame or _scan_frame(w_basis)
    p = bisect_left(cols, s - 1)
    if p == len(cols) or cols[p] != s - 1:  # s is zero on the whole span
        return Fraction(0), w_basis[0]
    ranked = sorted(range(len(w_basis)),  # float(w_i(s)), rounded once
                    key=lambda i: (-abs(rows[i][p] / denom), i))
    base, path = ranked[0], ()
    best_y, best_q = rows[base], 1
    best = (abs(best_y[p]), sups[base]) if sups[base] else (0, 1)
    best_j = list(map(abs, best_y)).index(sups[base])

    def improves(y: list, q: int, i: int, n: int) -> bool:
        """Whether the candidate 4 y + n q R_i beats the best ratio; if
        so, it becomes the best."""
        nonlocal best, best_y, best_q, best_j
        row, c = rows[i], n * q
        y_s = abs(4 * y[p] + c * row[p])
        if not y_s:
            return False
        y_j = abs(4 * y[best_j] + c * row[best_j])
        if y_j and not _above(y_s, y_j, *best):
            return False
        cand = _step_row(y, c, row)
        mags = list(map(abs, cand))
        sup = max(mags)
        if not _above(y_s, sup, *best):
            return False
        best, best_j = (y_s, sup), mags.index(sup)
        best_y, best_q = cand, 4 * q
        return True

    # pairwise combinations among the most s-active directions
    for a_pos in range(min(3, len(ranked))):
        for b_pos in range(a_pos + 1, min(4, len(ranked))):
            ia, ib = ranked[a_pos], ranked[b_pos]
            for n in _TICKS:
                if improves(rows[ia], 1, ib, n):
                    base, path = ia, ((ib, n),)
    for _ in range(_ASCENT_PASSES):
        improved = False
        for i in range(len(w_basis)):
            for n in _TICKS:
                if improves(best_y, best_q, i, n):
                    path += ((i, n),)
                    improved = True
        if not improved:
            break
    best_vec = w_basis[base]
    for i, n in path:
        best_vec = best_vec.add(w_basis[i].scale(Fraction(n, 4)))
    return Fraction(*best), best_vec


def _halving_step(w_basis: Sequence[Seq], start: int,
                  skip: set) -> Optional[tuple]:
    """(s, w) for the least coordinate s >= start outside skip where some
    w in the span of the RREF basis w_basis has |w(s)| >= |w|_inf / 2, or
    None.

    The search reads one scan frame: it visits only the frame's columns,
    since every working vector is zero off them.  A coordinate whose
    column sum is below 1/2 is skipped, since |c_i| <= |w|_inf at RREF
    pivots bounds every |w(s)| by that sum times |w|_inf.  Then the best
    basis vector is tried, and last the ratio ascent on the same frame.
    """
    frame = _scan_frame(w_basis)
    rows, denom, cols, sups = frame
    for p in range(bisect_left(cols, start - 1), len(cols)):
        s = cols[p] + 1
        if s in skip:
            continue
        mags = [abs(row[p]) for row in rows]  # D |w_i(s)|
        if 2 * sum(mags) < denom:
            continue
        best_i = None
        for i, (mag, sup) in enumerate(zip(mags, sups)):
            if sup and (best_i is None or _above(mag, sup, mags[best_i],
                                                 sups[best_i])):
                best_i = i
        if 2 * mags[best_i] >= sups[best_i]:
            return s, w_basis[best_i]
        r, vec = _ascend_ratio(w_basis, s, frame)
        if 2 * r >= 1:
            return s, vec
    return None


def sample_basis_inequality(f_list: Sequence[Seq], eps_seq: Sequence,
                            depth: int, seed: int, samples: int) -> dict:
    """Worst sampled margin per prefix pair (n, m), n < m:
    |sum^m a f| * prod_{i=n..m-1}(1+eps_i) - |sum^n a f|.

    Uses its own seeded rng (independent of construction draws) so a
    verifier can regenerate the identical sample stream.  The
    coefficients are k/16, so a prefix sup is Y / (16 D) for the integer
    Y = max|.| of a scan row.  With the products
    c_i = prod_{j<=i}(1+eps_j) = a_i / b_i of the Fraction eps, the margin
    of (n, m) is (Y_m a_m b_n - Y_n a_n b_m) / (16 D a_n b_m): the least
    numerator is kept, and one Fraction is built per pair.
    """
    rng = random.Random(seed ^ 0x5EED)
    cumprod = [Fraction(1)]  # cumprod[i] = prod_{j<=i} (1+eps_j), 1-based eps
    for i in range(1, depth):
        cumprod.append(cumprod[-1] * (1 + eps_seq[i - 1]))
    rows, denom, _ = scan_rows(f_list[:depth])
    pairs = [(n_lo, m_hi) for m_hi in range(2, depth + 1)
             for n_lo in range(1, m_hi)]
    terms = [(cumprod[m - 1].numerator * cumprod[n - 1].denominator,
              cumprod[n - 1].numerator * cumprod[m - 1].denominator)
             for n, m in pairs]
    worst: list = []  # per pair, the least margin numerator so far
    for _ in range(samples):
        coeffs = [rng.randint(-16, 16) for _ in range(depth)]
        if all(c == 0 for c in coeffs):
            continue
        sups = scan_prefix_sups(rows, coeffs)
        row = [sups[m - 1] * u - sups[n - 1] * w
               for (n, m), (u, w) in zip(pairs, terms)]
        worst = list(map(min, worst, row)) if worst else row
    return {pair: Fraction(v, 16 * denom * w)
            for pair, v, (_, w) in zip(pairs, worst, terms)}


def mazur_checks(f: Sequence[Seq], n: Sequence[int], eps_seq: Sequence,
                 seed: int, samples: int) -> list:
    """The Mazur ledger: f_k(n_k) = 1, 1 <= |f_k| <= 2, f_k(n_i) = 0 for
    i < k, then the worst sampled basis-inequality margin per prefix
    pair (n, m):
    |sum_{k<=m} a_k f_k| * prod_{i=n..m-1} (1+eps_i) >= |sum_{k<=n} a_k f_k|.
    """
    checks = []
    for k, (f_k, n_k) in enumerate(zip(f, n, strict=True), start=1):
        sup_fk = norm(f_k, _SUP)
        checks.append(make_check("diag_one", [k], f_k.at(n_k) - 1, "abs_le",
                                 0, _TOL))
        checks.append(make_check("norm_window_lower", [k], sup_fk, "ge", 1,
                                 _TOL))
        checks.append(make_check("norm_window_upper", [k], sup_fk, "le", 2,
                                 _TOL))
        for i in range(1, k):
            checks.append(make_check("triangular_zero", [k, i],
                                     f_k.at(n[i - 1]), "abs_le", 0, _TOL))
    margins = sample_basis_inequality(f, eps_seq, len(f), seed, samples)
    for (n_lo, m_hi), margin in sorted(margins.items()):
        checks.append(make_check("basis_inequality_margin", [n_lo, m_hi],
                                 margin, "ge", 0, _TOL))
    return checks


def _first_max(y: list, cols: Sequence[int]) -> Optional[tuple]:
    """(1-based coordinate, sign) of the first maximal |entry| of a scan row
    over the columns cols, or None when the row is zero."""
    mags = [abs(v) for v in y]
    sup = max(mags)
    if sup == 0:
        return None
    p = mags.index(sup)
    return cols[p] + 1, 1 if y[p] >= 0 else -1


def _net_functionals(rows: Sequence[list], cols: Sequence[int],
                     rng: random.Random):
    """Yield the norming functional of each point of a coefficient net over
    the span of the scan rows: the (coordinate, sign) of the first maximal
    coordinate of the point's combination, or None when it is zero.

    The points, in order: the axis points +-e_i; the newest direction
    against each older one, e_i + m r e_d for m in +-{1..q} and the grid
    step r = NET_RESOLUTION = 1/q; then, when d > 1, 8 seeded corners with
    coefficients +-1 and 8 seeded points with coefficients k/8 for k in
    -8..8, skipping all-zero ones.  Each point is evaluated on a positive
    multiple of its combination, so it stays on integers: q e_i + m e_d,
    and k for k/8.  The pair rows are built from precomputed parts, the
    leading row_i term once per i and m row_d once per m.
    """
    d = len(rows)
    for row in rows:  # -e_i has e_i's first maximum, with the sign flipped
        point = _first_max(row, cols)
        yield point
        yield None if point is None else (point[0], -point[1])
    q = NET_RESOLUTION.denominator
    steps = [[m * v for v in rows[-1]] for m in range(-q, q + 1) if m]
    for row in rows[:-1]:
        head = [q * v for v in row]
        for step in steps:
            yield _first_max([a + b for a, b in zip(head, step)], cols)
    extras = 8 if d > 1 else 0
    for _ in range(extras):
        coeffs = [rng.randint(0, 1) * 2 - 1 for _ in range(d)]
        yield _first_max(scan_combine(rows, coeffs), cols)
    for _ in range(extras):
        coeffs = [rng.randint(-8, 8) for _ in range(d)]
        if any(coeffs):
            yield _first_max(scan_combine(rows, coeffs), cols)


def mazur_basic_sequence(subspace: Subspace, eps_seq: Sequence, depth: int,
                         seed: int = 0, samples: int = 200) -> MazurCert:
    """Unit-diagonal basic family in a sup-norm subspace.

    Step k scans one scan frame of the working subspace for the minimal
    coordinate where some working-subspace vector carries at least half
    its sup norm (``_halving_step``: feasibility via a rigorous
    per-coordinate upper bound, then deterministic ascent),
    normalizes the witness to diagonal 1, and shrinks the working
    subspace by the new coordinate plus the argmax coordinates of a
    deterministic net over the current span.  The recorded basis
    inequality is sampled afterwards; failure raises NetTooCoarse.
    Every eps becomes a Fraction, exactly (a float is a rational).

    The working subspace stays an RREF basis, updated at each step for
    the constraints the step added (``_impose_zeros``).  The tail bound
    of f_k is sum_i |f_k(P_i)| tb(b_i) over the fixture's reduced basis
    b_i and its pivots P_i.  It holds because f_k = sum_i f_k(P_i) b_i,
    and it depends on f_k alone, not on the steps that reached it.
    """
    if not subspace.ambient.is_sup:
        raise ConfigError("mazur construction needs a sup-norm ambient (linf/c0)")
    eps_seq = [Fraction(e) for e in eps_seq]
    if not eps_seq or eps_seq[0] != 1:
        raise ConfigError("eps_seq: the first entry must equal 1")
    for i, e in enumerate(eps_seq[1:], start=2):
        if not 0 < e < 1:
            raise ConfigError(f"eps_seq: entry {i} must lie in (0, 1), got {e}")
    if len(eps_seq) < max(1, depth - 1):
        raise ConfigError(
            f"eps_seq needs at least depth-1 = {depth - 1} entries")
    if depth < 1:
        raise ConfigError("depth must satisfy depth >= 1")
    t_len = subspace.truncation
    rng = random.Random(seed)
    tails = [(p - 1, b.tail_bound)  # (0-based pivot, tail) of each tailed b_i
             for p, b in zip(subspace.pivots, subspace.reduced_basis)
             if b.tail_bound]

    n_list: list[int] = []
    f_list: list[Seq] = []
    net_sizes: list[int] = []
    functional_log: list[tuple] = []
    constraints: list[int] = []
    constraint_set: set[int] = set()
    w_basis = subspace.reduced_basis  # RREF: pivot coefficients are read off

    for k in range(1, depth + 1):
        if not w_basis:
            raise DimensionExhausted(
                f"working subspace exhausted after {k - 1} of {depth} steps "
                f"({len(constraints)} zero constraints)")
        start = n_list[-1] + 1 if n_list else 1
        found = _halving_step(w_basis, start, constraint_set)
        if found is None:
            raise SearchExhausted(
                f"no coordinate in [{start}, {t_len}] admits a working-subspace "
                "vector carrying half its sup norm; truncation too small")
        n_k, witness = found
        f_k = witness.scale(Fraction(1) / witness.at(n_k))
        f_k = f_k.with_tail(sum((abs(f_k.coords[p]) * tb for p, tb in tails),
                                Fraction(0)))
        n_list.append(n_k)
        f_list.append(f_k)
        done = len(constraints)
        constraints.append(n_k)
        constraint_set.add(n_k)
        step_functionals: list[tuple] = []
        net_count = 0
        if k >= 2:
            rows, _, cols = scan_rows(f_list)
            for point in _net_functionals(rows, cols, rng):
                net_count += 1
                if point is None:
                    continue
                step_functionals.append(point)
                best_j = point[0]
                if best_j not in constraint_set:
                    constraints.append(best_j)
                    constraint_set.add(best_j)
        net_sizes.append(net_count)
        functional_log.append(tuple(sorted(set(step_functionals))))
        w_basis = _impose_zeros(w_basis, constraints[done:])

    checks = mazur_checks(f_list, n_list, eps_seq, seed, samples)
    for check in checks:
        if check.key == "basis_inequality_margin" and not check.passed:
            n_lo, m_hi = check.where
            raise NetTooCoarse(
                f"sampled basis inequality failed for prefix pair "
                f"({n_lo}, {m_hi}): margin {float(check.lhs):.3g}; the net "
                "is too coarse")

    return MazurCert(space=subspace.ambient, eps_seq=tuple(eps_seq),
                     n=tuple(n_list), f=tuple(f_list),
                     net_sizes=tuple(net_sizes),
                     functionals=tuple(functional_log),
                     zeroed_coords=tuple(constraints), checks=tuple(checks),
                     seed=seed, samples=samples)


# ---------------------------------------------------------------------------
# Four-case cascade
# ---------------------------------------------------------------------------

CASE_BOUNDS = {1: 6, 2: 2, 3: 8, 4: 8}


def cascade_level(f_by_index: dict, pool: Sequence[int],
                  stab_tol: Scalar) -> tuple:
    """One cascade level on the index pool m: (case, h, t, kept, L1, L2).

    g1 = f_{m1} - f_{m1}(m2) f_{m2} and g2 = f_{m2} are stabilized along
    the pool (kept is the stabilized remainder, L1/L2 the limits), and
    the case is fired:
      L1 = 0            -> h = g1              (bound 6)
      L1 != 0, L2 = 0   -> h = g2              (bound 2)
      |L1| <= |L2|      -> h = g1 - (L1/L2) g2 (bound 8)
      |L2| <  |L1|      -> h = g2 - (L2/L1) g1 (bound 8)
    "= 0" means |L| <= stab_tol; exact ties take the third case.  The
    diagonal index t is m1 or m2, whichever coordinate equals 1.
    """
    m1, m2 = pool[0], pool[1]
    f1, f2 = f_by_index[m1], f_by_index[m2]
    g1 = f1.sub(f2.scale(f1.at(m2)))
    g2 = f2
    kept, l1, l2 = extract_stabilizing_subsequence(g1, g2, pool, stab_tol)
    if abs(l1) <= stab_tol:
        return 1, g1, m1, kept, l1, l2
    if abs(l2) <= stab_tol:
        return 2, g2, m2, kept, l1, l2
    if abs(l1) <= abs(l2):
        return 3, g1.sub(g2.scale(l1 / l2)), m1, kept, l1, l2
    return 4, g2.sub(g1.scale(l2 / l1)), m2, kept, l1, l2


def cascade_checks(h: Sequence[Seq], t: Sequence[int], cases: Sequence[int],
                   stab_tol: Scalar) -> list:
    """The cascade ledger: per level |h_k| within its case bound,
    h_k(t_k) = 1 and h_k(t_j) = 0 for j < k; then the post-horizon
    envelope, each h_k small at every later diagonal."""
    checks = []
    for level, (h_k, t_k, case) in enumerate(zip(h, t, cases, strict=True),
                                             start=1):
        checks.append(make_check("case_bound", [level, case], norm(h_k, _SUP),
                                 "le", CASE_BOUNDS[case], _TOL))
        checks.append(make_check("cascade_diag_one", [level],
                                 h_k.at(t_k) - 1, "abs_le", 0, _TOL))
        for j, t_j in enumerate(t[:level - 1], start=1):
            checks.append(make_check("cascade_prefix_zero", [level, j],
                                     h_k.at(t_j), "abs_le", 0, _TOL))
    for k, h_k in enumerate(h, start=1):
        later = t[k:]
        if later:
            envelope = max(abs(h_k.at(t_j)) for t_j in later)
            checks.append(make_check("cascade_envelope", [k], envelope, "le",
                                     2 * stab_tol, _TOL))
    return checks


def build_cascade(source: MazurCert, m: Sequence[int], depth: int,
                  stab_tol: Scalar = DEFAULT_STAB_TOL,
                  min_depth: Optional[int] = None) -> CascadeCert:
    """Build the cascade h_1..h_depth from the Mazur family along m, one
    ``cascade_level`` per level on the pool the previous level kept.

    Levels beyond min_depth (default: depth) are best-effort: bucket
    restriction can consume indices faster than two per level, so the
    cascade stops early instead of failing once the floor is reached.
    """
    if not isinstance(stab_tol, Fraction):
        stab_tol = Fraction(str(stab_tol))
    if min_depth is None:
        min_depth = depth
    n_set = set(source.n)
    for idx in m:
        if idx not in n_set:
            raise ConfigError(f"cascade index {idx} is not a Mazur index")
    if list(m) != sorted(set(m)):
        raise ConfigError("cascade indices must be strictly increasing")
    f_by_index = {idx: vec for idx, vec in zip(source.n, source.f)}

    cur = list(m)
    t_list: list[int] = []
    h_list: list[Seq] = []
    trace: list[dict] = []
    limits: list[dict] = []
    for level in range(1, depth + 1):
        if len(cur) < 4:
            if level > min_depth:
                break
            raise InsufficientStabilization(
                f"cascade level {level}: only {len(cur)} indices remain")
        try:
            case, h, t_idx, kept, l1, l2 = cascade_level(f_by_index, cur,
                                                         stab_tol)
        except InsufficientStabilization:
            if level > min_depth:
                break
            raise
        bound = CASE_BOUNDS[case]
        sup_h = norm(h, _SUP)
        if sup_h > bound:
            raise CaseBoundViolated(
                f"cascade level {level} case {case}: |h| = {float(sup_h):.6g} "
                f"exceeds bound {bound}; stab_tol too loose")
        t_list.append(t_idx)
        h_list.append(h)
        trace.append({"case": case, "L1": l1, "L2": l2, "bound": bound,
                      "t": t_idx})
        limits.append({"L1": l1, "L2": l2, "stab_tol": stab_tol})
        cur = kept

    checks = cascade_checks(h_list, t_list, [c["case"] for c in trace],
                            stab_tol)
    return CascadeCert(space=source.space, m=tuple(m), t=tuple(t_list),
                       h=tuple(h_list), case_trace=tuple(trace),
                       limit_estimates=tuple(limits), stab_tol=stab_tol,
                       final_pool=tuple(cur), source=source,
                       checks=tuple(checks))


# ---------------------------------------------------------------------------
# Final zeroing under the sup norm
# ---------------------------------------------------------------------------

def sup_zero_recursion(h_by_t: dict, s: Sequence[int]) -> list:
    """Per k, the stages h_{s_k} = l_k^0, ..., l_k^{d-k} = l_k of the
    correction l <- l - l(s_j) h_{s_j} over the later markers s_j, j > k."""
    out = []
    for k, s_k in enumerate(s, start=1):
        cur = h_by_t[s_k]
        path = [cur]
        for s_j in s[k:]:
            cur = cur.sub(h_by_t[s_j].scale(cur.at(s_j)))
            path.append(cur)
        out.append(path)
    return out


def sup_zeroing_checks(h_by_t: dict, s: Sequence[int], stages: Sequence[list],
                       l: Sequence[Seq], eps: Scalar, k_est: Scalar) -> list:
    """The final zeroing ledger: greedy selection sums; per k, step norms
    and residual |l_k - h_{s_k}| of the recursion stages, then |l_k| <= 9,
    l_k(s_k) = 1 and l_k(s_j) = 0 (j != k) on l; then the normalized gate
    sum residual_k / |h_{s_k}| <= eps and 2 K_est eps < 1.

    The emitter passes the last stages as l, verify the stored l, so a
    tampered coordinate is named by its zero_pattern entry."""
    checks = []
    for n_sel in range(1, len(s)):
        total = sum(abs(h_by_t[s_i].at(s[n_sel])) for s_i in s[:n_sel])
        checks.append(make_check("selection_sum", [n_sel + 1], total, "le",
                                 eps / (2 ** (n_sel + 1) * 8), _TOL))
    delta = Fraction(0)
    for k, (s_k, path, l_k) in enumerate(zip(s, stages, l, strict=True),
                                         start=1):
        for step, (cur, nxt) in enumerate(zip(path, path[1:]), start=1):
            checks.append(make_check("step_norm", [k, step],
                                     norm(nxt.sub(cur), _SUP),
                                     "le", eps / 2 ** (k + step), _TOL))
        res = norm(path[-1].sub(path[0]), _SUP)
        delta = delta + res / norm(path[0], _SUP)
        checks.append(make_check("residual", [k], res, "le", eps / 2 ** k,
                                 _TOL))
        checks.append(make_check("sup_bound", [k], norm(l_k, _SUP), "le", 9,
                                 _TOL))
        checks.append(make_check("diag_one", [k], l_k.at(s_k) - 1, "abs_le",
                                 0, _TOL))
        for j, s_j in enumerate(s, start=1):
            if j != k:
                checks.append(make_check("zero_pattern", [k, j], l_k.at(s_j),
                                         "abs_le", 0, _TOL))
    checks.append(make_check("normalized_delta_le_eps", [], delta, "le", eps,
                             _TOL))
    checks.append(make_check("perturbation_gate", [], 2 * k_est * eps, "lt",
                             1, 0))
    return checks


def construct_sup_zeroed_sequence(subspace: Subspace, depth: int, *,
                                  stab_tol: Scalar = DEFAULT_STAB_TOL,
                                  seed: int = 0,
                                  samples: int = 200,
                                  mazur_cert: Optional[MazurCert] = None,
                                  m_indices: Optional[Sequence[int]] = None
                                  ) -> SupZeroingCert:
    """End-to-end sup-norm pipeline: Mazur family, cascade, greedy marker
    selection, and the correction recursion to unit-diagonal vectors
    vanishing at every other selected marker, with |l| <= 9.

    eps is fixed to min(1/(4*K_est), 1/64) where K_est is a sampled
    basis-constant lower bound for the cascade family: the true-K
    admissibility condition eps < 1/(2K) cannot be verified from a
    lower bound, and the certificate says so.
    """
    if not subspace.ambient.is_sup:
        raise ConfigError("sup-norm pipeline needs a linf/c0 ambient")
    if depth < 1:
        raise ConfigError("depth must satisfy depth >= 1")
    if subspace.truncation < 4 * depth:
        raise ConfigError(
            f"truncation must satisfy T >= 4*depth "
            f"(T={subspace.truncation}, depth={depth})")
    if not isinstance(stab_tol, Fraction):
        stab_tol = Fraction(str(stab_tol))

    cascade_depth = depth + CASCADE_PAD
    if mazur_cert is None:
        mazur_depth = 2 * cascade_depth + MAZUR_PAD
        mazur_cert = mazur_basic_sequence(
            subspace, default_eps_seq(mazur_depth), mazur_depth,
            seed=seed, samples=samples)
    m = list(m_indices) if m_indices is not None else list(mazur_cert.n)
    # each level consumes 2 indices and must leave >= 4 stabilized ones
    cascade_depth = min(cascade_depth, max(0, (len(m) - 4) // 2))
    if cascade_depth < depth:
        raise SearchExhausted(
            f"only {cascade_depth} cascade levels possible from {len(m)} "
            f"indices; need at least depth = {depth}")
    cascade = build_cascade(mazur_cert, m, cascade_depth, stab_tol=stab_tol,
                            min_depth=depth)

    k_est = basis_constant_lower_bound(cascade.h, subspace.ambient,
                                       trials=64, seed=seed)
    if k_est < 1:
        k_est = Fraction(1)
    eps = min(1 / (4 * k_est), Fraction(1, 64))

    h_by_t = {tj: h for tj, h in zip(cascade.t, cascade.h)}
    t_all = list(cascade.t)
    s_list = [t_all[0]]
    pos = 1
    while len(s_list) < depth:
        n_sel = len(s_list)
        budget = eps / (2 ** (n_sel + 1) * 8)
        chosen = None
        while pos < len(t_all):
            cand = t_all[pos]
            pos += 1
            if sum(abs(h_by_t[sj].at(cand)) for sj in s_list) <= budget:
                chosen = cand
                break
        if chosen is None:
            raise SearchExhausted(
                f"no cascade index beyond s_{n_sel} keeps the selection sum "
                f"<= eps/(2^{n_sel + 1} * 8); deepen the cascade or loosen "
                "stab_tol")
        s_list.append(chosen)

    stages = sup_zero_recursion(h_by_t, s_list)
    l_list = [path[-1] for path in stages]
    checks = sup_zeroing_checks(h_by_t, s_list, stages, l_list, eps, k_est)
    residuals = [c.lhs for c in checks if c.key == "residual"]

    return SupZeroingCert(space=subspace.ambient, eps=eps, k_est=k_est,
                          depth=depth, s=tuple(s_list), l=tuple(l_list),
                          residuals=tuple(residuals), cascade=cascade,
                          checks=tuple(checks), seed=seed)
