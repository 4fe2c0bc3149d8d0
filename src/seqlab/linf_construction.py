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
evaluations at a maximal coordinate, so each net point contributes one
zeroed coordinate to the shrinking working subspace.

Scans that read one number from each combination and drop it (the net,
the ratio ascent, the sampled basis inequality) run in exact mode on
integer numerators over one common denominator (``core.scan_rows``);
only the vectors a construction keeps become Fractions.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .certificates import Check, checks_status, make_check
from .core import (
    AmbientSpace,
    Seq,
    Subspace,
    combine,
    norm,
    scan_combine,
    scan_prefix_sups,
    scan_rows,
)
from .errors import (
    CaseBoundViolated,
    ConfigError,
    ConstructionFailure,
    DimensionExhausted,
    InsufficientStabilization,
    NetTooCoarse,
    SearchExhausted,
    ZeroVector,
)
from .lp_construction import basis_constant_lower_bound
from .scalar import Scalar, scalar_to_json, zero_tol

DEFAULT_STAB_TOL = Fraction(1, 10 ** 6)


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
    eta: float
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
            "eta": self.eta,
            "seed": self.seed,
            "samples": self.samples,
            "checks": [c.as_json() for c in self.checks],
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
    eta: float

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
            "eta": self.eta,
            "checks": [c.as_json() for c in self.checks],
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
    eta: float
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
            "eta": self.eta,
            "seed": self.seed,
            "true_k_condition_verified": self.true_k_condition_verified,
            "checks": [c.as_json() for c in self.checks],
        }


def halving_support(f: Seq, eta: float = 1e-9) -> int:
    """Minimal 1-based s with |f(s)| >= |f|_inf / 2 (eta slack in float mode)."""
    space = AmbientSpace.linf()
    sup = norm(f, space)
    tol = zero_tol(f.exact, eta)
    if sup <= tol:
        raise ZeroVector("halving_support of a (numerically) zero vector")
    half = sup / 2
    slack = tol
    for j in range(1, len(f) + 1):
        if abs(f.at(j)) >= half - slack:
            return j
    raise ConstructionFailure("no coordinate carries half the sup norm")


def _bucket_key(value: Scalar, tol: Scalar) -> int:
    """Centered bucket index: value lies within tol/2 of key*tol."""
    if isinstance(value, Fraction) and isinstance(tol, Fraction):
        return math.floor(value / tol + Fraction(1, 2))
    return math.floor(float(value) / float(tol) + 0.5)


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

def _sup(v: Seq) -> Scalar:
    return max((abs(c) for c in v.coords),
               default=Fraction(0) if v.exact else 0.0)


def _constrained_basis(subspace: Subspace, constraints: Sequence[int], tol):
    """RREF basis (and 1-based pivots) of {f in span(V): f(j)=0 for j in constraints}."""
    basis = subspace.reduced_basis
    matrix = [[b.at(j) for b in basis] for j in constraints]
    coeff_rows = linalg.nullspace_basis(matrix, len(basis), tol)
    if not coeff_rows:
        return (), ()
    vs = [combine(basis, c) for c in coeff_rows]
    rows = [list(v.coords) for v in vs]
    tails = [v.tail_bound for v in vs]
    rows, tails, pivots = linalg.rref(rows, tol, tails)
    exact = subspace.exact
    out = tuple(Seq(tuple(r), exact, tb) for r, tb in zip(rows, tails))
    return out, tuple(pc + 1 for pc in pivots)


def _scan_ratio(y: list, s: int, exact: bool) -> Scalar:
    """|f(s)| / |f|_inf read off a scan row y of f (any positive multiple)."""
    sup = max(map(abs, y))
    if sup == 0:
        return Fraction(0) if exact else 0.0
    return Fraction(abs(y[s - 1]), sup) if exact else abs(y[s - 1]) / sup


def _ascend_ratio(w_basis: Sequence[Seq], s: int, exact: bool,
                  passes: int = 2) -> tuple:
    """Deterministic grid/coordinate ascent for max |f(s)| / |f|_inf over
    the span of w_basis.  Returns (best_ratio, best_vector).

    Every candidate is best + (n/4) w_i.  The search keeps only its scan
    row: y + (n/4) R_i in float mode and, in exact mode, 4 y + n q R_i
    for y = q D best (q a power of 4).  The winner is then rebuilt by
    replaying its steps with Seq.add and Seq.scale, so its coordinates
    and tail bound are what those operations give.
    """
    rows, _ = scan_rows(w_basis)

    def step(y, q, i, n):
        if exact:
            return scan_combine([y, rows[i]], [4, n * q]), 4 * q
        return scan_combine([y, rows[i]], [1, n / 4.0]), 1

    ranked = sorted(range(len(w_basis)),
                    key=lambda i: (-abs(float(w_basis[i].at(s))), i))
    ticks = (-4, -3, -2, -1, 1, 2, 3, 4)
    base, path = ranked[0], ()
    best_y, best_q = rows[base], 1
    best = _scan_ratio(best_y, s, exact)
    # pairwise combinations among the most s-active directions
    for a_pos in range(min(3, len(ranked))):
        for b_pos in range(a_pos + 1, min(4, len(ranked))):
            ia, ib = ranked[a_pos], ranked[b_pos]
            for n in ticks:
                y, q = step(rows[ia], 1, ib, n)
                r = _scan_ratio(y, s, exact)
                if r > best:
                    best, best_y, best_q = r, y, q
                    base, path = ia, ((ib, n),)
    for _ in range(passes):
        improved = False
        for i in range(len(w_basis)):
            for n in ticks:
                y, q = step(best_y, best_q, i, n)
                r = _scan_ratio(y, s, exact)
                if r > best:
                    best, best_y, best_q = r, y, q
                    path += ((i, n),)
                    improved = True
        if not improved:
            break
    best_vec = w_basis[base]
    for i, n in path:
        best_vec = best_vec.add(
            w_basis[i].scale(Fraction(n, 4) if exact else n / 4.0))
    return best, best_vec


def sample_basis_inequality(f_list: Sequence[Seq], eps_seq: Sequence,
                            depth: int, exact: bool, seed: int,
                            samples: int) -> dict:
    """Worst sampled margin per prefix pair (n, m), n < m:
    |sum^m a f| * prod_{i=n..m-1}(1+eps_i) - |sum^n a f|.

    Uses its own seeded rng (independent of construction draws) so a
    verifier can regenerate the identical sample stream.  Exact-mode
    coefficients are k/16, so a prefix sup is max|Y| / (16 D) on the
    scan rows.
    """
    rng = random.Random(seed ^ 0x5EED)
    one = Fraction(1) if exact else 1.0
    cumprod = [one]  # cumprod[i] = prod_{j<=i} (1+eps_j), 1-based eps
    for i in range(1, depth):
        cumprod.append(cumprod[-1] * (1 + eps_seq[i - 1]))
    rows, denom = scan_rows(f_list[:depth])
    worst_by_pair: dict[tuple, Scalar] = {}
    for _ in range(samples):
        if exact:
            coeffs = [rng.randint(-16, 16) for _ in range(depth)]
        else:
            coeffs = [rng.uniform(-1.0, 1.0) for _ in range(depth)]
        if all(c == 0 for c in coeffs):
            continue
        prefix_norms = scan_prefix_sups(rows, coeffs)
        if exact:
            prefix_norms = [Fraction(v, 16 * denom) for v in prefix_norms]
        for m_hi in range(2, depth + 1):
            for n_lo in range(1, m_hi):
                fac = cumprod[m_hi - 1] / cumprod[n_lo - 1]
                margin = prefix_norms[m_hi - 1] * fac - prefix_norms[n_lo - 1]
                key = (n_lo, m_hi)
                if key not in worst_by_pair or margin < worst_by_pair[key]:
                    worst_by_pair[key] = margin
    return worst_by_pair


def _net_points(f_list: Sequence[Seq], resolution, exact: bool,
                rng: random.Random) -> list:
    """Deterministic coefficient grid over the current span, used only to
    collect argmax coordinates (= kernels of sup-norm norming functionals)."""
    d = len(f_list)
    one = Fraction(1) if exact else 1.0
    pts: list[list] = []
    # axis points
    for i in range(d):
        for sgn in (one, -one):
            a = [one * 0] * d
            a[i] = sgn
            pts.append(a)
    # newest direction against each older one, graded by the grid
    step = Fraction(resolution) if exact else float(resolution)
    ticks: list = []
    v = -1 * one
    while v <= one:
        if v != 0:
            ticks.append(v)
        v = v + step
    for i in range(d - 1):
        for tval in ticks:
            a = [one * 0] * d
            a[i] = one
            a[d - 1] = tval
            pts.append(a)
    # seeded corners and sphere extras (dense points are the cost driver;
    # a handful suffices to seed the argmax collector)
    extras = 8 if d > 1 else 0
    for _ in range(extras):
        a = [one * (rng.randint(0, 1) * 2 - 1) for _ in range(d)]
        pts.append(a)
    for _ in range(extras):
        if exact:
            a = [Fraction(rng.randint(-8, 8), 8) for _ in range(d)]
        else:
            a = [rng.uniform(-1.0, 1.0) for _ in range(d)]
        if any(c != 0 for c in a):
            pts.append(a)
    return pts


def mazur_basic_sequence(subspace: Subspace, eps_seq: Sequence, depth: int,
                         net_resolution=Fraction(1, 4),
                         eta: Optional[float] = None, seed: int = 0,
                         samples: int = 200) -> MazurCert:
    """Unit-diagonal basic family in a sup-norm subspace.

    Step k scans for the minimal coordinate where some working-subspace
    vector carries at least half its sup norm (feasibility via a
    rigorous per-coordinate upper bound, then deterministic ascent),
    normalizes the witness to diagonal 1, and shrinks the working
    subspace by the new coordinate plus the argmax coordinates of a
    deterministic net over the current span.  The recorded basis
    inequality is sampled afterwards; failure raises NetTooCoarse.
    """
    if not subspace.ambient.is_sup:
        raise ConfigError("mazur construction needs a sup-norm ambient (linf/c0)")
    eps_seq = [Fraction(e) if subspace.exact and not isinstance(e, float) else e
               for e in eps_seq]
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
    exact = subspace.exact
    eta_v = subspace.eta if eta is None else eta
    tol = zero_tol(exact, eta_v)
    t_len = subspace.truncation
    rng = random.Random(seed)
    half = Fraction(1, 2) if exact else 0.5
    accept_slack = tol if not exact else Fraction(0)

    checks: list[Check] = []
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
        sups = [_sup(b) for b in w_basis]
        start = n_list[-1] + 1 if n_list else 1
        found = None
        for s in range(start, t_len + 1):
            if s in constraint_set:
                continue
            col = [b.at(s) for b in w_basis]
            upper = sum(abs(v) for v in col)  # |c_i| <= |f|_inf at RREF pivots
            if upper < half:
                continue
            best_i, best_r = None, -1
            for i, v in enumerate(col):
                if sups[i] == 0:
                    continue
                r = abs(v) / sups[i]
                if r > best_r:
                    best_r, best_i = r, i
            if best_r >= half - accept_slack:
                found = (s, w_basis[best_i])
                break
            r, vec = _ascend_ratio(w_basis, s, exact)
            if r >= half - accept_slack:
                found = (s, vec)
                break
        if found is None:
            raise SearchExhausted(
                f"no coordinate in [{start}, {t_len}] admits a working-subspace "
                "vector carrying half its sup norm; truncation too small")
        n_k, witness = found
        pivot_val = witness.at(n_k)
        f_k = witness.scale((Fraction(1) if exact else 1.0) / pivot_val)
        n_list.append(n_k)
        f_list.append(f_k)
        sup_fk = _sup(f_k)
        checks.append(make_check("diag_one", [k], f_k.at(n_k) - 1, "abs_le", 0, tol))
        checks.append(make_check("norm_window_lower", [k], sup_fk, "ge", 1, tol))
        checks.append(make_check("norm_window_upper", [k], sup_fk, "le", 2,
                                 tol if exact else 4 * eta_v))
        for i in range(1, k):
            checks.append(make_check("triangular_zero", [k, i],
                                     f_k.at(n_list[i - 1]), "abs_le", 0, tol))
        constraints.append(n_k)
        constraint_set.add(n_k)
        step_functionals: list[tuple] = []
        net_count = 0
        if k >= 2:
            pts = _net_points(f_list, net_resolution, exact, rng)
            net_count = len(pts)
            rows, _ = scan_rows(f_list)
            for a in pts:
                y = scan_combine(rows, a)
                mags = [abs(v) for v in y]
                sup_y = max(mags)
                if sup_y == 0:
                    continue
                best_j = mags.index(sup_y) + 1
                sgn = 1 if y[best_j - 1] >= 0 else -1
                step_functionals.append((best_j, sgn))
                if best_j not in constraint_set:
                    constraints.append(best_j)
                    constraint_set.add(best_j)
        net_sizes.append(net_count)
        functional_log.append(tuple(sorted(set(step_functionals))))
        w_basis, _ = _constrained_basis(subspace, constraints, tol)

    # sampled basis inequality:
    # |sum_{k<=m} a_k f_k| * prod_{i=n..m-1} (1+eps_i) >= |sum_{k<=n} a_k f_k|
    space = subspace.ambient
    worst_by_pair = sample_basis_inequality(f_list, eps_seq, depth, exact,
                                            seed, samples)
    for (n_lo, m_hi), margin in sorted(worst_by_pair.items()):
        check = make_check("basis_inequality_margin", [n_lo, m_hi],
                           margin, "ge", 0, tol)
        checks.append(check)
        if not check.passed:
            raise NetTooCoarse(
                f"sampled basis inequality failed for prefix pair "
                f"({n_lo}, {m_hi}): margin {float(margin):.3g}; refine "
                "net_resolution")

    return MazurCert(space=space, eps_seq=tuple(eps_seq), n=tuple(n_list),
                     f=tuple(f_list), net_sizes=tuple(net_sizes),
                     functionals=tuple(functional_log),
                     zeroed_coords=tuple(constraints), checks=tuple(checks),
                     eta=eta_v, seed=seed, samples=samples)


# ---------------------------------------------------------------------------
# Four-case cascade
# ---------------------------------------------------------------------------

CASE_BOUNDS = {1: 6, 2: 2, 3: 8, 4: 8}


def build_cascade(source: MazurCert, m: Sequence[int], depth: int,
                  stab_tol: Scalar = DEFAULT_STAB_TOL,
                  eta: Optional[float] = None,
                  min_depth: Optional[int] = None) -> CascadeCert:
    """Build the cascade h_1..h_depth from the Mazur family along m.

    Per level: g1 = f_{m1} - f_{m1}(m2) f_{m2}, g2 = f_{m2}; stabilize
    both along the remaining indices; fire the case:
      L1 = 0            -> h = g1              (bound 6)
      L1 != 0, L2 = 0   -> h = g2              (bound 2)
      |L1| <= |L2|      -> h = g1 - (L1/L2) g2 (bound 8)
      |L2| <  |L1|      -> h = g2 - (L2/L1) g1 (bound 8)
    "= 0" means |L| <= stab_tol; exact ties take the third case.  The
    diagonal index t is m1 or m2, whichever coordinate equals 1.

    Levels beyond min_depth (default: depth) are best-effort: bucket
    restriction can consume indices faster than two per level, so the
    cascade stops early instead of failing once the floor is reached.
    """
    eta_v = source.eta if eta is None else eta
    exact = source.f[0].exact if source.f else True
    tol = zero_tol(exact, eta_v)
    if exact and not isinstance(stab_tol, Fraction):
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

    checks: list[Check] = []
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
        m1, m2 = cur[0], cur[1]
        f1, f2 = f_by_index[m1], f_by_index[m2]
        g1 = f1.sub(f2.scale(f1.at(m2)))
        g2 = f2
        try:
            kept, l1, l2 = extract_stabilizing_subsequence(g1, g2, cur,
                                                           stab_tol)
        except InsufficientStabilization:
            if level > min_depth:
                break
            raise
        z1 = abs(l1) <= stab_tol
        z2 = abs(l2) <= stab_tol
        if z1:
            case, h, t_idx = 1, g1, m1
        elif z2:
            case, h, t_idx = 2, g2, m2
        elif abs(l1) <= abs(l2):
            case, h, t_idx = 3, g1.sub(g2.scale(l1 / l2)), m1
        else:
            case, h, t_idx = 4, g2.sub(g1.scale(l2 / l1)), m2
        bound = CASE_BOUNDS[case]
        sup_h = _sup(h)
        if sup_h > bound + tol:
            raise CaseBoundViolated(
                f"cascade level {level} case {case}: |h| = {float(sup_h):.6g} "
                f"exceeds bound {bound}; stab_tol too loose")
        checks.append(make_check("case_bound", [level, case], sup_h, "le",
                                 bound, tol))
        checks.append(make_check("cascade_diag_one", [level],
                                 h.at(t_idx) - 1, "abs_le", 0, tol))
        for j, tj in enumerate(t_list, start=1):
            checks.append(make_check("cascade_prefix_zero", [level, j],
                                     h.at(tj), "abs_le", 0, tol))
        t_list.append(t_idx)
        h_list.append(h)
        trace.append({"case": case, "L1": l1, "L2": l2, "bound": bound,
                      "t": t_idx})
        limits.append({"L1": l1, "L2": l2, "stab_tol": stab_tol})
        cur = kept

    # post-horizon envelope: each h_k is small at every later diagonal
    for k in range(1, depth + 1):
        later = t_list[k:]
        if not later:
            continue
        envelope = max(abs(h_list[k - 1].at(tj)) for tj in later)
        checks.append(make_check("cascade_envelope", [k], envelope, "le",
                                 2 * stab_tol, tol))

    return CascadeCert(space=source.space, m=tuple(m), t=tuple(t_list),
                       h=tuple(h_list), case_trace=tuple(trace),
                       limit_estimates=tuple(limits), stab_tol=stab_tol,
                       final_pool=tuple(cur), source=source,
                       checks=tuple(checks), eta=eta_v)


# ---------------------------------------------------------------------------
# Final zeroing under the sup norm
# ---------------------------------------------------------------------------

def construct_sup_zeroed_sequence(subspace: Subspace, depth: int,
                                  k_est=None, *,
                                  stab_tol: Scalar = DEFAULT_STAB_TOL,
                                  net_resolution=Fraction(1, 4),
                                  eps_seq: Optional[Sequence] = None,
                                  seed: int = 0,
                                  eta: Optional[float] = None,
                                  cascade_pad: int = 2,
                                  mazur_pad: int = 6,
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
    exact = subspace.exact
    eta_v = subspace.eta if eta is None else eta
    tol = zero_tol(exact, eta_v)
    if exact and not isinstance(stab_tol, Fraction):
        stab_tol = Fraction(str(stab_tol))

    cascade_depth = depth + cascade_pad
    if mazur_cert is None:
        mazur_depth = 2 * cascade_depth + mazur_pad
        if eps_seq is None:
            one = Fraction(1) if exact else 1.0
            eps_seq = [one] + [
                (Fraction(1, 2 ** i) if exact else 2.0 ** -i)
                for i in range(2, mazur_depth + 1)]
        mazur_cert = mazur_basic_sequence(subspace, eps_seq, mazur_depth,
                                          net_resolution=net_resolution,
                                          eta=eta_v, seed=seed, samples=samples)
    m = list(m_indices) if m_indices is not None else list(mazur_cert.n)
    # each level consumes 2 indices and must leave >= 4 stabilized ones
    cascade_depth = min(cascade_depth, max(0, (len(m) - 4) // 2))
    if cascade_depth < depth:
        raise SearchExhausted(
            f"only {cascade_depth} cascade levels possible from {len(m)} "
            f"indices; need at least depth = {depth}")
    cascade = build_cascade(mazur_cert, m, cascade_depth, stab_tol=stab_tol,
                            eta=eta_v, min_depth=depth)

    if k_est is None:
        k_est = basis_constant_lower_bound(cascade.h, subspace.ambient,
                                           trials=64, seed=seed)
    one = Fraction(1) if exact else 1.0
    if k_est < 1:
        k_est = one
    eps = min((one / (4 * k_est)), (one / 64))

    checks: list[Check] = []
    h_by_t = {tj: h for tj, h in zip(cascade.t, cascade.h)}
    t_all = list(cascade.t)
    s_list = [t_all[0]]
    sel_checks = []
    pos = 1
    while len(s_list) < depth:
        n_sel = len(s_list)
        budget = eps / (2 ** (n_sel + 1) * 8)
        chosen = None
        while pos < len(t_all):
            cand = t_all[pos]
            pos += 1
            total = sum(abs(h_by_t[sj].at(cand)) for sj in s_list)
            if total <= budget:
                chosen = (cand, total)
                break
        if chosen is None:
            raise SearchExhausted(
                f"no cascade index beyond s_{n_sel} keeps the selection sum "
                f"<= eps/(2^{n_sel + 1} * 8); deepen the cascade or loosen "
                "stab_tol")
        s_list.append(chosen[0])
        sel_checks.append(make_check("selection_sum", [n_sel + 1], chosen[1],
                                     "le", budget, tol))
    checks.extend(sel_checks)

    l_list: list[Seq] = []
    residuals = []
    for k in range(1, depth + 1):
        cur = h_by_t[s_list[k - 1]]
        base = cur
        for t_off in range(0, depth - k):
            target = s_list[k + t_off]  # s_{k+t+1} in 1-based terms
            coeff = cur.at(target)
            nxt = cur.sub(h_by_t[target].scale(coeff))
            step = _sup(nxt.sub(cur))
            checks.append(make_check("step_norm", [k, t_off + 1], step, "le",
                                     eps / 2 ** (k + t_off + 1), tol))
            cur = nxt
        l_list.append(cur)
        res = _sup(cur.sub(base))
        residuals.append(res)
        checks.append(make_check("residual", [k], res, "le", eps / 2 ** k, tol))
        checks.append(make_check("sup_bound", [k], _sup(cur), "le", 9, tol))
        checks.append(make_check("diag_one", [k], cur.at(s_list[k - 1]) - 1,
                                 "abs_le", 0, tol))
        for j in range(1, depth + 1):
            if j == k:
                continue
            checks.append(make_check("zero_pattern", [k, j],
                                     cur.at(s_list[j - 1]), "abs_le", 0, tol))

    # normalized perturbation gate: delta = sum residual_k / |h_{s_k}|
    delta = sum((r / _sup(h_by_t[s_list[i]]) for i, r in enumerate(residuals)),
                Fraction(0) if exact else 0.0)
    checks.append(make_check("normalized_delta_le_eps", [], delta, "le", eps,
                             tol))
    checks.append(make_check("perturbation_gate", [], 2 * k_est * eps, "lt",
                             1, 0))

    return SupZeroingCert(space=subspace.ambient, eps=eps, k_est=k_est,
                          depth=depth, s=tuple(s_list), l=tuple(l_list),
                          residuals=tuple(residuals), cascade=cascade,
                          checks=tuple(checks), eta=eta_v, seed=seed)
