"""Constructions in lp (finite p): dominant basic sequences, block
projections, the small-perturbation certificate, and coordinate zeroing.

The pipeline builds, inside a given subspace V of the truncated lp
model, a family of unit vectors f_1, f_2, ... together with marker
indices s_1 < s_2 < ... such that each f_k vanishes on the coordinate
prefix before its own marker and strictly dominates the combined mass
of its predecessors at the next marker.  Windowing the f_k to disjoint
coordinate blocks yields a normalized block family g_k (basis constant
1) with a norm-1 projection onto its span; the small-perturbation
certificate quantifies how far the f_k may drift from the g_k while
keeping an equivalent basis and a complemented span.  The zeroing
recursion then corrects each f_k against its successors until it
vanishes at every marker except its own.

Every inequality consumed by these arguments is recorded as a ledger
check with the values actually attained, so a verifier can recompute
the whole story from raw coordinates.

Index convention: lists are Python 0-based, marker/coordinate indices
are 1-based (s_list[k-1] is the k-th marker s_k).
"""
from __future__ import annotations

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
    norm,
    normalize,
    scan_prefix_sups,
    scan_rows,
    tail_norm,
    vanish_on_prefix,
)
from .errors import (
    ConfigError,
    ConstructionFailure,
    EpsOutOfRange,
    LengthMismatch,
    OverlappingWindows,
    SearchExhausted,
    UnnormalizedBlock,
)
from .operators import ProjectionOp, idempotency_residual, operator_norm_lower_bound
from .scalar import Scalar, zero_tol

#: Strict upper bound for eps in the dominant-sequence construction.
DOMINANT_EPS_SUP = Fraction(4, 33)
#: Strict upper bound for eps in the coordinate-zeroing construction.
ZEROING_EPS_SUP = Fraction(1, 512)


@dataclass(frozen=True)
class DominanceCert:
    """Full output of the dominant-sequence pipeline.

    s and N interleave as s_1 = N_1 < s_2 < N_2 < ...; f are the unit
    vectors, f_tilde their window truncations, g the normalized blocks,
    sigma the 1-based inclusive windows, delta = sum |f_k - g_k|.
    """

    space: AmbientSpace
    eps: Scalar
    depth: int
    s: tuple
    n_cut: tuple
    f: tuple
    f_tilde: tuple
    g: tuple
    sigma: tuple
    delta: Scalar
    checks: tuple
    eta: float

    @property
    def status(self) -> str:
        return checks_status(self.checks)

    def as_json(self) -> dict:
        return {
            "space": self.space.as_json(),
            "eps": _scalar_json(self.eps),
            "depth": self.depth,
            "s": list(self.s),
            "n_cut": list(self.n_cut),
            "f": [v.as_json() for v in self.f],
            "f_tilde": [v.as_json() for v in self.f_tilde],
            "g": [v.as_json() for v in self.g],
            "sigma": [list(w) for w in self.sigma],
            "delta": _scalar_json(self.delta),
            "eta": self.eta,
            "checks": [c.as_json() for c in self.checks],
        }


@dataclass(frozen=True)
class PerturbationCert:
    """Small-perturbation bookkeeping: with delta = sum |perturbed_k - base_k|,
    the gate 8*K*delta*P_norm < 1 buys an equivalent basis and a
    complemented span; the bounds below are the quantitative versions.

    q_norm_bound uses the coarse transfer factor max(2, 1+2K*delta) that
    the classical estimate uses for its headline constant;
    q_norm_bound_tight keeps 1+2K*delta.  Both are valid upper bounds.
    """

    k_const: Scalar
    p_norm: Scalar
    delta: Scalar
    ok: bool
    t_norm_bound: Optional[Scalar]
    basis_bound: Optional[Scalar]
    q_norm_bound: Optional[Scalar]
    q_norm_bound_tight: Optional[Scalar]
    checks: tuple

    @property
    def status(self) -> str:
        return checks_status(self.checks)

    def as_json(self) -> dict:
        out = {
            "k_const": _scalar_json(self.k_const),
            "p_norm": _scalar_json(self.p_norm),
            "delta": _scalar_json(self.delta),
            "ok": self.ok,
            "checks": [c.as_json() for c in self.checks],
        }
        for name in ("t_norm_bound", "basis_bound", "q_norm_bound",
                     "q_norm_bound_tight"):
            val = getattr(self, name)
            out[name] = None if val is None else _scalar_json(val)
        return out


@dataclass(frozen=True)
class ZeroingCert:
    """Output of the coordinate-zeroing recursion on top of a DominanceCert.

    l[k-1] vanishes (within eta) at every marker s_j except its own s_k,
    where it keeps the original nonzero value f_k(s_k).
    """

    space: AmbientSpace
    eps: Scalar
    depth: int
    s: tuple
    l: tuple
    residuals: tuple
    iteration_depth: tuple
    dominance: DominanceCert
    perturbation: PerturbationCert
    q_op: Optional[ProjectionOp]
    checks: tuple
    eta: float
    seed: int

    @property
    def status(self) -> str:
        ok = checks_status(self.checks) == "pass"
        ok = ok and self.dominance.status == "pass"
        ok = ok and self.perturbation.status == "pass"
        return "pass" if ok else "fail"

    def as_json(self) -> dict:
        return {
            "space": self.space.as_json(),
            "eps": _scalar_json(self.eps),
            "depth": self.depth,
            "s": list(self.s),
            "l": [v.as_json() for v in self.l],
            "residuals": [_scalar_json(r) for r in self.residuals],
            "iteration_depth": list(self.iteration_depth),
            "dominance": self.dominance.as_json(),
            "perturbation": self.perturbation.as_json(),
            "q_op": None if self.q_op is None else self.q_op.as_json(),
            "eta": self.eta,
            "seed": self.seed,
            "checks": [c.as_json() for c in self.checks],
        }


def _scalar_json(v):
    from .scalar import scalar_to_json
    return scalar_to_json(v)


def _require_lp(space: AmbientSpace):
    if space.kind != "lp":
        raise ConfigError("this construction needs an lp ambient (finite p)")


def _check_eps(eps, sup: Fraction, what: str):
    if not 0 < eps < sup:
        raise EpsOutOfRange(
            f"eps must satisfy 0 < eps < {sup.numerator}/{sup.denominator} "
            f"for the {what} construction, got {eps}")


def construct_dominant_sequence(subspace: Subspace, eps, depth: int,
                                f1: Optional[Seq] = None,
                                eta: Optional[float] = None) -> DominanceCert:
    """Build the dominant basic family f_1..f_depth with markers s, cuts N.

    Choices are deterministic: each marker s and cut N is the smallest
    admissible index, and the fresh vector at each step is the
    canonical nullspace pick of vanish_on_prefix.  f1 defaults to the
    first reduced-basis vector of the subspace, normalized.
    """
    _require_lp(subspace.ambient)
    _check_eps(eps, DOMINANT_EPS_SUP, "dominant-sequence")
    if depth < 1:
        raise ConfigError("depth must satisfy depth >= 1")
    space = subspace.ambient
    t_len = subspace.truncation
    if t_len < 4 * depth:
        raise ConfigError(
            f"truncation must satisfy T >= 4*depth (T={t_len}, depth={depth})")
    eta_v = subspace.eta if eta is None else eta
    exact = subspace.exact and space.p == 1
    tol = zero_tol(exact, eta_v)

    if f1 is None:
        f_cur = normalize(subspace.reduced_basis[0], space, eta=eta_v)
    else:
        if len(f1) != t_len:
            raise LengthMismatch(f"f1 length {len(f1)} vs truncation {t_len}")
        if not subspace.contains(f1, eta=max(eta_v, 1e-7) if not exact else None):
            raise ConfigError("f1 must lie in the span of the subspace")
        f_cur = normalize(f1, space, eta=eta_v)

    checks: list[Check] = []
    fs = [f_cur]
    s_list: list[int] = []
    cut_list: list[int] = []
    abs_sum = f_cur.abs_coords()

    # first cut: smallest n with f1(n) != 0 and tail after n < eps/4
    target = eps / 4
    n1 = None
    for n in range(1, t_len + 1):
        if abs(f_cur.at(n)) > tol and tail_norm(abs_sum, n, space) < target:
            n1 = n
            break
    if n1 is None:
        raise SearchExhausted(
            "no index n within the truncation satisfies f1(n) != 0 and "
            f"tail(f1, n) < eps/4 = {float(target):.3g}; T too small")
    s_list.append(n1)
    cut_list.append(n1)
    checks.append(make_check("unit_norm", [1], abs(norm(f_cur, space) - 1),
                             "abs_le", 0, tol))
    checks.append(make_check("marker_nonzero", [1], f_cur.at(n1), "abs_gt", tol, 0))
    checks.append(make_check("tail_cut", [1],
                             tail_norm(abs_sum, n1, space), "lt", target, tol))

    for k in range(1, depth):
        # fresh unit vector vanishing on the prefix 1..N_k
        f_next = vanish_on_prefix(subspace, cut_list[-1], eta=eta_v)
        budget = eps / 2 ** (k + 1)
        # smallest marker beyond the cut where f_next dominates predecessors
        s_next = None
        for n in range(cut_list[-1] + 1, t_len + 1):
            pred = sum(abs(f.at(n)) for f in fs)
            lead = abs(f_next.at(n))
            if pred < budget * lead:
                s_next = n
                break
        if s_next is None:
            raise SearchExhausted(
                f"no marker index n in ({cut_list[-1]}, {t_len}] satisfies "
                f"sum_i |f_i(n)| < (eps/2^{k + 1}) |f_{k + 1}(n)|; T too small")
        fs.append(f_next)
        s_list.append(s_next)
        abs_sum = abs_sum.add(f_next.abs_coords())
        # smallest cut beyond the marker with small combined tail
        tail_budget = eps / 2 ** (k + 2)
        n_next = None
        for n in range(s_next + 1, t_len + 1):
            if tail_norm(abs_sum, n, space) < tail_budget:
                n_next = n
                break
        if n_next is None:
            raise SearchExhausted(
                f"no cut index n in ({s_next}, {t_len}] has combined tail "
                f"< eps/2^{k + 2}; T too small")
        cut_list.append(n_next)

        pred = sum(abs(f.at(s_next)) for f in fs[:-1])
        checks.append(make_check("dominance", [k], pred, "lt",
                                 budget * abs(f_next.at(s_next)), tol))
        checks.append(make_check("unit_norm", [k + 1],
                                 abs(norm(f_next, space) - 1), "abs_le", 0, tol))
        for j in range(1, k + 1):
            checks.append(make_check("prefix_zero", [k + 1, j],
                                     f_next.at(s_list[j - 1]), "abs_le", 0, tol))
        checks.append(make_check("tail_cut", [k + 1],
                                 tail_norm(abs_sum, n_next, space), "lt",
                                 tail_budget, tol))

    # windows, blocks, delta
    sigma = []
    f_tilde = []
    g = []
    delta = Fraction(0) if exact else 0.0
    for k in range(1, depth + 1):
        lo = 1 if k == 1 else cut_list[k - 2] + 1
        hi = cut_list[k - 1]
        window = (lo, hi)
        sigma.append(window)
        ft = fs[k - 1].restrict(window)
        f_tilde.append(ft)
        w_norm = norm(ft, space)
        budget = eps / 2 ** (k + 1)
        checks.append(make_check("window_norm_lower", [k], w_norm, "ge",
                                 1 - budget, tol))
        checks.append(make_check("window_norm_upper", [k], w_norm, "le", 1, tol))
        checks.append(make_check("window_dist", [k],
                                 norm(fs[k - 1].sub(ft), space), "lt", budget, tol))
        gk = normalize(ft, space, eta=eta_v)
        g.append(gk)
        fg = norm(fs[k - 1].sub(gk), space)
        delta = delta + fg
        checks.append(make_check("block_dist", [k], fg, "le",
                                 (4 / (4 - eps)) * (2 * eps / 2 ** (k + 1)), tol))
    checks.append(make_check("delta_bound", [], delta, "le",
                             4 * eps / (4 - eps), tol))
    checks.append(make_check("delta_small", [], 8 * delta, "lt", 1, tol))

    return DominanceCert(space=space, eps=eps, depth=depth, s=tuple(s_list),
                         n_cut=tuple(cut_list), f=tuple(fs),
                         f_tilde=tuple(f_tilde), g=tuple(g), sigma=tuple(sigma),
                         delta=delta, checks=tuple(checks), eta=eta_v)


def block_projection(blocks: Sequence[Seq], sigma: Sequence[tuple],
                     p, eta: float = 1e-9) -> ProjectionOp:
    """Norm-1 projection onto the span of disjointly windowed unit blocks.

    P(x) = sum_k phi_k(x) g_k with phi_k the norming functional of g_k
    supported on its window: the dual-exponent coordinate profile
    sign(g)|g|^(p-1), which at p = 1 degenerates to the sign vector on
    the support.
    """
    if len(blocks) != len(sigma):
        raise ConfigError("one window per block required")
    if not blocks:
        raise ConfigError("block_projection needs at least one block")
    if p is None or p < 1:
        raise ConfigError("block projection needs finite p >= 1")
    space = AmbientSpace.lp(p)
    covered: list[tuple] = []
    for k, (window, gk) in enumerate(zip(sigma, blocks), start=1):
        lo, hi = window
        if lo > hi or lo < 1 or hi > len(gk):
            raise ConfigError(f"window {window} invalid for truncation {len(gk)}")
        for other in covered:
            if not (hi < other[0] or lo > other[1]):
                raise OverlappingWindows(f"windows {window} and {other} overlap")
        covered.append(window)
        leak = max((abs(v) for j, v in enumerate(gk.coords)
                    if not lo <= j + 1 <= hi), default=0)
        if leak > eta:
            raise OverlappingWindows(
                f"block {k} has coordinate mass {leak} outside its window")
        if abs(norm(gk, space) - 1) > eta:
            raise UnnormalizedBlock(f"block {k} has norm {norm(gk, space)}, not 1")

    t_len = len(blocks[0])
    functionals = []
    for window, gk in zip(sigma, blocks):
        lo, hi = window
        zero = Fraction(0) if gk.exact else 0.0
        coords = [zero] * t_len
        # dual-exponent coordinate profile sign(g)|g|^(p-1); at p = 1 this
        # degenerates to the sign vector on the support, the l1 norming
        # functional (a single signed indicator would not fix g_k)
        for j in range(lo, hi + 1):
            v = gk.at(j)
            if v == 0:
                continue
            if p == 1:
                mag = Fraction(1) if gk.exact else 1.0
            else:
                mag = float(abs(v)) ** (float(p) - 1.0)
            coords[j - 1] = mag if v > 0 else -mag
        functionals.append(Seq(tuple(coords), gk.exact if p == 1 else False,
                               zero if p == 1 else 0.0))
    return ProjectionOp(tuple(functionals), tuple(blocks), space, norm_upper=1)


def small_perturbation_cert(base: Sequence[Seq], perturbed: Sequence[Seq],
                            k_const, projection: Optional[ProjectionOp],
                            space: AmbientSpace, p_norm=None,
                            eta: float = 1e-9) -> PerturbationCert:
    """Certificate for the small-perturbation principle.

    delta = sum |perturbed_k - base_k|; ok iff 8*K*delta*P_norm < 1.
    When ok, records the transfer bound 1+2K*delta, the perturbed-family
    basis-constant bound 2/(1-2K*delta), and the projected-norm bounds
    (coarse and tight; see PerturbationCert).
    """
    if len(base) != len(perturbed):
        raise LengthMismatch(f"{len(base)} base vs {len(perturbed)} perturbed")
    if k_const < 1:
        raise ConfigError("K must satisfy K >= 1")
    if p_norm is None:
        if projection is None or projection.norm_upper is None:
            raise ConfigError("need a certified projection norm (p_norm)")
        p_norm = projection.norm_upper
    exact = all(b.exact for b in base) and all(q.exact for q in perturbed) \
        and isinstance(k_const, (int, Fraction)) and isinstance(p_norm, (int, Fraction))
    delta = Fraction(0) if exact else 0.0
    for b, q in zip(base, perturbed):
        if len(b) != len(q):
            raise LengthMismatch("base/perturbed truncation lengths differ")
        delta = delta + norm(q.sub(b), space)
    prod = 8 * k_const * delta * p_norm
    ok = prod < 1
    checks = [make_check("perturbation_gate", [], prod, "lt", 1, 0)]
    if not ok:
        return PerturbationCert(k_const, p_norm, delta, False,
                                None, None, None, None, tuple(checks))
    t_bound = 1 + 2 * k_const * delta
    basis_bound = 2 / (1 - 2 * k_const * delta)
    coarse_t = t_bound if t_bound > 2 else (Fraction(2) if exact else 2.0)
    q_bound = coarse_t * p_norm / (1 - prod)
    q_bound_tight = t_bound * p_norm / (1 - prod)
    if 8 * delta <= 1 and k_const == 1:
        checks.append(make_check("transfer_bound_le_2", [], t_bound, "le", 2, 0))
    return PerturbationCert(k_const, p_norm, delta, True, t_bound, basis_bound,
                            q_bound, q_bound_tight, tuple(checks))


def projection_onto_family(family: Sequence[Seq], block_p: ProjectionOp,
                           space: AmbientSpace, norm_upper=None,
                           eta: float = 1e-9) -> Optional[ProjectionOp]:
    """Concrete projection onto span(family): invert the transfer on the
    family and compose with the block projection.

    With S the block projection followed by the block-to-family
    transfer, Q = S^{-1} (T P) fixes every family vector; its
    functionals are explicit combinations of the block functionals.
    Returns None when the small transfer matrix is numerically singular.
    """
    m = len(family)
    matrix = []
    for phi in block_p.functionals[:m]:
        row = []
        for fj in family:
            row.append(sum(a * b for a, b in zip(phi.coords, fj.coords)))
        matrix.append(row)
    inv = linalg.invert(matrix, eta)
    if inv is None:
        return None
    t_len = len(family[0])
    exact = all(f.exact for f in family) and all(
        phi.exact for phi in block_p.functionals[:m])
    functionals = []
    for j in range(m):
        zero = Fraction(0) if exact else 0.0
        acc = [zero] * t_len
        for k in range(m):
            c = inv[j][k]
            if c == 0:
                continue
            for idx, v in enumerate(block_p.functionals[k].coords):
                acc[idx] += c * v
        if not exact:
            acc = [float(v) for v in acc]
        functionals.append(Seq(tuple(acc), exact, zero if exact else 0.0))
    return ProjectionOp(tuple(functionals), tuple(family), space,
                        norm_upper=norm_upper)


def construct_zeroed_sequence(subspace: Subspace, eps, depth: int,
                              eta: Optional[float] = None,
                              seed: int = 0,
                              f1: Optional[Seq] = None) -> ZeroingCert:
    """Correct the dominant family until each vector vanishes at every
    marker except its own.

    Runs the recursion l <- l - (l(s_m)/f_m(s_m)) f_m against each later
    marker in turn; the dominance inequality makes each correction
    geometrically small (< eps/2^{k+t}), so the corrected vector stays
    within eps/2^k of the original and the perturbation gate holds with
    room to spare (the 512*eps margin).
    """
    _check_eps(eps, ZEROING_EPS_SUP, "coordinate-zeroing")
    dom = construct_dominant_sequence(subspace, eps, depth, f1=f1, eta=eta)
    space = dom.space
    eta_v = dom.eta
    exact = dom.f[0].exact
    tol = zero_tol(exact, eta_v)

    proj = block_projection(dom.g, dom.sigma, space.p, eta=eta_v)
    pert = small_perturbation_cert(dom.g, dom.f, 1, proj, space, eta=eta_v)

    checks: list[Check] = []
    l_final: list[Seq] = []
    residuals = []
    iter_depths = []
    for k in range(1, depth + 1):
        stages = [dom.f[k - 1]]
        cur = dom.f[k - 1]
        for t in range(0, depth - k):
            m_idx = k + t + 1  # 1-based index of the correcting vector
            marker = dom.s[m_idx - 1]
            denom = dom.f[m_idx - 1].at(marker)
            if abs(denom) <= tol:
                raise ConstructionFailure(
                    f"correcting vector {m_idx} vanishes at its own marker")
            coeff = cur.at(marker) / denom
            nxt = cur.sub(dom.f[m_idx - 1].scale(coeff))
            step = norm(nxt.sub(cur), space)
            checks.append(make_check("step_norm", [k, t + 1], step, "lt",
                                     eps / 2 ** (k + t + 1), tol))
            stages.append(nxt)
            cur = nxt
        iter_depths.append(depth - k)
        l_final.append(cur)
        res = norm(cur.sub(dom.f[k - 1]), space)
        residuals.append(res)
        checks.append(make_check("residual", [k], res, "le", eps / 2 ** k, tol))
        # telescoped contraction between any two recorded stages
        for m in range(len(stages) - 1):
            worst = max(norm(stages[t].sub(stages[m]), space)
                        for t in range(m + 1, len(stages)))
            checks.append(make_check("cauchy", [k, m], worst, "le",
                                     eps / 2 ** (k + m), tol))
        for j in range(1, depth + 1):
            if j == k:
                continue
            checks.append(make_check("zero_pattern", [k, j],
                                     cur.at(dom.s[j - 1]), "abs_le", 0, tol))
        checks.append(make_check("diag_nonzero", [k], cur.at(dom.s[k - 1]),
                                 "abs_gt", tol, 0))
        checks.append(make_check("diag_preserved", [k],
                                 cur.at(dom.s[k - 1]) - dom.f[k - 1].at(dom.s[k - 1]),
                                 "abs_le", 0, tol))

    delta = sum(residuals, Fraction(0) if exact else 0.0)
    k_bound = (8 - 2 * eps) / (4 - 9 * eps)
    q_bound = pert.q_norm_bound if pert.q_norm_bound is not None else None
    checks.append(make_check("gate_block", [], 8 * delta, "lt", 1, 0))
    if q_bound is not None:
        strict = 8 * k_bound * delta * q_bound
        checks.append(make_check("gate_strict", [], strict, "lt", 1, 0))
        checks.append(make_check("gate_vs_512eps", [], strict, "lt", 512 * eps, 0))
    checks.append(make_check("gate_512eps_lt_1", [], 512 * eps, "lt", 1, 0))

    q_op = projection_onto_family(dom.f, proj, space,
                                  norm_upper=q_bound, eta=eta_v)
    if q_op is not None:
        fix_tol = max(eta_v, 1e-7) if not exact else tol
        for k in range(1, depth + 1):
            diff = norm(q_op.apply(dom.f[k - 1]).sub(dom.f[k - 1]), space)
            checks.append(make_check("q_fixes_family", [k], diff, "abs_le", 0,
                                     fix_tol))
        checks.append(make_check("q_idempotent", [],
                                 idempotency_residual(q_op, trials=64, seed=seed),
                                 "abs_le", 0, fix_tol))
        if q_bound is not None:
            sampled = operator_norm_lower_bound(q_op, trials=64, seed=seed)
            checks.append(make_check("q_norm_sampled_le_bound", [], sampled,
                                     "le", q_bound, eta_v))

    return ZeroingCert(space=space, eps=eps, depth=depth, s=dom.s,
                       l=tuple(l_final), residuals=tuple(residuals),
                       iteration_depth=tuple(iter_depths), dominance=dom,
                       perturbation=pert, q_op=q_op, checks=tuple(checks),
                       eta=eta_v, seed=seed)


def basis_constant_lower_bound(family: Sequence[Seq], space: AmbientSpace,
                               trials: int = 200, seed: int = 0) -> Scalar:
    """Certified lower bound for the basis constant of the family.

    Samples coefficient vectors (plus deterministic unit/alternating
    patterns), evaluates max over n <= m of |sum_{k<=n} a_k f_k| /
    |sum_{k<=m} a_k f_k|, and refines the best sample by coordinate
    descent.  Every reported value is attained, hence a true lower
    bound; it can only underestimate the supremum.  Under the sup norm
    the prefix norms come from scan rows, all scaled by one common
    positive multiple, which the ratios do not see.
    """
    if not family:
        raise ConfigError("basis_constant_lower_bound needs a nonempty family")
    m = len(family)
    exact = all(f.exact for f in family)
    rng = random.Random(seed)
    rows = scan_rows(family)[0] if space.is_sup else None

    def prefix_norms(coeffs) -> list:
        if space.is_sup:
            return scan_prefix_sups(rows, coeffs)
        prefixes = []
        acc = None
        for k in range(m):
            term = family[k].scale(coeffs[k])
            acc = term if acc is None else acc.add(term)
            prefixes.append(acc)
        return [norm(v, space) for v in prefixes]

    def best_ratio(coeffs) -> Scalar:
        norms = prefix_norms(coeffs)
        best = Fraction(0) if exact else 0.0
        for hi in range(m):
            if norms[hi] == 0:
                continue
            for lo in range(hi + 1):
                r = (Fraction(norms[lo], norms[hi]) if exact
                     else norms[lo] / norms[hi])
                if r > best:
                    best = r
        return best

    one = Fraction(1) if exact else 1.0
    zero = Fraction(0) if exact else 0.0
    candidates = []
    for k in range(m):
        pattern = [zero] * m
        pattern[k] = one
        candidates.append(pattern)
    candidates.append([one if k % 2 == 0 else -one for k in range(m)])
    candidates.append([one] * m)
    for _ in range(max(0, trials - len(candidates))):
        if exact:
            candidates.append([Fraction(rng.randint(-16, 16), 16) for _ in range(m)])
        else:
            candidates.append([rng.uniform(-1.0, 1.0) for _ in range(m)])

    best = zero
    best_c = candidates[0]
    for c in candidates:
        if all(v == 0 for v in c):
            continue
        r = best_ratio(c)
        if r > best:
            best, best_c = r, list(c)
    steps = (Fraction(1, 2), Fraction(-1, 2), Fraction(1, 4), Fraction(-1, 4)) \
        if exact else (0.5, -0.5, 0.25, -0.25)
    for _ in range(2):
        improved = False
        for k in range(m):
            for st in steps:
                cand = list(best_c)
                cand[k] = cand[k] + st
                if all(v == 0 for v in cand):
                    continue
                r = best_ratio(cand)
                if r > best:
                    best, best_c = r, cand
                    improved = True
        if not improved:
            break
    return best
