"""Re-verification of emitted certificates from raw coordinates.

The verifier never trusts cached norms or check values: it re-derives
every ledger inequality from the stored vectors, indices and
parameters.  Where deterministic recursions or functional nets produced
the stored vectors, it reruns the recursion and compares, so a single
tampered coordinate surfaces both as a recomputation mismatch and as a
failed inequality.

The sup-norm ledgers (mazur, cascade, sup_zeroing) are defined once, in
``linf_construction``: verify runs the constructors' check functions on
the stored vectors, ties the stored data to a rerun of the cascade
levels and the zeroing recursion, and compares each recomputed ledger
(key, where, passed) with the stored one.  The arithmetic is the
emitter's: sup norms of stored doubles are exact, and the recursion
repeats the same float operations.

Numerics elsewhere: stored doubles lift exactly to rationals, so l1
norms recompute exactly and integer-p norms recompute with a single
terminal rounding (exact p-th-power accumulation).  This keeps the
lp verifier's arithmetic independent of the float path that produced
the certificate.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .certificates import evaluate, load_certificate, require
from .core import Seq
from .errors import MalformedCertificate, SeqLabError
from .linf_construction import (
    cascade_checks,
    cascade_level,
    mazur_checks,
    sup_zero_recursion,
    sup_zeroing_checks,
)
from .scalar import parse_scalar


@dataclass
class VerifyReport:
    checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def first_failure(self) -> Optional[str]:
        return self.failures[0] if self.failures else None


class _Ctx:
    def __init__(self, report: VerifyReport, prefix: str = ""):
        self.report = report
        self.prefix = prefix

    def sub(self, prefix: str) -> "_Ctx":
        return _Ctx(self.report, f"{self.prefix}{prefix}.")

    def check(self, key: str, where, lhs, rel, rhs, tol) -> bool:
        self.report.checked += 1
        ok = evaluate(lhs, rel, rhs, tol)
        if not ok:
            loc = ",".join(str(w) for w in where)
            label = f"{self.prefix}{key}[{loc}]" if loc else f"{self.prefix}{key}"
            self.report.failures.append(
                f"{label}: {float(lhs):.12g} {rel} {float(rhs):.12g} "
                f"(tol {float(tol):.3g}) FAILED")
        return ok

    def run(self, checks) -> None:
        for c in checks:
            self.check(c.key, c.where, c.lhs, c.rel, c.rhs, c.tol)


# -- raw-data helpers -------------------------------------------------------

def _seq(obj: dict):
    """(values, exact, tail_bound) with strings parsed as exact rationals."""
    exact = bool(obj.get("exact", False))
    vals = [parse_scalar(v, exact) for v in obj["coords"]]
    tail = parse_scalar(obj.get("tail_bound", 0), exact)
    return vals, exact, tail


def _space(obj: dict):
    kind = obj["kind"]
    if kind == "lp":
        p = obj["p"]
        p = Fraction(p) if isinstance(p, (str, int)) else float(p)
        return ("lp", p)
    return (kind, None)


def _scalar(v):
    return parse_scalar(v, isinstance(v, str))


def _lift(values) -> list:
    return [v if isinstance(v, Fraction) else Fraction(v) for v in values]


def _nrm(space, values, tail=0):
    """Independent norm evaluation: exact for sup/l1, exact p-power
    accumulation with one terminal rounding otherwise."""
    kind, p = space
    lifted = _lift(values)
    tail = tail if isinstance(tail, Fraction) else Fraction(tail)
    if kind in ("linf", "c0"):
        base = max((abs(v) for v in lifted), default=Fraction(0))
        return max(base, tail)
    if p == 1:
        return sum((abs(v) for v in lifted), Fraction(0)) + tail
    pi = int(Fraction(p)) if Fraction(p).denominator == 1 else None
    if pi is not None:
        total = sum((abs(v) ** pi for v in lifted), Fraction(0)) + tail ** pi
        return float(total) ** (1.0 / float(p))
    total = math.fsum(abs(float(v)) ** float(p) for v in values) \
        + float(tail) ** float(p)
    return total ** (1.0 / float(p))


def _at(values, j: int):
    return values[j - 1]


def _diff(a, b):
    return [x - y for x, y in zip(a, b)]


def _axpy(a, coeff, b):
    return [x - coeff * y for x, y in zip(a, b)]


def _sup_abs(values):
    return max((abs(Fraction(v)) if not isinstance(v, Fraction) else abs(v)
                for v in values), default=Fraction(0))


# -- dispatch ---------------------------------------------------------------

def verify_certificate(doc) -> VerifyReport:
    """Verify a certificate document (dict) or file path."""
    if isinstance(doc, str):
        doc = load_certificate(doc)
    report = VerifyReport()
    ctx = _Ctx(report)
    kind = doc.get("kind")
    verifiers = {
        "lineability": _verify_lineability,
        "dominance": _verify_dominance,
        "zeroing": _verify_zeroing,
        "mazur": _verify_mazur,
        "cascade": _verify_cascade,
        "sup_zeroing": _verify_sup_zeroing,
        "witness": _verify_witness,
        "density": _verify_density,
    }
    if kind not in verifiers:
        raise MalformedCertificate(f"cannot verify certificates of kind {kind!r}")
    try:
        verifiers[kind](doc, ctx)
    except MalformedCertificate:
        raise
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError,
            SeqLabError) as exc:
        raise MalformedCertificate(
            f"certificate of kind {kind!r} cannot be recomputed: "
            f"{type(exc).__name__}: {exc}") from exc
    return report


# -- lineability ------------------------------------------------------------

def _verify_lineability(doc, ctx: _Ctx):
    require(doc, "data.ratios", "data.coeffs", "data.zero_set",
            "data.certified_bound", "data.rank", "params.scan_upto")
    from .lineability import (GeometricCombination, certified_zero_bound,
                              dominance_holds, independence_rank, zero_scan)
    data = doc["data"]
    comb = GeometricCombination(
        tuple(Fraction(r) for r in data["ratios"]),
        tuple(Fraction(c) for c in data["coeffs"]))
    scan_upto = int(doc["params"]["scan_upto"])
    zeros = zero_scan(comb, scan_upto)
    ctx.check("zero_set_matches_scan", [], 0 if zeros == list(data["zero_set"]) else 1,
              "eq", 0, 0)
    m = certified_zero_bound(comb)
    ctx.check("certified_bound_matches", [], m, "eq",
              int(data["certified_bound"]), 0)
    ctx.check("zero_set_within_bound", [], max(zeros) if zeros else 0, "le", m, 0)
    ctx.check("zero_set_size", [], len(zeros), "le", m, 0)
    for j in range(m + 1, min(m + 17, scan_upto + 1)):
        ctx.check("dominance_beyond_bound", [j],
                  0 if dominance_holds(comb, j) else 1, "eq", 0, 0)
    rank = independence_rank(comb.ratios, max(int(doc["truncation"]),
                                              len(comb.ratios)))
    ctx.check("rank_full", [], rank, "eq", len(comb.ratios), 0)
    ctx.check("rank_matches", [], rank, "eq", int(data["rank"]), 0)


# -- lp: dominance ----------------------------------------------------------

def _verify_dominance(doc, ctx: _Ctx):
    require(doc, "space", "eps", "s", "n_cut", "f", "f_tilde", "g", "sigma",
            "delta", "eta")
    space = _space(doc["space"])
    eps = _scalar(doc["eps"])
    eta = float(doc["eta"])
    s_list = [int(v) for v in doc["s"]]
    cuts = [int(v) for v in doc["n_cut"]]
    fs = [_seq(o) for o in doc["f"]]
    fts = [_seq(o) for o in doc["f_tilde"]]
    gs = [_seq(o) for o in doc["g"]]
    sigma = [tuple(int(v) for v in w) for w in doc["sigma"]]
    depth = len(fs)
    exact = fs[0][1]
    tol = 0 if exact else eta

    # interleaving s_1 = N_1 < s_2 < N_2 < ...
    ordered = s_list[0] == cuts[0]
    for k in range(1, depth):
        ordered = ordered and cuts[k - 1] < s_list[k] < cuts[k]
    ctx.check("interleaving", [], 0 if ordered else 1, "eq", 0, 0)

    ctx.check("marker_nonzero", [1], _at(fs[0][0], s_list[0]), "abs_gt", tol, 0)
    for k in range(1, depth + 1):
        vals, _, tail = fs[k - 1]
        ctx.check("unit_norm", [k], abs(_nrm(space, vals) - 1), "abs_le", 0,
                  tol)
        for j in range(1, k):
            ctx.check("prefix_zero", [k, j], _at(vals, s_list[j - 1]),
                      "abs_le", 0, tol)
        # combined tail beyond the cut, tail bounds included
        comb_abs = [sum(abs(_at(fs[i][0], j + 1)) for i in range(k))
                    for j in range(len(vals))]
        comb_tail = sum((fs[i][2] for i in range(k)), Fraction(0))
        cut = cuts[k - 1]
        tail_val = _nrm(space, comb_abs[cut:], comb_tail)
        ctx.check("tail_cut", [k], tail_val, "lt", eps / 2 ** (k + 1), tol)
        if k < depth:
            s_next = s_list[k]
            pred = sum(abs(_at(fs[i][0], s_next)) for i in range(k))
            lead = abs(_at(fs[k][0], s_next))
            ctx.check("dominance", [k], pred, "lt",
                      (eps / 2 ** (k + 1)) * lead, tol)

    for k in range(1, depth + 1):
        lo, hi = sigma[k - 1]
        vals = fs[k - 1][0]
        ft_vals = fts[k - 1][0]
        expected = [v if lo <= j + 1 <= hi else 0 for j, v in enumerate(vals)]
        ctx.check("window_matches", [k],
                  _sup_abs(_diff(ft_vals, expected)), "abs_le", 0, tol)
        w_norm = _nrm(space, ft_vals)
        budget = eps / 2 ** (k + 1)
        ctx.check("window_norm_lower", [k], w_norm, "ge", 1 - budget, tol)
        ctx.check("window_norm_upper", [k], w_norm, "le", 1, tol)
        ctx.check("window_dist", [k], _nrm(space, _diff(vals, ft_vals)),
                  "lt", budget, tol)
        g_vals = gs[k - 1][0]
        leak = max((abs(v) for j, v in enumerate(g_vals)
                    if not lo <= j + 1 <= hi), default=0)
        ctx.check("block_in_window", [k], leak, "abs_le", 0, tol)
        ctx.check("block_unit", [k], abs(_nrm(space, g_vals) - 1), "abs_le",
                  0, tol)
        scale = _nrm(space, ft_vals)
        renorm = [float(v) / float(scale) if not exact else v / scale
                  for v in ft_vals]
        ctx.check("block_matches", [k],
                  float(_sup_abs(_diff(g_vals, renorm))), "abs_le", 0,
                  max(tol, 0 if exact else 1e-12))
    delta = sum((_nrm(space, _diff(fs[k][0], gs[k][0])) for k in range(depth)),
                Fraction(0) if exact else 0.0)
    ctx.check("delta_matches", [], abs(delta - _scalar(doc["delta"])),
              "abs_le", 0, max(tol, 0 if exact else 1e-12))
    for k in range(1, depth + 1):
        fg = _nrm(space, _diff(fs[k - 1][0], gs[k - 1][0]))
        ctx.check("block_dist", [k], fg, "le",
                  (4 / (4 - eps)) * (2 * eps / 2 ** (k + 1)), tol)
    ctx.check("delta_bound", [], delta, "le", 4 * eps / (4 - eps), tol)
    ctx.check("delta_small", [], 8 * delta, "lt", 1, tol)
    return fs, gs, delta, space, eps, tol


# -- lp: perturbation -------------------------------------------------------

def _verify_perturbation(pert: dict, delta, ctx: _Ctx):
    k_const = _scalar(pert["k_const"])
    p_norm = _scalar(pert["p_norm"])
    rel_tol = 1e-12
    ctx.check("pert_delta_matches", [],
              abs(_scalar(pert["delta"]) - delta), "abs_le", 0,
              max(rel_tol, rel_tol * abs(float(delta))))
    prod = 8 * k_const * delta * p_norm
    ok = prod < 1
    ctx.check("perturbation_gate_matches", [],
              0 if ok == bool(pert["ok"]) else 1, "eq", 0, 0)
    if not ok:
        return
    t_bound = 1 + 2 * k_const * delta
    basis_bound = 2 / (1 - 2 * k_const * delta)
    coarse_t = t_bound if t_bound > 2 else 2
    q_bound = coarse_t * p_norm / (1 - prod)
    q_tight = t_bound * p_norm / (1 - prod)
    for name, val in (("t_norm_bound", t_bound), ("basis_bound", basis_bound),
                      ("q_norm_bound", q_bound),
                      ("q_norm_bound_tight", q_tight)):
        stored = pert.get(name)
        if stored is None:
            ctx.check(f"{name}_present", [], 1, "eq", 0, 0)
            continue
        stored = _scalar(stored)
        ctx.check(f"{name}_matches", [], abs(float(stored) - float(val)),
                  "abs_le", 0, rel_tol * (1 + abs(float(val))))


# -- lp: zeroing ------------------------------------------------------------

def _verify_zeroing(doc, ctx: _Ctx):
    require(doc, "space", "eps", "depth", "s", "l", "residuals", "dominance",
            "perturbation", "eta")
    out = _verify_dominance(doc["dominance"], ctx.sub("dominance"))
    fs, gs, delta_dom, space, eps_dom, tol = out
    eps = _scalar(doc["eps"])
    ctx.check("eps_consistent", [], abs(float(eps) - float(eps_dom)),
              "abs_le", 0, 0)
    _verify_perturbation(doc["perturbation"], delta_dom, ctx.sub("perturbation"))

    s_list = [int(v) for v in doc["s"]]
    ls = [_seq(o) for o in doc["l"]]
    depth_ok = int(doc["depth"]) == len(s_list) == len(ls)
    ctx.check("depth_matches", [], 0 if depth_ok else 1, "eq", 0, 0)
    depth = len(s_list)
    exact = ls[0][1]
    residual_sum = Fraction(0) if exact else 0.0
    for k in range(1, depth + 1):
        # the zero pattern is checked on the STORED vector first: a tampered
        # coordinate is named by its pattern entry
        for j in range(1, depth + 1):
            if j == k:
                continue
            ctx.check("zero_pattern", [k, j], _at(ls[k - 1][0], s_list[j - 1]),
                      "abs_le", 0, tol)
        ctx.check("diag_nonzero", [k], _at(ls[k - 1][0], s_list[k - 1]),
                  "abs_gt", tol, 0)
        ctx.check("diag_preserved", [k],
                  _at(ls[k - 1][0], s_list[k - 1]) - _at(fs[k - 1][0],
                                                         s_list[k - 1]),
                  "abs_le", 0, tol)
        stages = [list(fs[k - 1][0])]
        cur = list(fs[k - 1][0])
        for t_off in range(0, depth - k):
            m_idx = k + t_off + 1
            marker = s_list[m_idx - 1]
            denom = _at(fs[m_idx - 1][0], marker)
            coeff = _at(cur, marker) / denom
            nxt = _axpy(cur, coeff, fs[m_idx - 1][0])
            step = _nrm(space, _diff(nxt, cur))
            ctx.check("step_norm", [k, t_off + 1], step, "lt",
                      eps / 2 ** (k + t_off + 1), tol)
            stages.append(nxt)
            cur = nxt
        ctx.check("l_matches_recursion", [k],
                  float(_sup_abs(_diff(ls[k - 1][0], cur))), "abs_le", 0,
                  max(tol, 0 if exact else 1e-12))
        res = _nrm(space, _diff(ls[k - 1][0], fs[k - 1][0]))
        residual_sum = residual_sum + res
        ctx.check("residual", [k], res, "le", eps / 2 ** k, tol)
        for m_off in range(len(stages) - 1):
            worst = max(_nrm(space, _diff(stages[t], stages[m_off]))
                        for t in range(m_off + 1, len(stages)))
            ctx.check("cauchy", [k, m_off], worst, "le",
                      eps / 2 ** (k + m_off), tol)
    k_bound = (8 - 2 * eps) / (4 - 9 * eps)
    ctx.check("gate_block", [], 8 * residual_sum, "lt", 1, 0)
    pert = doc["perturbation"]
    if pert.get("q_norm_bound") is not None:
        q_bound = _scalar(pert["q_norm_bound"])
        strict = 8 * k_bound * residual_sum * q_bound
        ctx.check("gate_strict", [], strict, "lt", 1, 0)
        ctx.check("gate_vs_512eps", [], strict, "lt", 512 * eps, 0)
    ctx.check("gate_512eps_lt_1", [], 512 * eps, "lt", 1, 0)

    if doc.get("q_op"):
        _verify_q_op(doc, fs, space, tol, ctx)


def _verify_q_op(doc, fs, space, tol, ctx: _Ctx):
    from .core import AmbientSpace
    from .operators import (ProjectionOp, idempotency_residual,
                            operator_norm_lower_bound)
    kind, p = space
    sp = AmbientSpace.lp(p) if kind == "lp" else AmbientSpace(kind)
    q = ProjectionOp.from_json(doc["q_op"], sp)
    exact = fs[0][1]
    fix_tol = tol if exact else max(float(doc["eta"]), 1e-7)
    for k, (vals, _, tail) in enumerate(fs, start=1):
        fk = Seq(tuple(vals), exact, tail)
        diff = q.apply(fk).sub(fk)
        ctx.check("q_fixes_family", [k], float(_nrm(space, diff.coords)),
                  "abs_le", 0, fix_tol)
    seed = int(doc.get("seed", 0))
    ctx.check("q_idempotent", [],
              idempotency_residual(q, trials=64, seed=seed), "abs_le", 0,
              fix_tol)
    if doc["perturbation"].get("q_norm_bound") is not None:
        sampled = operator_norm_lower_bound(q, trials=64, seed=seed)
        ctx.check("q_norm_sampled_le_bound", [], sampled, "le",
                  _scalar(doc["perturbation"]["q_norm_bound"]),
                  float(doc["eta"]))


# -- sup-norm family --------------------------------------------------------

def _check_stored_ledger(doc: dict, checks, ctx: _Ctx) -> None:
    stored = [(c["key"], c["where"], c["passed"]) for c in doc["checks"]]
    recomputed = [(c.key, list(c.where), c.passed) for c in checks]
    ctx.check("stored_ledger_matches", [], 0 if stored == recomputed else 1,
              "eq", 0, 0)


def _rerun_gap(stored: Seq, rerun: Seq) -> float:
    return float(_sup_abs(_diff(stored.coords, rerun.coords)))


def _rerun_tol(family, eta: float):
    """Tolerance of _rerun_gap: 0 in exact mode, max(eta, 1e-12) in
    float mode."""
    return 0 if family[0].exact else max(eta, 1e-12)


def _verify_mazur(doc, ctx: _Ctx):
    require(doc, "space", "eps_seq", "n", "f", "eta", "seed", "samples",
            "checks")
    eps_seq = [_scalar(e) for e in doc["eps_seq"]]
    n_list = [int(v) for v in doc["n"]]
    fs = [Seq.from_json(o) for o in doc["f"]]
    increasing = all(a < b for a, b in zip(n_list, n_list[1:]))
    ctx.check("n_increasing", [], 0 if increasing else 1, "eq", 0, 0)
    ctx.check("eps_seq_head", [], eps_seq[0], "eq", 1, 0)
    checks = mazur_checks(fs, n_list, eps_seq, int(doc["seed"]),
                          int(doc["samples"]), float(doc["eta"]))
    ctx.run(checks)
    _check_stored_ledger(doc, checks, ctx)
    return fs, n_list


def _verify_cascade(doc, ctx: _Ctx):
    require(doc, "space", "m", "t", "h", "case_trace", "stab_tol", "source",
            "eta", "checks")
    fs, n_list = _verify_mazur(doc["source"], ctx.sub("mazur"))
    stab_tol = _scalar(doc["stab_tol"])
    eta = float(doc["eta"])
    m = [int(v) for v in doc["m"]]
    t_list = [int(v) for v in doc["t"]]
    hs = [Seq.from_json(o) for o in doc["h"]]
    cases = [int(entry["case"]) for entry in doc["case_trace"]]
    n_set = set(n_list)
    ctx.check("m_subset_of_n", [], 0 if all(v in n_set for v in m) else 1,
              "eq", 0, 0)
    checks = cascade_checks(hs, t_list, cases, stab_tol, eta)
    ctx.run(checks)
    f_by_index = dict(zip(n_list, fs))
    pool = m
    for level, (h_k, t_k, case_k) in enumerate(zip(hs, t_list, cases),
                                               start=1):
        case, h, t_idx, pool, _, _ = cascade_level(f_by_index, pool, stab_tol)
        ctx.check("case_matches", [level], case, "eq", case_k, 0)
        ctx.check("t_matches", [level], t_idx, "eq", t_k, 0)
        ctx.check("h_matches", [level], _rerun_gap(h_k, h), "abs_le", 0,
                  _rerun_tol(hs, eta))
    _check_stored_ledger(doc, checks, ctx)
    return hs, t_list


def _verify_sup_zeroing(doc, ctx: _Ctx):
    require(doc, "space", "eps", "k_est", "depth", "s", "l", "residuals",
            "cascade", "eta", "checks")
    hs, t_list = _verify_cascade(doc["cascade"], ctx.sub("cascade"))
    eta = float(doc["eta"])
    s_list = [int(v) for v in doc["s"]]
    ls = [Seq.from_json(o) for o in doc["l"]]
    depth_ok = int(doc["depth"]) == len(s_list) == len(ls)
    ctx.check("depth_matches", [], 0 if depth_ok else 1, "eq", 0, 0)
    h_by_t = dict(zip(t_list, hs))
    stages = sup_zero_recursion(h_by_t, s_list)
    checks = sup_zeroing_checks(h_by_t, s_list, stages, ls,
                                _scalar(doc["eps"]), _scalar(doc["k_est"]),
                                eta)
    ctx.run(checks)
    for k, (path, l_k) in enumerate(zip(stages, ls), start=1):
        ctx.check("l_matches_recursion", [k], _rerun_gap(l_k, path[-1]),
                  "abs_le", 0, _rerun_tol(ls, eta))
    _check_stored_ledger(doc, checks, ctx)
    return ls, s_list


def _verify_witness(doc, ctx: _Ctx):
    require(doc, "space", "s", "even_family", "odd_family", "forbidden",
            "rank", "samples_checked", "seed", "eta")
    space = _space(doc["space"])
    even = [_seq(o) for o in doc["even_family"]]
    forbidden = [int(v) for v in doc["forbidden"]]
    eta = float(doc["eta"])
    exact = even[0][1] if even else True
    tol = 0 if exact else eta
    seed = int(doc["seed"])
    samples = int(doc["samples_checked"])
    rng = random.Random(seed)
    worst = Fraction(0) if exact else 0.0
    for _ in range(samples):
        if exact:
            coeffs = [Fraction(rng.randint(-32, 32), 8) for _ in range(len(even))]
        else:
            coeffs = [rng.uniform(-4.0, 4.0) for _ in range(len(even))]
        for s_val in forbidden:
            total = sum(c * _at(vals, s_val)
                        for c, (vals, _, _) in zip(coeffs, even))
            if abs(total) > worst:
                worst = abs(total)
    ctx.check("forbidden_coordinate_max", [], worst, "abs_le", 0, tol)
    from . import linalg
    rows = [list(vals) for vals, _, _ in even]
    rank = linalg.rank(rows, tol)
    ctx.check("even_family_rank", [], rank, "eq", len(even), 0)
    ctx.check("rank_matches", [], rank, "eq", int(doc["rank"]), 0)
    total_family = len(even) + len(doc["odd_family"])
    ctx.check("even_rank_half_depth", [], rank, "eq", total_family // 2, 0)


def _verify_density(doc, ctx: _Ctx):
    require(doc, "path", "eps", "result", "input")
    path = doc["path"]
    eps = _scalar(doc["eps"])
    result, r_exact, _ = _seq(doc["result"])
    f_in, _, _ = _seq(doc["input"])
    tol = 0 if r_exact else 1e-9
    if path == "lp":
        ls, s_list, _ = _zeroing_parts(doc["zeroing"], ctx)
        space = _space(doc["zeroing"]["space"])
        scale = _nrm(space, f_in)
        ctx.check("repair_distance", [], _nrm(space, _diff(result, f_in)),
                  "le", scale * eps / 2, tol)
        expected = [scale * v for v in ls[0][0]]
        ctx.check("result_matches", [],
                  float(_sup_abs(_diff(result, expected))), "abs_le", 0,
                  max(tol, 0 if r_exact else 1e-9 * float(scale)))
        for j, s_val in enumerate(s_list[1:], start=2):
            ctx.check("repair_zero_at_marker", [j], _at(result, s_val),
                      "abs_le", 0,
                      tol if r_exact else 1e-9 * float(scale))
    elif path == "c0":
        ls, s_list = _verify_sup_zeroing(doc["sup_zeroing"],
                                         ctx.sub("sup_zeroing"))
        space = _space(doc["sup_zeroing"]["space"])
        ctx.check("repair_distance", [], _nrm(space, _diff(result, f_in)),
                  "le", eps, tol)
        series = sum(abs(_at(f_in, s_val)) for s_val in s_list)
        ctx.check("series_budget", [], 9 * series, "le", eps, tol)
        expected = list(f_in)
        for l_k, s_val in zip(ls, s_list):
            expected = _axpy(expected, _at(f_in, s_val), l_k.coords)
        ctx.check("result_matches", [],
                  float(_sup_abs(_diff(result, expected))), "abs_le", 0,
                  max(tol, 0 if r_exact else 1e-12))
        for k, s_val in enumerate(s_list, start=1):
            ctx.check("repair_zero_at_marker", [k], _at(result, s_val),
                      "abs_le", 0, tol)
    else:
        raise MalformedCertificate(f"unknown density path {path!r}")


def _zeroing_parts(doc, ctx: _Ctx):
    _verify_zeroing(doc, ctx.sub("zeroing"))
    ls = [_seq(o) for o in doc["l"]]
    s_list = [int(v) for v in doc["s"]]
    return ls, s_list, float(doc["eta"])

