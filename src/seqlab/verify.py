"""Re-verification of emitted certificates from raw coordinates.

The verifier never trusts cached norms or check values: it re-derives
every ledger inequality from the stored vectors, indices and
parameters.  Where deterministic recursions or functional nets produced
the stored vectors or derived fields, it reruns them and compares, so a
single tampered coordinate surfaces both as a recomputation mismatch
and as a failed inequality.

Every certificate kind has one ledger, defined beside its constructor
(``lineability``, ``lp_construction``, ``linf_construction``,
``witnesses``): verify runs the constructors' check functions on the
stored data, compares each recomputed ledger (key, where, passed) with
the stored one, and checks the stored top-level status against the
recomputed ledgers.  What verify adds itself ties stored data (depths,
derived fields, markers, counts) to a rerun.  A certificate stores each
vector once: verify rebuilds the lp windows and blocks from f and the
cuts as the emitter does, and the projection Q from its stored
functionals and f.

Tolerances: every zero and rerun tolerance is 0 in exact mode and
``scalar.DEFAULT_ETA`` in float mode, never a value read from the
certificate; each level that stores eta is checked against the constant
(eta_matches).

Numerics: each stored lp vector is lifted once to an exact rational
``Seq`` (a stored double is a rational), so ``core.norm`` and
``tail_norm`` evaluate l1 norms exactly and integer-p norms with a
single terminal rounding (exact p-th-power accumulation), independent
of the float path that produced the certificate.  The zeroing
recursions rerun the emitter's arithmetic on the stored vectors; the lp
stages are lifted before their norms are taken, and so is Q for its
exact Gram matrix and norm bounds.  Sup norms of stored doubles are
exact as they are.  Exact arithmetic skips zero coordinates, so a lifted
vector costs in proportion to its nonzeros; the float reruns evaluate
only the coordinates off each vector's zero frame (``core.Seq.frame``),
which keeps the emitter's signed zeros bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .certificates import evaluate, load_certificate, require
from .core import AmbientSpace, Seq, norm
from .errors import MalformedCertificate, SeqLabError
from .lineability import (GeometricCombination, certified_zero_bound,
                          independence_rank, lineability_checks, zero_scan)
from .linf_construction import (
    CASE_BOUNDS,
    cascade_checks,
    cascade_level,
    mazur_checks,
    sup_zero_recursion,
    sup_zeroing_checks,
)
from .lp_construction import (dominance_checks, perturbation_checks, q_checks,
                              window_blocks, zero_recursion, zeroing_checks)
from .operators import ProjectionOp
from .scalar import DEFAULT_ETA, parse_scalar, scalar_to_json, zero_tol
from .witnesses import (c0_density_checks, c0_repair, lp_density_checks,
                        witness_checks)

_SUP = AmbientSpace.linf()


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
    def __init__(self, report: VerifyReport, prefix: str = "",
                 levels: Optional[list] = None):
        self.report = report
        self.prefix = prefix
        # per ledger: (prefix, recomputed all passed, stored all passed)
        self.levels = [] if levels is None else levels

    def sub(self, prefix: str) -> "_Ctx":
        return _Ctx(self.report, f"{self.prefix}{prefix}.", self.levels)

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

    def ledger(self, stored: list, checks) -> None:
        """Run a recomputed ledger, then compare it entry by entry (key,
        where, passed) with the stored one: stored_ledger_matches."""
        self.run(checks)
        stored = [(c["key"], list(c["where"]), c["passed"]) for c in stored]
        recomputed = [(c.key, list(c.where), c.passed) for c in checks]
        self.check("stored_ledger_matches", [],
                   0 if stored == recomputed else 1, "eq", 0, 0)
        self.levels.append((self.prefix, all(c.passed for c in checks),
                            all(passed for _, _, passed in stored)))


def _scalar(v):
    return parse_scalar(v, isinstance(v, str))


def _check_eta(doc, ctx: _Ctx) -> None:
    """eta_matches: the stored eta is the one every tolerance here is
    taken from; verify never reads its tolerances from the certificate."""
    ctx.check("eta_matches", [], float(doc["eta"]), "eq", DEFAULT_ETA, 0)


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
        if "status" in doc:
            _check_status(doc, ctx)
    except MalformedCertificate:
        raise
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError,
            SeqLabError) as exc:
        raise MalformedCertificate(
            f"certificate of kind {kind!r} cannot be recomputed: "
            f"{type(exc).__name__}: {exc}") from exc
    return report


def _check_status(doc, ctx: _Ctx) -> None:
    """status_matches: the stored status against the emitters' rule,
    "pass" iff every entry of every ledger passed (for density: of its
    own ledger only), applied to the recomputed ledgers.  Where a stored
    ledger differs from its recomputation, which stored_ledger_matches
    already reports, a status that the stored ledgers give is accepted
    too, so this check names only a status that no ledger explains."""
    levels = [lv for lv in ctx.levels
              if doc["kind"] != "density" or lv[0] == ""]
    rules = {"pass" if all(lv[i] for lv in levels) else "fail" for i in (1, 2)}
    ctx.check("status_matches", [], 0 if doc["status"] in rules else 1,
              "eq", 0, 0)


# -- lineability ------------------------------------------------------------

def _verify_lineability(doc, ctx: _Ctx):
    require(doc, "data.ratios", "data.coeffs", "data.zero_set",
            "data.certified_bound", "data.rank", "params.scan_upto", "checks")
    data = doc["data"]
    comb = GeometricCombination(
        tuple(Fraction(r) for r in data["ratios"]),
        tuple(Fraction(c) for c in data["coeffs"]))
    scan_upto = int(doc["params"]["scan_upto"])
    zeros = zero_scan(comb, scan_upto)
    m = certified_zero_bound(comb)
    rank = independence_rank(comb.ratios, max(int(doc["truncation"]),
                                              len(comb.ratios)))
    ctx.check("zero_set_matches_scan", [],
              0 if zeros == list(data["zero_set"]) else 1, "eq", 0, 0)
    ctx.check("certified_bound_matches", [], m, "eq",
              int(data["certified_bound"]), 0)
    ctx.check("rank_matches", [], rank, "eq", int(data["rank"]), 0)
    ctx.ledger(doc["checks"], lineability_checks(comb, zeros, m, rank,
                                                 scan_upto))


# -- lp: dominance, perturbation, zeroing -----------------------------------

def _verify_dominance(doc, ctx: _Ctx):
    require(doc, "space", "eps", "depth", "s", "n_cut", "f", "delta", "eta",
            "checks")
    _check_eta(doc, ctx)
    space = AmbientSpace.from_json(doc["space"])
    eps = _scalar(doc["eps"])
    s = [int(v) for v in doc["s"]]
    cuts = [int(v) for v in doc["n_cut"]]
    f = [Seq.from_json(o) for o in doc["f"]]
    _, f_tilde, g = window_blocks(f, cuts, space)
    tol = zero_tol(f[0].exact)

    ordered = s[0] == cuts[0] and all(cuts[k - 1] < s[k] < cuts[k]
                                      for k in range(1, len(s)))
    ctx.check("interleaving", [], 0 if ordered else 1, "eq", 0, 0)
    depth_ok = int(doc["depth"]) == len(s) == len(f)
    ctx.check("depth_matches", [], 0 if depth_ok else 1, "eq", 0, 0)
    g_exact = [v.lift() for v in g]
    checks, delta = dominance_checks(space, s, cuts, [v.lift() for v in f],
                                     [v.lift() for v in f_tilde], g_exact,
                                     eps, tol)
    ctx.ledger(doc["checks"], checks)
    for k, gx in enumerate(g_exact, start=1):
        ctx.check("block_unit", [k], abs(norm(gx, space) - 1), "abs_le", 0,
                  tol)
    ctx.check("delta_matches", [], abs(delta - _scalar(doc["delta"])),
              "abs_le", 0, tol)
    return f, delta, space, eps, tol


_PERT_BOUNDS = ("t_norm_bound", "basis_bound", "q_norm_bound",
                "q_norm_bound_tight")


def _verify_perturbation(pert: dict, delta, ctx: _Ctx):
    require(pert, "k_const", "p_norm", "delta", "ok", "checks")
    rel_tol = 1e-12
    ctx.check("pert_delta_matches", [],
              abs(_scalar(pert["delta"]) - delta), "abs_le", 0,
              max(rel_tol, rel_tol * abs(float(delta))))
    checks, bounds = perturbation_checks(_scalar(pert["k_const"]),
                                         _scalar(pert["p_norm"]), delta)
    ctx.ledger(pert["checks"], checks)
    ctx.check("pert_gate_matches", [],
              0 if (bounds is not None) == bool(pert["ok"]) else 1, "eq", 0, 0)
    for name, val in zip(_PERT_BOUNDS, bounds or ()):
        stored = pert.get(name)
        gap = math.inf if stored is None else abs(float(_scalar(stored))
                                                  - float(val))
        ctx.check(f"pert_{name}_matches", [], gap, "abs_le", 0,
                  rel_tol * (1 + abs(float(val))))


def _verify_zeroing(doc, ctx: _Ctx):
    require(doc, "space", "eps", "depth", "s", "l", "residuals",
            "iteration_depth", "dominance", "perturbation", "eta", "checks")
    f, delta, space, eps_dom, tol = _verify_dominance(doc["dominance"],
                                                      ctx.sub("dominance"))
    _check_eta(doc, ctx)
    eps = _scalar(doc["eps"])
    ctx.check("eps_consistent", [], abs(float(eps) - float(eps_dom)),
              "abs_le", 0, 0)
    pert = doc["perturbation"]
    _verify_perturbation(pert, delta, ctx.sub("perturbation"))

    s = [int(v) for v in doc["s"]]
    ls = [Seq.from_json(o) for o in doc["l"]]
    depth_ok = int(doc["depth"]) == len(s) == len(ls)
    ctx.check("depth_matches", [], 0 if depth_ok else 1, "eq", 0, 0)
    q_bound = pert.get("q_norm_bound")
    q_bound = None if q_bound is None else _scalar(q_bound)
    reruns = []  # each k's last stage: the rerun l_k

    def lifted_stages():  # one k at a time, to keep few vectors alive
        for path in zero_recursion(f, s):
            reruns.append(path[-1])
            yield [v.lift() for v in path]

    checks = zeroing_checks(space, s, lifted_stages(), ls, eps, q_bound, tol)
    if doc.get("q_op"):
        psi = tuple(Seq.from_json(o) for o in doc["q_op"]["functionals"])
        checks += q_checks(ProjectionOp(psi, tuple(f), space), q_bound)
    ctx.ledger(doc["checks"], checks)
    steps = [len(s) - k for k in range(1, len(s) + 1)]
    ctx.check("iteration_depth_matches", [],
              0 if list(doc["iteration_depth"]) == steps else 1, "eq", 0, 0)
    rerun_tol = zero_tol(ls[0].exact)
    for k, (rerun, l_k) in enumerate(zip(reruns, ls), start=1):
        ctx.check("l_matches_recursion", [k], norm(l_k.sub(rerun), _SUP),
                  "abs_le", 0, rerun_tol)
    _check_residuals(doc, checks, ctx, rerun_tol)


def _check_residuals(doc, checks, ctx: _Ctx, tol) -> None:
    """residuals_matches: the stored residuals are the ledger's."""
    recomputed = [c.lhs for c in checks if c.key == "residual"]
    gap = max(abs(_scalar(r) - v)
              for r, v in zip(doc["residuals"], recomputed, strict=True))
    ctx.check("residuals_matches", [], gap, "abs_le", 0, tol)


# -- sup-norm family --------------------------------------------------------

def _verify_mazur(doc, ctx: _Ctx):
    require(doc, "space", "eps_seq", "n", "f", "eta", "seed", "samples",
            "checks")
    _check_eta(doc, ctx)
    eps_seq = [_scalar(e) for e in doc["eps_seq"]]
    n_list = [int(v) for v in doc["n"]]
    fs = [Seq.from_json(o) for o in doc["f"]]
    increasing = all(a < b for a, b in zip(n_list, n_list[1:]))
    ctx.check("n_increasing", [], 0 if increasing else 1, "eq", 0, 0)
    ctx.check("eps_seq_head", [], eps_seq[0], "eq", 1, 0)
    ctx.check("eps_seq_range", [],
              0 if all(0 < e < 1 for e in eps_seq[1:]) else 1, "eq", 0, 0)
    ctx.ledger(doc["checks"],
               mazur_checks(fs, n_list, eps_seq, int(doc["seed"]),
                            int(doc["samples"])))
    return fs, n_list


def _verify_cascade(doc, ctx: _Ctx):
    require(doc, "space", "m", "t", "h", "case_trace", "limit_estimates",
            "stab_tol", "final_pool", "source", "eta", "checks")
    fs, n_list = _verify_mazur(doc["source"], ctx.sub("mazur"))
    _check_eta(doc, ctx)
    stab_tol = _scalar(doc["stab_tol"])
    m = [int(v) for v in doc["m"]]
    t_list = [int(v) for v in doc["t"]]
    hs = [Seq.from_json(o) for o in doc["h"]]
    cases = [int(entry["case"]) for entry in doc["case_trace"]]
    n_set = set(n_list)
    ctx.check("m_subset_of_n", [], 0 if all(v in n_set for v in m) else 1,
              "eq", 0, 0)
    ctx.ledger(doc["checks"], cascade_checks(hs, t_list, cases, stab_tol))
    f_by_index = dict(zip(n_list, fs))
    pool = m
    levels = zip(hs, t_list, cases, doc["case_trace"], doc["limit_estimates"],
                 strict=True)
    for level, (h_k, t_k, case_k, trace, limits) in enumerate(levels, start=1):
        case, h, t_idx, pool, l1, l2 = cascade_level(f_by_index, pool, stab_tol)
        ctx.check("case_matches", [level], case, "eq", case_k, 0)
        ctx.check("t_matches", [level], t_idx, "eq", t_k, 0)
        ctx.check("h_matches", [level], norm(h_k.sub(h), _SUP), "abs_le", 0,
                  zero_tol(h_k.exact))
        rerun = {"L1": scalar_to_json(l1), "L2": scalar_to_json(l2)}
        same = (trace == dict(rerun, case=case, t=t_idx,
                              bound=scalar_to_json(CASE_BOUNDS[case]))
                and limits == dict(rerun, stab_tol=doc["stab_tol"]))
        ctx.check("trace_matches", [level], 0 if same else 1, "eq", 0, 0)
    ctx.check("final_pool_matches", [],
              0 if list(doc["final_pool"]) == list(pool) else 1, "eq", 0, 0)
    return hs, t_list


def _verify_sup_zeroing(doc, ctx: _Ctx):
    require(doc, "space", "eps", "k_est", "depth", "s", "l", "residuals",
            "cascade", "eta", "checks")
    hs, t_list = _verify_cascade(doc["cascade"], ctx.sub("cascade"))
    _check_eta(doc, ctx)
    s_list = [int(v) for v in doc["s"]]
    ls = [Seq.from_json(o) for o in doc["l"]]
    depth_ok = int(doc["depth"]) == len(s_list) == len(ls)
    ctx.check("depth_matches", [], 0 if depth_ok else 1, "eq", 0, 0)
    h_by_t = dict(zip(t_list, hs))
    stages = sup_zero_recursion(h_by_t, s_list)
    checks = sup_zeroing_checks(h_by_t, s_list, stages, ls,
                                _scalar(doc["eps"]), _scalar(doc["k_est"]))
    ctx.ledger(doc["checks"], checks)
    rerun_tol = zero_tol(ls[0].exact)
    for k, (path, l_k) in enumerate(zip(stages, ls), start=1):
        ctx.check("l_matches_recursion", [k], norm(l_k.sub(path[-1]), _SUP),
                  "abs_le", 0, rerun_tol)
    _check_residuals(doc, checks, ctx, rerun_tol)
    return ls, s_list


# -- witness and density ----------------------------------------------------

def _verify_witness(doc, ctx: _Ctx):
    require(doc, "space", "s", "even_family", "forbidden", "rank",
            "samples_checked", "eta", "checks")
    _check_eta(doc, ctx)
    s = [int(v) for v in doc["s"]]
    even = [Seq.from_json(o) for o in doc["even_family"]]
    forbidden = [int(v) for v in doc["forbidden"]]
    tol = zero_tol(even[0].exact if even else True)
    checks, rank = witness_checks(even, forbidden, len(s), tol)
    ctx.ledger(doc["checks"], checks)
    ctx.check("rank_matches", [], rank, "eq", int(doc["rank"]), 0)
    ctx.check("forbidden_matches", [], 0 if forbidden == s[0::2] else 1,
              "eq", 0, 0)
    ctx.check("samples_checked_matches", [], int(doc["samples_checked"]),
              "eq", len(even) * len(forbidden), 0)


def _verify_density(doc, ctx: _Ctx):
    require(doc, "path", "eps", "distance", "result", "input", "checks")
    eps = _scalar(doc["eps"])
    f = Seq.from_json(doc["input"])
    result = Seq.from_json(doc["result"])
    tol = zero_tol(result.exact)
    if doc["path"] == "lp":
        require(doc, "zeroing", "forbidden", "eps_inner")
        nested = doc["zeroing"]
        _verify_zeroing(nested, ctx.sub("zeroing"))
        space = AmbientSpace.from_json(nested["space"])
        s = [int(v) for v in nested["s"]]
        checks, dist = lp_density_checks(space, f.lift(), result.lift(),
                                         s[1:], eps, tol)
        ctx.check("forbidden_matches", [],
                  0 if doc["forbidden"] == s[1:] else 1, "eq", 0, 0)
        eps_inner = min(eps, Fraction(1, 1024))
        same = _scalar(doc["eps_inner"]) == eps_inner == _scalar(nested["eps"])
        ctx.check("eps_inner_matches", [], 0 if same else 1, "eq", 0, 0)
        rerun = Seq.from_json(nested["l"][0]).scale(norm(f, space))
    elif doc["path"] == "c0":
        require(doc, "sup_zeroing", "selected", "series_sum")
        nested = doc["sup_zeroing"]
        ls, s = _verify_sup_zeroing(nested, ctx.sub("sup_zeroing"))
        space = AmbientSpace.from_json(nested["space"])
        checks, dist, series = c0_density_checks(space, f, result, s, eps, tol)
        ctx.check("selected_matches", [], 0 if doc["selected"] == s else 1,
                  "eq", 0, 0)
        ctx.check("series_sum_matches", [],
                  abs(_scalar(doc["series_sum"]) - series), "abs_le", 0, tol)
        rerun = c0_repair(f, s, ls)
    else:
        raise MalformedCertificate(f"unknown density path {doc['path']!r}")
    ctx.check("distance_matches", [], abs(_scalar(doc["distance"]) - dist),
              "abs_le", 0, tol)
    ctx.check("result_matches", [], norm(result.sub(rerun), _SUP), "abs_le", 0,
              tol)
    ctx.ledger(doc["checks"], checks)
