"""Witness constructions on top of the zeroing certificates.

The even-indexed half of a zeroed family spans a space whose every
element vanishes at all odd markers -- the truncation-scale rendering
of a closed subspace avoiding sequences with finitely many zeros.  The
claim is linear, so it is checked exactly and not sampled: it holds
iff each even vector vanishes at each odd marker (witness_checks, the
ledger the constructor emits and verify reruns).  The odd half splits
it off inside the full family, the membership predicate V(0, forbidden)
is closed under coordinatewise products, and the density-repair
operations push an arbitrary span element within eps of such a
witness.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import linalg
from .certificates import checks_status, make_check
from .core import AmbientSpace, Seq, Subspace, norm
from .errors import (
    ConfigError,
    MissingPerturbCert,
    SearchExhausted,
    TooFewIndices,
    WitnessViolation,
    ZeroVector,
)
from .linf_construction import (
    CASCADE_PAD,
    DEFAULT_STAB_TOL,
    SupZeroingCert,
    construct_sup_zeroed_sequence,
    default_eps_seq,
    mazur_basic_sequence,
)
from .lp_construction import ZeroingCert, construct_zeroed_sequence
from .operators import ProjectionOp
from .scalar import DEFAULT_ETA, LOOSE_ETA, Scalar, scalar_to_json, zero_tol

SourceCert = Union[ZeroingCert, SupZeroingCert]


@dataclass(frozen=True)
class WitnessCert:
    """Even/odd split of a zeroed family with exact parity evidence."""

    source_kind: str
    space: AmbientSpace
    s: tuple
    even_family: tuple
    forbidden: tuple  # odd-position markers s_1, s_3, ...
    rank: int
    samples_checked: int  # entries l_{2i}(s_{2j-1}) the parity check reads
    checks: tuple

    @property
    def status(self) -> str:
        return checks_status(self.checks)

    def as_json(self) -> dict:
        return {
            "source_kind": self.source_kind,
            "space": self.space.as_json(),
            "s": list(self.s),
            "even_family": [v.as_json() for v in self.even_family],
            "forbidden": list(self.forbidden),
            "rank": self.rank,
            "samples_checked": self.samples_checked,
            "eta": DEFAULT_ETA,
            "scope_note": ("finite-rank evidence only: the witness family "
                           "grows with depth/truncation; cardinality claims "
                           "about generator systems are outside the "
                           "truncated model"),
            "checks": [c.as_json() for c in self.checks],
        }


def _family_and_markers(cert: SourceCert):
    if isinstance(cert, ZeroingCert):
        return list(cert.l), list(cert.s), "zeroing", cert.space
    if isinstance(cert, SupZeroingCert):
        return list(cert.l), list(cert.s), "sup_zeroing", cert.space
    raise ConfigError(f"unsupported source certificate {type(cert).__name__}")


def spaceable_witness(cert: SourceCert) -> WitnessCert:
    """Split the family by marker parity and check the even span exactly.

    Every combination of the even vectors vanishes (within eta) at every
    odd marker exactly when each even vector does there; any violation
    is a hard failure.  The even family must be linearly independent
    (rank = size).
    """
    return witness_from_parts(*_family_and_markers(cert))


def witness_from_doc(doc: dict) -> WitnessCert:
    """Run the witness split on an emitted zeroing certificate document."""
    kind = doc.get("kind")
    if kind not in ("zeroing", "sup_zeroing"):
        raise ConfigError(
            f"witness needs a zeroing or sup_zeroing certificate, got {kind!r}")
    space = AmbientSpace.from_json(doc["space"])
    family = [Seq.from_json(o) for o in doc["l"]]
    markers = list(doc["s"])
    return witness_from_parts(family, markers, kind, space)


def witness_checks(even: Sequence[Seq], forbidden: Sequence[int], depth: int,
                   tol) -> tuple[list, int]:
    """The witness ledger and the even family's rank.

    forbidden_coordinate_max is the exact max of |l_{2i}(s_{2j-1})| over
    the even vectors and the odd markers, at [i, s_{2j-1}] of its first
    largest entry: every combination of the even family vanishes at the
    odd markers exactly when each even vector does.  Then the rank of
    the even family against its size and against depth/2.
    """
    worst, where = max(((abs(v.at(s_j)), [i, s_j])
                        for i, v in enumerate(even, start=1)
                        for s_j in forbidden),
                       key=lambda entry: entry[0], default=(0, []))
    rank = linalg.rank([list(v.coords) for v in even], tol)
    return [make_check("forbidden_coordinate_max", where, worst, "abs_le", 0,
                       tol),
            make_check("even_family_rank", [], rank, "eq", len(even), 0),
            make_check("even_rank_half_depth", [], rank, "eq", depth // 2, 0),
            ], rank


def witness_from_parts(family: list, markers: list, kind: str,
                       space: AmbientSpace) -> WitnessCert:
    if len(markers) < 4:
        raise TooFewIndices(
            f"witness split needs >= 4 constructed indices, got {len(markers)}")
    exact = family[0].exact
    if any(f.exact != exact for f in family):
        raise ConfigError("witness family mixes exact and float vectors")
    tol = zero_tol(exact)
    even = family[1::2]       # positions 2, 4, ...
    forbidden = markers[0::2]  # s_1, s_3, ...
    checks, rank = witness_checks(even, forbidden, len(markers), tol)
    if not checks[0].passed:
        i, s_j = checks[0].where
        raise WitnessViolation(
            f"even vector {i} of the family (l_{2 * i}) has "
            f"|l({s_j})| = {float(checks[0].lhs):.3g} > eta at a "
            "forbidden index")
    return WitnessCert(source_kind=kind, space=space, s=tuple(markers),
                       even_family=tuple(even), forbidden=tuple(forbidden),
                       rank=rank, samples_checked=len(even) * len(forbidden),
                       checks=tuple(checks))


def complement_split(cert: ZeroingCert) -> tuple[ProjectionOp, dict]:
    """Idempotent onto the even half of the zeroed span, via the marker
    biorthogonal functionals, composed with the projection evidence.

    chi_k(x) = x(s_k) / l_k(s_k) satisfies chi_k(l_j) = delta_kj thanks
    to the zero pattern, so E(x) = sum_{k even} chi_k(x) l_k is exactly
    the even split of the family projection; Q's perturbation evidence
    must be present for the complementation story to stand.  The report
    holds the certified bounds the Gram matrix chi_j(l_k) gives on
    ||E^2 - E||, |E l_k - l_k| (k even), |E l_k| (k odd) and ||E||.
    """
    if not isinstance(cert, ZeroingCert):
        raise ConfigError("complement_split needs an lp zeroing certificate")
    if cert.perturbation is None or not cert.perturbation.ok:
        raise MissingPerturbCert(
            "source certificate lacks a passing perturbation certificate")
    family, markers = list(cert.l), list(cert.s)
    exact = family[0].exact
    t_len = len(family[0])
    functionals = []
    vectors = []
    for k in range(1, len(family), 2):  # even positions 2, 4, ...
        lk = family[k]
        diag = lk.at(markers[k])
        zero = Fraction(0) if exact else 0.0
        coords = [zero] * t_len
        coords[markers[k] - 1] = (Fraction(1) if exact else 1.0) / diag
        functionals.append(Seq(tuple(coords), exact, zero))
        vectors.append(lk)
    split = ProjectionOp(tuple(functionals), tuple(vectors), cert.space)

    fix_tol = Fraction(0) if exact else LOOSE_ETA
    fixes, idem = split.fixed_point_bounds()
    kills = split.combination_bounds(zip(*split.gram(family[0::2])))
    report = {
        "idempotency_bound": idem,
        "certified_norm_bound": split.certified_norm_bound(),
        "even_fixed_max_residual": max(fixes),
        "odd_killed_max_norm": max(kills),
        "q_norm_bound": scalar_to_json(cert.perturbation.q_norm_bound),
        "checks": [make_check(key, [], value, "abs_le", 0, fix_tol).as_json()
                   for key, value in (("split_idempotent", idem),
                                      ("split_fixes_even", max(fixes)),
                                      ("split_kills_odd", max(kills)))],
    }
    return split, report


def lp_density_checks(space: AmbientSpace, f: Seq, result: Seq,
                      forbidden: Sequence[int], eps, tol) -> tuple[list, Scalar]:
    """The lp density ledger and the distance |result - f|: the distance
    within |f| eps/2, and result vanishing at the later markers (within
    |f| * 1e-9 in float mode)."""
    scale = norm(f, space)
    dist = norm(result.sub(f), space)
    checks = [make_check("repair_distance", [], dist, "le", scale * eps / 2, tol)]
    marker_tol = tol if tol == 0 else float(scale) * DEFAULT_ETA
    for j, s_val in enumerate(forbidden, start=2):
        checks.append(make_check("repair_zero_at_marker", [j], result.at(s_val),
                                 "abs_le", 0, marker_tol))
    return checks, dist


def c0_repair(f: Seq, s: Sequence[int], l: Sequence[Seq]) -> Seq:
    """f - sum_k f(s_k) l_k: f corrected to vanish at the markers s."""
    correction = None
    for s_k, l_k in zip(s, l, strict=True):
        term = l_k.scale(f.at(s_k))
        correction = term if correction is None else correction.add(term)
    return f.sub(correction)


def c0_density_checks(space: AmbientSpace, f: Seq, result: Seq,
                      s: Sequence[int], eps, tol) -> tuple[list, Scalar, Scalar]:
    """The c0 density ledger, the distance |result - f| and the series
    sum |f(s_k)|: the distance and 9 times the series within eps, and
    result vanishing at every marker."""
    dist = norm(result.sub(f), space)
    series = sum(abs(f.at(s_k)) for s_k in s)
    checks = [make_check("repair_distance", [], dist, "le", eps, tol),
              make_check("series_budget", [], 9 * series, "le", eps, tol)]
    for k, s_k in enumerate(s, start=1):
        checks.append(make_check("repair_zero_at_marker", [k], result.at(s_k),
                                 "abs_le", 0, tol))
    return checks, dist, series


def density_repair_lp(subspace: Subspace, f: Seq, eps,
                      depth: int = 4) -> tuple[Seq, dict]:
    """Repair f in an lp span: rerun the zeroing pipeline seeded with
    f/|f| and rescale its first corrected vector.

    Output is within |f| * eps/2 of f and vanishes at the construction's
    later markers."""
    if norm(f, subspace.ambient) == 0:
        raise ZeroVector("density repair needs a nonzero f")
    scale = norm(f, subspace.ambient)
    eps_inner = min(eps, Fraction(1, 1024))
    cert = construct_zeroed_sequence(subspace, eps_inner, depth, f1=f)
    result = cert.l[0].scale(scale)
    forbidden = list(cert.s[1:])
    checks, dist = lp_density_checks(subspace.ambient, f, result, forbidden,
                                     eps, zero_tol(result.exact))
    report = {
        "path": "lp",
        "eps": scalar_to_json(eps),
        "eps_inner": scalar_to_json(eps_inner),
        "distance": scalar_to_json(dist),
        "forbidden": forbidden,
        "zeroing": cert.as_json(),
        "result": result.as_json(),
        "input": f.as_json(),
        "checks": [c.as_json() for c in checks],
    }
    return result, report


def density_repair_c0(subspace: Subspace, f: Seq, eps,
                      depth: int = 4, seed: int = 0, mazur_cert=None,
                      stab_tol: Scalar = DEFAULT_STAB_TOL,
                      mazur_depth: Optional[int] = None) -> tuple[Seq, dict]:
    """Repair f in a c0 span: pick markers where |f| is smallest (greedy,
    budget sum 9|f(s_k)| <= eps), build the sup-norm zeroed family along
    them, and subtract sum f(s_k) l_k.

    The output vanishes at every selected marker and moves f by at most
    eps in the sup norm.  Without mazur_cert, the Mazur family takes
    mazur_depth steps (default: well beyond the markers needed) and 60
    basis-inequality samples."""
    if norm(f, subspace.ambient) == 0:
        raise ZeroVector("density repair needs a nonzero f")
    if not subspace.ambient.is_sup:
        raise ConfigError("c0 density repair needs a sup-norm ambient")
    exact = subspace.exact
    tol = zero_tol(exact)
    eps = Fraction(str(eps)) if exact and not isinstance(eps, Fraction) else eps

    need = 2 * (depth + CASCADE_PAD) + 4
    mazur = mazur_cert
    if mazur is None:
        # go deeper than the marker count needs: the greedy budget wants
        # indices where |f| has already decayed, which live beyond the
        # first `need`
        if mazur_depth is None:
            mazur_depth = need + depth + 8
        mazur = mazur_basic_sequence(
            subspace, default_eps_seq(mazur_depth, exact), mazur_depth,
            seed=seed, samples=60)
    # greedy: the mazur indices where |f| is smallest, re-sorted increasing
    ranked = sorted(mazur.n, key=lambda j: (abs(f.at(j)), j))
    chosen = sorted(ranked[:min(need, len(ranked))])
    budget = sum(abs(f.at(j)) for j in chosen)
    if 9 * budget > eps:
        raise SearchExhausted(
            f"greedy marker selection cannot meet the series budget: "
            f"9 * sum |f(s)| = {float(9 * budget):.3g} > eps = {float(eps):.3g}; "
            "deepen the fixture or enlarge eps")
    cert = construct_sup_zeroed_sequence(
        subspace, depth, stab_tol=stab_tol, seed=seed, mazur_cert=mazur,
        m_indices=chosen)
    g = c0_repair(f, cert.s, cert.l)
    checks, dist, series = c0_density_checks(subspace.ambient, f, g, cert.s,
                                             eps, tol)
    report = {
        "path": "c0",
        "eps": scalar_to_json(eps),
        "distance": scalar_to_json(dist),
        "selected": list(cert.s),
        "series_sum": scalar_to_json(series),
        "sup_zeroing": cert.as_json(),
        "result": g.as_json(),
        "input": f.as_json(),
        "checks": [c.as_json() for c in checks],
    }
    return g, report


def algebra_witness_membership(subspace: Subspace, forbidden: Sequence[int],
                               f: Seq) -> bool:
    """True iff f lies in the span (residual <= eta) and vanishes at every
    forbidden coordinate.

    The predicate is closed under coordinatewise products and linear
    combinations: a coordinate-zero set survives both."""
    if not forbidden:
        raise ConfigError("forbidden index list must be nonempty")
    tol = zero_tol(subspace.exact and f.exact)
    if not subspace.contains(f):
        return False
    return all(abs(f.at(j)) <= tol for j in forbidden)
