"""Witness constructions on top of the zeroing certificates.

The even-indexed half of a zeroed family spans a space whose every
element vanishes at all odd markers -- the truncation-scale rendering
of a closed subspace avoiding sequences with finitely many zeros.  The
odd half splits it off inside the full family, the membership
predicate V(0, forbidden) is closed under coordinatewise products, and
the density-repair operations push an arbitrary span element within
eps of such a witness.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import linalg
from .certificates import Check, checks_status, make_check
from .core import AmbientSpace, Seq, Subspace, norm, scan_combine, scan_rows
from .errors import (
    ConfigError,
    MissingPerturbCert,
    SearchExhausted,
    TooFewIndices,
    WitnessViolation,
    ZeroVector,
)
from .linf_construction import SupZeroingCert, construct_sup_zeroed_sequence, \
    mazur_basic_sequence
from .lp_construction import ZeroingCert, construct_zeroed_sequence
from .operators import ProjectionOp, idempotency_residual, operator_norm_lower_bound
from .scalar import scalar_to_json, zero_tol

SourceCert = Union[ZeroingCert, SupZeroingCert]


@dataclass(frozen=True)
class WitnessCert:
    """Even/odd split of a zeroed family with sampled span evidence."""

    source_kind: str
    space: AmbientSpace
    s: tuple
    even_family: tuple
    odd_family: tuple
    forbidden: tuple  # odd-position markers s_1, s_3, ...
    rank: int
    samples_checked: int
    seed: int
    checks: tuple
    eta: float

    @property
    def status(self) -> str:
        return checks_status(self.checks)

    def as_json(self) -> dict:
        return {
            "source_kind": self.source_kind,
            "space": self.space.as_json(),
            "s": list(self.s),
            "even_family": [v.as_json() for v in self.even_family],
            "odd_family": [v.as_json() for v in self.odd_family],
            "forbidden": list(self.forbidden),
            "rank": self.rank,
            "samples_checked": self.samples_checked,
            "seed": self.seed,
            "eta": self.eta,
            "scope_note": ("finite-rank evidence only: the witness family "
                           "grows with depth/truncation; cardinality claims "
                           "about generator systems are outside the "
                           "truncated model"),
            "checks": [c.as_json() for c in self.checks],
        }


def _family_and_markers(cert: SourceCert):
    if isinstance(cert, ZeroingCert):
        return list(cert.l), list(cert.s), "zeroing", cert.space, cert.eta
    if isinstance(cert, SupZeroingCert):
        return list(cert.l), list(cert.s), "sup_zeroing", cert.space, cert.eta
    raise ConfigError(f"unsupported source certificate {type(cert).__name__}")


def spaceable_witness(cert: SourceCert, samples: int = 500,
                      seed: int = 0) -> WitnessCert:
    """Split the family by marker parity and sample the even span.

    Every sampled combination of the even vectors must vanish (within
    eta) at every odd marker; any violation is a hard failure.  The
    even family must be linearly independent (rank = size).
    """
    family, markers, kind, space, eta = _family_and_markers(cert)
    return witness_from_parts(family, markers, kind, space, eta,
                              samples=samples, seed=seed)


def witness_from_doc(doc: dict, samples: int = 500, seed: int = 0) -> WitnessCert:
    """Run the witness split on an emitted zeroing certificate document."""
    kind = doc.get("kind")
    if kind not in ("zeroing", "sup_zeroing"):
        raise ConfigError(
            f"witness needs a zeroing or sup_zeroing certificate, got {kind!r}")
    space = AmbientSpace.from_json(doc["space"])
    family = [Seq.from_json(o) for o in doc["l"]]
    markers = list(doc["s"])
    eta = float(doc.get("eta", 1e-9))
    return witness_from_parts(family, markers, kind, space, eta,
                              samples=samples, seed=seed)


def witness_from_parts(family: list, markers: list, kind: str,
                       space: AmbientSpace, eta: float,
                       samples: int = 500, seed: int = 0) -> WitnessCert:
    if len(markers) < 4:
        raise TooFewIndices(
            f"witness split needs >= 4 constructed indices, got {len(markers)}")
    exact = family[0].exact
    if any(f.exact != exact for f in family):
        raise ConfigError("witness family mixes exact and float vectors")
    tol = zero_tol(exact, eta)
    even = [family[k] for k in range(1, len(family), 2)]   # positions 2,4,...
    odd = [family[k] for k in range(0, len(family), 2)]    # positions 1,3,...
    forbidden = [markers[k] for k in range(0, len(markers), 2)]

    # each sample is evaluated only at the forbidden markers; exact-mode
    # coefficients are k/8, so a value there is Y / (8 D) on the scan rows
    rows, denom = scan_rows(even)
    cols = [[row[s_val - 1] for s_val in forbidden] for row in rows]
    rng = random.Random(seed)
    checks: list[Check] = []
    worst = Fraction(0) if exact else 0.0
    worst_where = (0, 0)
    for i in range(samples):
        if exact:
            coeffs = [rng.randint(-32, 32) for _ in range(len(even))]
        else:
            coeffs = [rng.uniform(-4.0, 4.0) for _ in range(len(even))]
        values = scan_combine(cols, coeffs)
        for s_val, v in zip(forbidden, values):
            mag = Fraction(abs(v), 8 * denom) if exact else abs(v)
            if mag > worst:
                worst, worst_where = mag, (i, s_val)
            if mag > tol:
                raise WitnessViolation(
                    f"sample {i}: combination of the even family has "
                    f"|f({s_val})| = {float(mag):.3g} > eta at a forbidden index")
    checks.append(make_check("forbidden_coordinate_max",
                             list(worst_where), worst, "abs_le", 0, tol))

    rows = [list(v.coords) for v in even]
    rank = linalg.rank(rows, tol)
    checks.append(make_check("even_family_rank", [], rank, "eq",
                             len(even), 0))
    checks.append(make_check("even_rank_half_depth", [], rank, "eq",
                             len(family) // 2, 0))
    return WitnessCert(source_kind=kind, space=space, s=tuple(markers),
                       even_family=tuple(even), odd_family=tuple(odd),
                       forbidden=tuple(forbidden), rank=rank,
                       samples_checked=samples, seed=seed,
                       checks=tuple(checks), eta=eta)


def complement_split(cert: ZeroingCert, trials: int = 200,
                     seed: int = 0) -> tuple[ProjectionOp, dict]:
    """Idempotent onto the even half of the zeroed span, via the marker
    biorthogonal functionals, composed with the projection evidence.

    chi_k(x) = x(s_k) / l_k(s_k) satisfies chi_k(l_j) = delta_kj thanks
    to the zero pattern, so E(x) = sum_{k even} chi_k(x) l_k is exactly
    the even split of the family projection; Q's perturbation evidence
    must be present for the complementation story to stand.
    """
    if not isinstance(cert, ZeroingCert):
        raise ConfigError("complement_split needs an lp zeroing certificate")
    if cert.perturbation is None or not cert.perturbation.ok:
        raise MissingPerturbCert(
            "source certificate lacks a passing perturbation certificate")
    family, markers = list(cert.l), list(cert.s)
    exact = family[0].exact
    tol = zero_tol(exact, cert.eta)
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

    fix_tol = tol if exact else max(cert.eta, 1e-7)
    idem = idempotency_residual(split, trials=trials, seed=seed)
    sampled_norm = operator_norm_lower_bound(split, trials=trials, seed=seed)
    fixes = max(float(norm(split.apply(v).sub(v), cert.space)) for v in vectors)
    kills = max(float(norm(split.apply(family[k]), cert.space))
                for k in range(0, len(family), 2))
    report = {
        "idempotency_residual": idem,
        "sampled_norm_lower_bound": sampled_norm,
        "even_fixed_max_residual": fixes,
        "odd_killed_max_norm": kills,
        "q_norm_bound": scalar_to_json(cert.perturbation.q_norm_bound),
        "checks": [
            make_check("split_idempotent", [], idem, "abs_le", 0, fix_tol).as_json(),
            make_check("split_fixes_even", [], fixes, "abs_le", 0, fix_tol).as_json(),
            make_check("split_kills_odd", [], kills, "abs_le", 0, fix_tol).as_json(),
        ],
    }
    return split, report


def density_repair_lp(subspace: Subspace, f: Seq, eps,
                      depth: int = 4, eta: Optional[float] = None,
                      seed: int = 0) -> tuple[Seq, dict]:
    """Repair f in an lp span: rerun the zeroing pipeline seeded with
    f/|f| and rescale its first corrected vector.

    Output is within |f| * eps/2 of f and vanishes at the construction's
    later markers."""
    if norm(f, subspace.ambient) == 0:
        raise ZeroVector("density repair needs a nonzero f")
    eta_v = subspace.eta if eta is None else eta
    scale = norm(f, subspace.ambient)
    eps_inner = min(eps, Fraction(1, 1024))
    cert = construct_zeroed_sequence(subspace, eps_inner, depth,
                                     eta=eta_v, seed=seed, f1=f)
    result = cert.l[0].scale(scale)
    dist = norm(result.sub(f), subspace.ambient)
    tol = zero_tol(result.exact, eta_v)
    forbidden = list(cert.s[1:])
    checks = [
        make_check("repair_distance", [], dist, "le",
                   scale * eps / 2, tol).as_json(),
    ]
    for j, s_val in enumerate(forbidden, start=2):
        checks.append(make_check("repair_zero_at_marker", [j],
                                 result.at(s_val), "abs_le", 0,
                                 tol if result.exact else float(scale) * 1e-9
                                 ).as_json())
    report = {
        "path": "lp",
        "eps": scalar_to_json(eps),
        "eps_inner": scalar_to_json(eps_inner),
        "distance": scalar_to_json(dist),
        "forbidden": forbidden,
        "zeroing": cert.as_json(),
        "result": result.as_json(),
        "input": f.as_json(),
        "checks": checks,
    }
    return result, report


def density_repair_c0(subspace: Subspace, f: Seq, eps,
                      depth: int = 4, eta: Optional[float] = None,
                      seed: int = 0, mazur_cert=None,
                      **pipeline_kwargs) -> tuple[Seq, dict]:
    """Repair f in a c0 span: pick markers where |f| is smallest (greedy,
    budget sum 9|f(s_k)| <= eps), build the sup-norm zeroed family along
    them, and subtract sum f(s_k) l_k.

    The output vanishes at every selected marker and moves f by at most
    eps in the sup norm."""
    if norm(f, subspace.ambient) == 0:
        raise ZeroVector("density repair needs a nonzero f")
    if not subspace.ambient.is_sup:
        raise ConfigError("c0 density repair needs a sup-norm ambient")
    eta_v = subspace.eta if eta is None else eta
    exact = subspace.exact
    tol = zero_tol(exact, eta_v)
    eps = Fraction(str(eps)) if exact and not isinstance(eps, Fraction) else eps

    cascade_pad = pipeline_kwargs.pop("cascade_pad", 2)
    mazur_pad = pipeline_kwargs.pop("mazur_pad", 6)
    need = 2 * (depth + cascade_pad) + 4
    # go deeper than the marker count needs: the greedy budget wants indices
    # where |f| has already decayed, which live beyond the first `need`
    mazur_depth = pipeline_kwargs.pop("mazur_depth", None)
    if mazur_depth is None:
        mazur_depth = need + depth + 8
    if mazur_cert is None:
        one = Fraction(1) if exact else 1.0
        eps_seq = [one] + [(Fraction(1, 2 ** i) if exact else 2.0 ** -i)
                           for i in range(2, mazur_depth + 1)]
        mazur_kwargs = {k: v for k, v in pipeline_kwargs.items()
                        if k in ("net_resolution", "samples")}
        mazur_kwargs.setdefault("samples", 60)
        mazur = mazur_basic_sequence(subspace, eps_seq, mazur_depth,
                                     eta=eta_v, seed=seed, **mazur_kwargs)
    else:
        mazur = mazur_cert
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
        subspace, depth, eta=eta_v, seed=seed, cascade_pad=cascade_pad,
        mazur_pad=mazur_pad, mazur_cert=mazur, m_indices=chosen,
        **pipeline_kwargs)
    correction = None
    for k, s_val in enumerate(cert.s):
        term = cert.l[k].scale(f.at(s_val))
        correction = term if correction is None else correction.add(term)
    g = f.sub(correction)
    dist = norm(g.sub(f), subspace.ambient)
    series = sum(abs(f.at(s_val)) for s_val in cert.s)
    checks = [
        make_check("repair_distance", [], dist, "le", eps, tol).as_json(),
        make_check("series_budget", [], 9 * series, "le", eps, tol).as_json(),
    ]
    for k, s_val in enumerate(cert.s, start=1):
        checks.append(make_check("repair_zero_at_marker", [k],
                                 g.at(s_val), "abs_le", 0, tol).as_json())
    report = {
        "path": "c0",
        "eps": scalar_to_json(eps),
        "distance": scalar_to_json(dist),
        "selected": list(cert.s),
        "series_sum": scalar_to_json(series),
        "sup_zeroing": cert.as_json(),
        "result": g.as_json(),
        "input": f.as_json(),
        "checks": checks,
    }
    return g, report


def algebra_witness_membership(subspace: Subspace, forbidden: Sequence[int],
                               f: Seq, eta: Optional[float] = None) -> bool:
    """True iff f lies in the span (residual <= eta) and vanishes at every
    forbidden coordinate.

    The predicate is closed under coordinatewise products and linear
    combinations: a coordinate-zero set survives both."""
    if not forbidden:
        raise ConfigError("forbidden index list must be nonempty")
    tol = zero_tol(subspace.exact and f.exact, subspace.eta if eta is None else eta)
    if not subspace.contains(f, eta=eta):
        return False
    return all(abs(f.at(j)) <= tol for j in forbidden)
