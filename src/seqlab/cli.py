"""Command-line front end.

Subcommands: lineability, construct-lp, construct-linf, witness,
density, verify.  Every pipeline emits a JSON certificate (stdout or
--out) whose ledger a later `verify` run re-checks from raw
coordinates.

Exit codes: 0 = certificate emitted and every ledger check passed;
2 = the finite model was too small (DimensionExhausted,
SearchExhausted, InsufficientStabilization) -- enlarge the fixture,
truncation, or tolerances; 1 = everything else (bad parameters, hard
invariant violations, failed checks, tampered certificates).
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import certificates
from .certificates import SCHEMA_VERSION
from .core import AmbientSpace, Seq, Subspace, combine, load_fixture
from .errors import (
    ConfigError,
    EpsOutOfRange,
    InvariantViolation,
    MalformedCertificate,
    ModelLimitError,
    SeqLabError,
)
from .lineability import GeometricCombination, lineability_certificate
from .linf_construction import construct_sup_zeroed_sequence
from .lp_construction import (
    ZEROING_EPS_SUP,
    construct_dominant_sequence,
    construct_zeroed_sequence,
)
from .verify import verify_certificate
from .witnesses import density_repair_c0, density_repair_lp, witness_from_doc

EXIT_OK = 0
EXIT_HARD = 1
EXIT_MODEL_LIMIT = 2


class _Parser(argparse.ArgumentParser):
    # exit 2 is reserved for model limits; argparse usage errors must not
    # collide with it
    def error(self, message):
        raise ConfigError(message)


@dataclass
class Scenario:
    """One validated pipeline invocation."""

    name: str
    pipeline: str
    fixture: Optional[str] = None
    params: dict = field(default_factory=dict)


def _parse_rational(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{what}: cannot parse rational {text!r}") from exc


def _parse_rational_list(text: str, what: str) -> list[Fraction]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ConfigError(f"{what}: empty list")
    return [_parse_rational(item, what) for item in items]


def _emit(doc: dict, out: Optional[str]) -> None:
    payload = certificates.dumps_canonical(doc)
    if out is None or out == "-":
        sys.stdout.write(payload)
    else:
        certificates.write_atomic(out, payload)


def _doc_exit(doc: dict) -> int:
    return EXIT_OK if doc.get("status") == "pass" else EXIT_HARD


def run_scenario(scenario: Scenario) -> tuple[dict, int]:
    """Run one pipeline to a certificate document plus exit code.

    Model-limit errors produce an error document and exit 2; hard
    violations and config errors raise to the caller.
    """
    params = scenario.params
    try:
        if scenario.pipeline == "lineability":
            comb = GeometricCombination(tuple(params["ratios"]),
                                        tuple(params["coeffs"]))
            doc = lineability_certificate(comb, params["truncation"],
                                          scan_upto=params["scan"])
            return doc, _doc_exit(doc)

        if scenario.pipeline == "lp":
            eps = params["eps"]
            sub = load_fixture(scenario.fixture, mode=params["mode"])
            sub = _apply_space_override(sub, params)
            # the zeroing stage needs eps < 1/512; for larger eps only the
            # dominant-sequence stage applies, which rejects eps >= 4/33
            if 0 < eps < ZEROING_EPS_SUP:
                cert = construct_zeroed_sequence(sub, eps, params["depth"])
                kind = "zeroing"
            else:
                cert = construct_dominant_sequence(sub, eps, params["depth"])
                kind = "dominance"
            return _document(kind, cert.as_json(), cert.status, sub,
                             scenario.name)

        if scenario.pipeline == "linf":
            sub = load_fixture(scenario.fixture, mode=params["mode"])
            cert = construct_sup_zeroed_sequence(
                sub, params["depth"], stab_tol=params["stab_tol"],
                seed=params["seed"], samples=params["samples"])
            return _document("sup_zeroing", cert.as_json(), cert.status, sub,
                             scenario.name)

        if scenario.pipeline == "witness":
            source = certificates.load_certificate(params["cert"])
            cert = witness_from_doc(source)
            return _document("witness", cert.as_json(), cert.status)

        if scenario.pipeline == "density":
            if not params["eps"] > 0:
                raise EpsOutOfRange("eps must satisfy eps > 0")
            sub = load_fixture(scenario.fixture, mode=params["mode"])
            f_vec = _density_target(sub, params)
            if sub.ambient.kind == "c0":
                _, report = density_repair_c0(sub, f_vec, params["eps"],
                                              depth=params["depth"],
                                              seed=params["seed"],
                                              stab_tol=params["stab_tol"])
            elif sub.ambient.kind == "lp":
                _, report = density_repair_lp(sub, f_vec, params["eps"],
                                              depth=params["depth"])
            else:
                raise ConfigError(
                    "density: fixture space must be lp (finite p) or c0")
            status = ("pass" if all(c["passed"] for c in report["checks"])
                      else "fail")
            return _document("density", report, status, sub, scenario.name)

        raise ConfigError(f"unknown pipeline {scenario.pipeline!r}")
    except ModelLimitError as exc:
        doc = {"schema_version": SCHEMA_VERSION, "kind": "error",
               "error": type(exc).__name__, "detail": str(exc),
               "fixture": scenario.name, "status": "model-limit"}
        return doc, EXIT_MODEL_LIMIT


def _document(kind: str, body: dict, status: str, sub=None, name=None):
    """A certificate document and its exit code: the schema header, the
    fixture's mode and name when there is one, the body and the status."""
    doc = {"schema_version": SCHEMA_VERSION, "kind": kind}
    if sub is not None:
        doc.update(mode="exact" if sub.exact else "float", fixture=name)
    doc.update(body, status=status)
    return doc, _doc_exit(doc)


def _apply_space_override(sub: Subspace, params: dict) -> Subspace:
    space_kind = params.get("space")
    p_val = params.get("p")
    if space_kind is None and p_val is None:
        if sub.ambient.kind != "lp":
            raise ConfigError("construct-lp: fixture space must be lp "
                              "(or pass --space lp --p <p>)")
        return sub
    kind = space_kind or sub.ambient.kind
    if kind != "lp":
        raise ConfigError("construct-lp: --space must be lp")
    p = p_val if p_val is not None else sub.ambient.p
    if p is None:
        raise ConfigError("construct-lp: --p required with --space lp")
    return Subspace(AmbientSpace.lp(p), sub.generators, sub.reduced_basis,
                    sub.pivots, sub.dim)


def _density_target(sub: Subspace, params: dict) -> Seq:
    coeffs = params.get("coeffs")
    if coeffs is None:
        import random
        rng = random.Random(params["seed"])
        if sub.exact:
            coeffs = [Fraction(rng.randint(-16, 16), 8) or Fraction(1, 8)
                      for _ in sub.generators]
        else:
            coeffs = [rng.uniform(-2.0, 2.0) for _ in sub.generators]
    else:
        if len(coeffs) != len(sub.generators):
            raise ConfigError(
                f"density: --coeffs needs {len(sub.generators)} entries "
                f"(one per generator), got {len(coeffs)}")
        if not sub.exact:
            coeffs = [float(c) for c in coeffs]
    return combine(list(sub.generators), list(coeffs))


def _add_common(parser):
    parser.add_argument("--fixture", action="append", required=True,
                        help="fixture JSON path (repeatable)")
    parser.add_argument("--mode", choices=["exact", "float", "auto"],
                        default="auto")
    parser.add_argument("--out", default=None,
                        help="output path (default stdout); a directory "
                             "when several fixtures are given")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for several fixtures, at "
                             "most one per fixture (default 1: run them in "
                             "this process)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing leaves it unchanged,
    and each new one would be cyclic garbage in a long-lived process."""
    parser = _Parser(prog="seqlab",
                     description="certificate-producing sequence-space "
                                 "constructions on truncated lp / c0 models")
    sub = parser.add_subparsers(dest="command", required=True)

    p_lin = sub.add_parser("lineability", parents=[], help="geometric-family "
                           "certificate: zero set, certified bound, rank")
    p_lin.add_argument("--ratios", required=True,
                       help="comma-separated rationals in (0,1), e.g. 1/2,1/3")
    p_lin.add_argument("--coeffs", default=None,
                       help="comma-separated nonzero coefficients "
                            "(default: all 1)")
    p_lin.add_argument("--truncation", type=int, default=256)
    p_lin.add_argument("--scan", type=int, default=500)
    p_lin.add_argument("--out", default=None)

    p_lp = sub.add_parser("construct-lp", help="dominant + zeroed basic "
                          "sequence in an lp fixture")
    p_lp.add_argument("--space", choices=["lp"], default=None,
                      help="override the fixture's space kind")
    p_lp.add_argument("--p", default=None, help="override the fixture's p")
    p_lp.add_argument("--eps", required=True,
                      help="rational or decimal, 0 < eps < 1/512")
    p_lp.add_argument("--depth", type=int, required=True)
    _add_common(p_lp)

    p_linf = sub.add_parser("construct-linf", help="Mazur family, cascade, "
                            "and sup-norm zeroed sequence")
    p_linf.add_argument("--depth", type=int, required=True)
    p_linf.add_argument("--stab-tol", default="1/1000000")
    p_linf.add_argument("--samples", type=int, default=200)
    p_linf.add_argument("--seed", type=int, default=0)
    _add_common(p_linf)

    p_wit = sub.add_parser("witness", help="even/odd spaceability witness "
                           "from an emitted zeroing certificate")
    p_wit.add_argument("--cert", required=True)
    p_wit.add_argument("--out", default=None)

    p_den = sub.add_parser("density", help="repair a span element into a "
                           "witness within eps")
    p_den.add_argument("--eps", required=True)
    p_den.add_argument("--depth", type=int, default=4)
    p_den.add_argument("--coeffs", default=None,
                       help="combination over the fixture generators "
                            "(default: seeded random)")
    p_den.add_argument("--stab-tol", default="1/1000000")
    p_den.add_argument("--seed", type=int, default=0)
    _add_common(p_den)

    p_ver = sub.add_parser("verify", help="re-check a certificate from raw "
                           "coordinates")
    p_ver.add_argument("path")
    return parser


def _scenarios_from_args(args) -> list[Scenario]:
    if args.command == "lineability":
        ratios = _parse_rational_list(args.ratios, "--ratios")
        coeffs = (_parse_rational_list(args.coeffs, "--coeffs")
                  if args.coeffs else [Fraction(1)] * len(ratios))
        if len(coeffs) != len(ratios):
            raise ConfigError(f"--coeffs needs {len(ratios)} entries")
        pairs = sorted(zip(ratios, coeffs))  # the ratio family is a set
        ratios = [r for r, _ in pairs]
        coeffs = [c for _, c in pairs]
        return [Scenario(name="lineability", pipeline="lineability",
                         params={"ratios": ratios, "coeffs": coeffs,
                                 "truncation": args.truncation,
                                 "scan": args.scan})]
    if args.command == "construct-lp":
        eps = _parse_rational(args.eps, "--eps")
        p_val = _parse_rational(args.p, "--p") if args.p else None
        return [Scenario(name=_stem(path), pipeline="lp", fixture=path,
                         params={"eps": eps, "depth": args.depth,
                                 "mode": args.mode, "space": args.space,
                                 "p": p_val})
                for path in args.fixture]
    if args.command == "construct-linf":
        return [Scenario(name=_stem(path), pipeline="linf", fixture=path,
                         params={"depth": args.depth,
                                 "stab_tol": _parse_rational(args.stab_tol,
                                                             "--stab-tol"),
                                 "samples": args.samples, "mode": args.mode,
                                 "seed": args.seed})
                for path in args.fixture]
    if args.command == "witness":
        return [Scenario(name="witness", pipeline="witness",
                         params={"cert": args.cert})]
    if args.command == "density":
        coeffs = (_parse_rational_list(args.coeffs, "--coeffs")
                  if args.coeffs else None)
        return [Scenario(name=_stem(path), pipeline="density", fixture=path,
                         params={"eps": _parse_rational(args.eps, "--eps"),
                                 "depth": args.depth, "coeffs": coeffs,
                                 "mode": args.mode, "seed": args.seed,
                                 "stab_tol": _parse_rational(args.stab_tol,
                                                             "--stab-tol")})
                for path in args.fixture]
    raise ConfigError(f"unknown command {args.command!r}")


def _stem(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def _run_verify(path: str) -> int:
    report = verify_certificate(path)
    if report.ok:
        print(f"OK: {report.checked} checks recomputed, all pass")
        return EXIT_OK
    print(f"FAIL: {report.first_failure()}")
    print(f"({len(report.failures)} of {report.checked} recomputed checks "
          "failed)")
    return EXIT_HARD


def worker_count(jobs: int, fixtures: int) -> int:
    """How many worker processes run ``fixtures`` fixtures under ``--jobs``:
    never more than one per fixture, since every fork worker starts up
    front.  1 means the fixtures run in this process."""
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")
    return min(jobs, fixtures)


def _run_fixtures(scenarios: list[Scenario], out: str, workers: int) -> int:
    """Run several fixtures, write each certificate into the directory
    ``out`` as ``<fixture stem>.json`` in fixture order, and combine their
    exit codes: any hard failure gives 1, else any model limit 2, else 0.
    Fixtures that share a stem are refused before any of them runs.

    With more than one worker the fixtures run in a forked process pool;
    otherwise, or where the platform cannot fork, in this process.
    """
    # imported here, not with the module: there they would add about 14 ms
    # and 1.8 MB to every command that runs one fixture
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    stems = [scenario.name for scenario in scenarios]
    shared = next((stem for stem in stems if stems.count(stem) > 1), None)
    if shared is not None:
        raise ConfigError(f"several fixtures have the file stem {shared!r}, "
                          f"so they would all write {shared}.json")
    os.makedirs(out, exist_ok=True)
    codes = []
    pool = None
    try:
        if (workers == 1
                or "fork" not in multiprocessing.get_all_start_methods()):
            results = map(run_scenario, scenarios)
        else:
            # fork, not spawn: a worker needs no fresh import of seqlab, and
            # seqlab starts no thread whose locks a fork could copy held.
            # A forked worker flushes the streams it inherits when it ends.
            sys.stdout.flush()
            sys.stderr.flush()
            pool = ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"))
            results = pool.map(run_scenario, scenarios)
        for scenario in scenarios:
            try:
                doc, code = next(results)
            except SeqLabError as exc:
                raise type(exc)(f"{scenario.name}: {exc}") from exc
            except BrokenProcessPool as exc:
                raise SeqLabError(f"a worker process died: {exc}") from exc
            _emit(doc, os.path.join(out, f"{scenario.name}.json"))
            codes.append(code)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    if EXIT_HARD in codes:
        return EXIT_HARD
    if EXIT_MODEL_LIMIT in codes:
        return EXIT_MODEL_LIMIT
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "verify":
            return _run_verify(args.path)
        scenarios = _scenarios_from_args(args)
        out = getattr(args, "out", None)
        workers = worker_count(getattr(args, "jobs", 1), len(scenarios))
        if len(scenarios) == 1:
            doc, code = run_scenario(scenarios[0])
            _emit(doc, out)
            return code
        if out is None:
            raise ConfigError("--out must name a directory when several "
                              "fixtures are given")
        return _run_fixtures(scenarios, out, workers)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_HARD
    except MalformedCertificate as exc:
        print(f"malformed certificate: {exc}", file=sys.stderr)
        return EXIT_HARD
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_HARD
    except ModelLimitError as exc:
        print(f"model limit: {exc}", file=sys.stderr)
        return EXIT_MODEL_LIMIT
    except SeqLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HARD


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
