"""Benchmark of the seqlab certificate pipelines, driven from outside.

Runs one workload in this process through ``seqlab.cli.main``, the same
command lines a user types, in whole rounds for ``--seconds`` seconds: a
round starts only if it should end within them, and the first always
runs.  Every command is one operation; it fails when its exit code is
not the expected one.  After each round the emitted certificates are
checked by ``checks.py``, which does not import seqlab.

    python3 bench/run.py --workload lp2_float --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics.  ``--trace 1`` alternates an untraced and a traced
round (``--jobs 1`` on the fleet), reports the per-layer metrics and the
tracing overhead, and requires both rounds to write byte-identical
certificates.  Scratch output (fixtures, certificates, spans, results)
goes to ``bench/.work/<workload>/``.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from time import perf_counter  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from gauge import Gauge  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

END_TO_END = (
    ("setup_s", "s"), ("emit_s", "s"), ("verify_s", "s"),
    ("cert_bytes", "bytes"), ("peak_rss_mb", "MB"),
)

# per-layer metrics: (name, unit, better); see layer_metrics for the sources
PER_LAYER = (
    [(f"core.{fn}.{what}", unit, "lower")
     for fn in ("combine", "Seq.add", "Seq.sub", "Seq.scale", "norm",
                "tail_norm", "vanish_at", "Subspace.build", "load_fixture")
     for what, unit in (("calls", "count"), ("self_s", "s"))]
    + [(f"linalg.{fn}.{what}", unit, "lower")
       for fn in ("rref", "nullspace_basis", "invert", "rank")
       for what, unit in (("calls", "count"), ("self_s", "s"))]
    + [(f"lp_construction.{fn}.self_s", "s", "lower")
       for fn in ("construct_dominant_sequence", "construct_zeroed_sequence",
                  "block_projection", "projection_onto_family")]
    + [("lp_construction.basis_constant_lower_bound.calls", "count", "lower"),
       ("lp_construction.basis_constant_lower_bound.self_s", "s", "lower")]
    + [(f"linf_construction.{fn}.self_s", "s", "lower")
       for fn in ("mazur_basic_sequence", "build_cascade",
                  "construct_sup_zeroed_sequence")]
    + [("linf_construction.sample_basis_inequality.calls", "count", "lower"),
       ("linf_construction.sample_basis_inequality.self_s", "s", "lower"),
       ("linf_construction.extract_stabilizing_subsequence.calls", "count",
        "lower"),
       ("linf_construction.mazur_basic_sequence.net_points", "count", "lower"),
       ("linf_construction.mazur_basic_sequence.net_new_constraints", "count",
        "higher"),
       ("linf_construction.mazur_basic_sequence.net_yield", "ratio", "higher")]
    + [(f"witnesses.{fn}.self_s", "s", "lower")
       for fn in ("witness_from_doc", "density_repair_lp",
                  "density_repair_c0")]
    + [("witnesses.witness_from_doc.samples", "count", "lower"),
       ("verify.verify_certificate.self_s", "s", "lower"),
       ("verify.verify_certificate.checks", "count", "higher"),
       ("certificates.dumps_canonical.self_s", "s", "lower"),
       ("certificates.dumps_canonical.bytes", "bytes", "lower"),
       ("certificates.write_atomic.self_s", "s", "lower"),
       ("certificates.load_certificate.self_s", "s", "lower"),
       ("scalar.parse_scalar.calls", "count", "lower"),
       ("scalar.scalar_to_json.calls", "count", "lower"),
       ("cli.run_scenario.calls", "count", "lower"),
       ("cli.run_scenario.busy_s", "s", "lower"),
       ("cli.main.wall_s", "s", "lower"),
       ("bench.trace_overhead_s", "s", "lower"),
       ("bench.spans", "count", "lower"),
       ("bench.gauge_scale", "ratio", "higher"),
       ("bench.emit_wall_s", "s", "lower"),
       ("bench.verify_wall_s", "s", "lower")]
)

_VERIFY_OK = re.compile(r"^OK: (\d+) checks", re.MULTILINE)


@dataclass
class Round:
    emit_s: float = 0.0  # scaled to the reference speed
    verify_s: float = 0.0
    scaled_s: float = 0.0  # every command, scaled
    emit_wall_s: float = 0.0  # as measured
    verify_wall_s: float = 0.0
    scale: float = 1.0  # the gauge's scale over the whole round
    attempted: int = 0
    failed: int = 0
    verify_checks: int = 0
    digests: dict = field(default_factory=dict)
    cert_bytes: int = 0
    problems: list = field(default_factory=list)  # wrong output: incorrect
    op_s: list = field(default_factory=list)  # wall seconds per command
    scales: list = field(default_factory=list)  # the gauge's, per command
    trace: dict = None


def _with_jobs(argv: list, jobs) -> list:
    if jobs is None or "--jobs" not in argv:
        return argv
    argv = list(argv)
    argv[argv.index("--jobs") + 1] = str(jobs)
    return argv


def run_round(wl, cli, gauge, *, jobs=None, tracer=None) -> Round:
    """One round of the workload's commands, then the output checks.

    Each command's wall time is multiplied by the gauge's scale over the
    command, so it reads as seconds at the reference speed.
    """
    rnd = Round()
    times = []  # (start, end) of each command
    mark = None
    if tracer is not None:
        tracer.install()
        mark = tracer.mark()
    try:
        for op in wl.ops:
            if op.before is not None:
                op.before()
            gauge.sample()
            out, err = io.StringIO(), io.StringIO()
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    # looked up per call, so a traced round sees the wrapper
                    code = cli.main(_with_jobs(op.argv, jobs))
            except Exception:  # a crash is a failed operation, not a stop
                code = None
                err.write(traceback.format_exc())
            t1 = perf_counter()
            times.append((t0, t1))
            rnd.op_s.append(t1 - t0)
            if op.phase == "verify":
                rnd.verify_checks += sum(
                    int(n) for n in _VERIFY_OK.findall(out.getvalue()))
            rnd.attempted += 1
            if code != op.expect:
                rnd.failed += 1
                print(f"failed: seqlab {op.argv[0]} exited {code}, "
                      f"expected {op.expect}: {err.getvalue().strip()[-300:]}",
                      file=sys.stderr)
        gauge.sample()
    finally:
        if tracer is not None:
            tracer.uninstall()
            rnd.trace = tracer.summary(mark)
    for op, (t0, t1) in zip(wl.ops, times):
        wall = t1 - t0
        rnd.scales.append(gauge.scale(t0, t1))
        scaled = wall * rnd.scales[-1]
        rnd.scaled_s += scaled
        if op.phase == "emit":
            rnd.emit_s += scaled
            rnd.emit_wall_s += wall
        elif op.phase == "verify":
            rnd.verify_s += scaled
            rnd.verify_wall_s += wall
    rnd.scale = gauge.scale(times[0][0], times[-1][1])
    for path in wl.certs:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            rnd.problems.append(f"missing certificate: {exc}")
            continue
        rnd.digests[path] = hashlib.sha256(data).hexdigest()
        rnd.cert_bytes += len(data)
    report = checks.check_workload(wl)
    rnd.problems += report.failures
    return rnd


def cert_counts(wl) -> dict:
    """Counters read from the certificates: Mazur net and witness samples."""
    points = new = samples = 0
    for path, (kind, _, _) in wl.certs.items():
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if kind == "witness":
            samples += int(doc["samples_checked"])
        if kind == "density" and doc.get("path") == "c0":
            doc = doc["sup_zeroing"]
        if "cascade" in doc:
            mazur = doc["cascade"]["source"]
            points += sum(mazur["net_sizes"])
            new += len(mazur["zeroed_coords"]) - len(mazur["n"])
    return {"net_points": points, "net_new": new, "samples": samples}


def layer_metrics(traced: list, plain: list, counts: dict) -> dict:
    """Per-layer values: medians over the traced rounds.

    Span times are multiplied by the gauge's scale over their round, like
    the end-to-end times.
    """
    def med(get):
        vals = [get(r) for r in traced]
        if all(isinstance(v, int) for v in vals):  # counts stay whole
            return statistics.median_low(vals)
        return statistics.median(vals)

    def timed(name, what):
        return med(lambda r: r.trace[name][what] * r.scale)

    values = {}
    for name, _, _ in PER_LAYER:
        module_fn, _, what = name.rpartition(".")
        if module_fn in traced[0].trace:
            if what == "calls":
                values[name] = med(lambda r: r.trace[module_fn]["calls"])
            elif what == "self_s":
                values[name] = timed(module_fn, "self_s")
    values["cli.run_scenario.busy_s"] = timed("cli.run_scenario", "total_s")
    values["cli.main.wall_s"] = timed("cli.main", "total_s")
    values["certificates.dumps_canonical.bytes"] = med(
        lambda r: r.trace["certificates.dumps_canonical"]["bytes"])
    values["verify.verify_certificate.checks"] = med(lambda r: r.verify_checks)
    prefix = "linf_construction.mazur_basic_sequence."
    values[prefix + "net_points"] = counts["net_points"]
    values[prefix + "net_new_constraints"] = counts["net_new"]
    values[prefix + "net_yield"] = (counts["net_new"] / counts["net_points"]
                                    if counts["net_points"] else 0.0)
    values["witnesses.witness_from_doc.samples"] = counts["samples"]
    # each traced round follows an untraced round of the same commands
    values["bench.trace_overhead_s"] = statistics.median(
        t.scaled_s - p.scaled_s for t, p in zip(traced, plain))
    values["bench.spans"] = med(lambda r: r.trace["spans"])
    values["bench.gauge_scale"] = statistics.median(
        r.scale for r in plain + traced)
    values["bench.emit_wall_s"] = statistics.fmean(r.emit_wall_s for r in plain)
    values["bench.verify_wall_s"] = statistics.fmean(
        r.verify_wall_s for r in plain)
    return values


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "seqlab", "cli.py")):
        print(f"bench: no seqlab sources under {SRC}; run from the root of a "
              "seqlab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import seqlab.cli

    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    jobs = len(os.sched_getaffinity(0))
    wl = workloads.build(args.workload, args.seed, workdir, jobs)
    setup_wall = perf_counter() - _T0
    gauge = Gauge()
    gauge.sample()
    setup_s = setup_wall * gauge.scale(_T0, perf_counter())

    tracer = Tracer() if args.trace else None
    deadline = perf_counter() + args.seconds
    plain, traced = [], []
    with gauge:
        while True:
            round_start = perf_counter()
            if tracer is None:
                plain.append(run_round(wl, seqlab.cli, gauge))
            else:
                # the fleet's per-layer numbers come from --jobs 1: spans in
                # a worker pool cannot be attributed to one caller otherwise
                plain.append(run_round(wl, seqlab.cli, gauge, jobs=1))
                traced.append(run_round(wl, seqlab.cli, gauge, jobs=1,
                                        tracer=tracer))
            # whole rounds only: start another if it should end in time
            now = perf_counter()
            if now + (now - round_start) > deadline:
                break

    rounds = plain + traced
    problems = []
    for rnd in rounds:
        problems += rnd.problems
    if any(r.digests != rounds[0].digests for r in rounds):
        problems.append("certificates differ between rounds"
                        + (" (traced vs untraced)" if traced else ""))
    for line in dict.fromkeys(problems):
        print(f"incorrect: {line}", file=sys.stderr)

    if tracer is None:
        values = {
            "setup_s": setup_s,
            "emit_s": statistics.fmean(r.emit_s for r in plain),
            "verify_s": statistics.fmean(r.verify_s for r in plain),
            "cert_bytes": plain[0].cert_bytes,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
    else:
        values = layer_metrics(traced, plain, cert_counts(wl))
        units = {name: unit for name, unit, _ in PER_LAYER}
        tracer.write(os.path.join(workdir, "spans.json"))
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    with open(os.path.join(workdir, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump(dict(result, seed=args.seed, setup_wall_s=setup_wall,
                       rounds=[{"op_s": r.op_s, "scales": r.scales,
                                "traced": r.trace is not None}
                               for r in rounds]), fh, indent=1)
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process (a cold set-up each).

    Prints the summary JSON only when every workload gave a result.
    """
    results, code = {}, 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            code = code or proc.returncode or 1
            continue
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
        print(f"{name} correct={results[name]['correct']} "
              f"attempted={results[name]['attempted']} "
              f"failed={results[name]['failed']}")
        if not results[name]["correct"]:
            code = code or 1
    if len(results) == len(workloads.WORKLOADS):
        print(json.dumps(results))
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
