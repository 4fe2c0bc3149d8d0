"""The four benchmark workloads: seeded fixtures and the seqlab commands
of one round.

A workload is built once per run from its seed.  ``build`` writes the
fixture files into the work directory and returns a ``Workload`` whose
``ops`` are the seqlab command lines of one round, in order.  seqlab
sees only the fixture files and ``--coeffs``; the seed itself is never
passed to it.

Generators are kept here as sparse rows ({0-based coordinate: Fraction})
so that ``checks`` can test span membership against exactly what was
written, without reading seqlab's own fixture loader.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

WORKLOADS = ("lp2_float", "linf_exact", "c0_density", "linf_fleet")


@dataclass
class Op:
    """One seqlab command line; it fails when its exit code is not ``expect``.

    ``phase`` is "emit" (timed into emit_s), "verify" (timed into
    verify_s) or "probe" (timed into neither: the known-failing
    tampered-source witness).  ``before`` runs untimed ahead of the
    command.
    """

    phase: str
    argv: list
    expect: int = 0
    before: Optional[Callable[[], None]] = None


@dataclass
class Fixture:
    path: str
    space: dict
    truncation: int
    generators: list  # sparse rows {0-based coordinate: Fraction}

    @property
    def exact(self) -> bool:
        # seqlab's --mode auto: exact for l1, linf and c0
        return self.space["kind"] != "lp" or Fraction(self.space["p"]) == 1


@dataclass
class Workload:
    workdir: str
    fixtures: dict  # stem -> Fixture
    coeffs: dict = field(default_factory=dict)  # stem -> density coefficients
    ops: list = field(default_factory=list)
    # certificate path -> (kind, fixture stem, source certificate path or None)
    certs: dict = field(default_factory=dict)


def _write_fixture(workdir: str, stem: str, space: dict, t_len: int,
                   specs: list, rows: list) -> Fixture:
    path = os.path.join(workdir, f"{stem}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"space": space, "truncation": t_len, "generators": specs},
                  fh)
    return Fixture(path, space, t_len, rows)


def _unit_fixture(workdir, stem, space, t_len, dim) -> Fixture:
    specs = [{"kind": "unit", "index": j} for j in range(1, dim + 1)]
    rows = [{j - 1: Fraction(1)} for j in range(1, dim + 1)]
    return _write_fixture(workdir, stem, space, t_len, specs, rows)


def _dense_fixture(workdir, stem, space, t_len, rows) -> Fixture:
    specs = []
    for row in rows:
        coords = ["0/1"] * t_len
        for j, v in row.items():
            coords[j] = f"{v.numerator}/{v.denominator}"
        specs.append({"kind": "dense", "coords": coords})
    return _write_fixture(workdir, stem, space, t_len, specs, rows)


def _coeff_arg(coeffs) -> str:
    # "--coeffs=..." keeps a leading minus sign from reading as an option
    return "--coeffs=" + ",".join(f"{c.numerator}/{c.denominator}"
                                  for c in coeffs)


def _cli(*argv) -> list:
    return [str(a) for a in argv]


def tamper_source(src: str, dst: str) -> None:
    """Copy a zeroing certificate with one coordinate of dominance.f
    changed and its status set to "fail"; ``seqlab verify`` rejects it."""
    with open(src, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    f2 = doc["dominance"]["f"][1]["coords"]
    marker = doc["dominance"]["s"][1]
    f2[marker - 1] = f2[marker - 1] + 0.5
    doc["status"] = "fail"
    with open(dst, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":"),
                            allow_nan=False) + "\n")


# -- lp2_float ----------------------------------------------------------------

def _lp2_float(wl: Workload, rng: random.Random) -> None:
    d = wl.workdir
    fix = _unit_fixture(d, "l2", {"kind": "lp", "p": 2}, 2000, 40)
    wl.fixtures["l2"] = fix
    # unit-dominant with a fast-decaying dense remainder (the acceptance
    # suite's dense_f1 law with seeded signs and magnitudes), so the
    # zeroing corrections inside the density repair are nonzero
    coeffs = [Fraction(1)]
    for j in range(2, 41):
        mag = Fraction(rng.randint(1, 4), 4 * 10000 * 2 ** (j - 2))
        coeffs.append(mag if rng.random() < 0.5 else -mag)
    wl.coeffs["l2"] = coeffs

    lp, wit = os.path.join(d, "lp.json"), os.path.join(d, "lp_wit.json")
    den = os.path.join(d, "lp_den.json")
    bad = os.path.join(d, "lp_tampered.json")
    bad_wit = os.path.join(d, "lp_tampered_wit.json")
    wl.ops = [
        Op("emit", _cli("construct-lp", "--fixture", fix.path, "--eps",
                        "1/600", "--depth", 6, "--out", lp)),
        Op("verify", _cli("verify", lp)),
        Op("emit", _cli("witness", "--cert", lp, "--out", wit)),
        Op("verify", _cli("verify", wit)),
        Op("emit", _cli("density", "--fixture", fix.path, "--eps", "1/100",
                        "--depth", 4, _coeff_arg(coeffs), "--out", den)),
        Op("verify", _cli("verify", den)),
        # a witness must refuse a source that does not verify
        Op("probe", _cli("witness", "--cert", bad, "--out", bad_wit),
           expect=1, before=lambda: tamper_source(lp, bad)),
    ]
    wl.certs = {lp: ("zeroing", "l2", None), wit: ("witness", "l2", lp),
                den: ("density", "l2", None)}


# -- linf_exact ---------------------------------------------------------------

def _linf_exact(wl: Workload, rng: random.Random) -> None:
    d = wl.workdir
    fix = _unit_fixture(d, "linf", {"kind": "linf"}, 130, 30)
    wl.fixtures["linf"] = fix
    cert, wit = os.path.join(d, "linf_cert.json"), os.path.join(d, "linf_wit.json")
    wl.ops = [
        Op("emit", _cli("construct-linf", "--fixture", fix.path, "--depth", 6,
                        "--samples", 60, "--out", cert)),
        Op("verify", _cli("verify", cert)),
        Op("emit", _cli("witness", "--cert", cert, "--out", wit)),
        Op("verify", _cli("verify", wit)),
    ]
    wl.certs = {cert: ("sup_zeroing", "linf", None),
                wit: ("witness", "linf", cert)}


# -- c0_density ---------------------------------------------------------------

def _c0_density(wl: Workload, rng: random.Random) -> None:
    d = wl.workdir
    rows = [{i - 1: Fraction(1, 2 ** i)} for i in range(1, 37)]
    fix = _dense_fixture(d, "c0", {"kind": "c0"}, 96, rows)
    wl.fixtures["c0"] = fix
    # the acceptance suite's c0 law: +-k/8 with k in 1..16
    coeffs = [Fraction(rng.randint(1, 16), 8) * (1 if rng.random() < 0.5 else -1)
              for _ in rows]
    wl.coeffs["c0"] = coeffs
    den = os.path.join(d, "c0_den.json")
    wl.ops = [
        Op("emit", _cli("density", "--fixture", fix.path, "--eps", "1/20",
                        "--depth", 4, _coeff_arg(coeffs), "--out", den)),
        Op("verify", _cli("verify", den)),
    ]
    wl.certs = {den: ("density", "c0", None)}


# -- linf_fleet ---------------------------------------------------------------

FLEET_T_RANGE = (110, 150)
#: antithetic truncation pairs per fleet; the fixture count does not
#: follow the machine, so every machine runs the same work
FLEET_PAIRS = 1


def fleet_rows(rng: random.Random, t_len: int) -> list:
    """One fixture of the acceptance fleet's layout law, at truncation t_len.

    Strip generators first (diagonal plus a constant amplitude on the
    targets), then muted pivots (2/5 on a pivot coordinate, 1 on a
    target), filler units, and the targets beyond them.  Zero, one or two
    strips steer the cascade through its four cases.
    """
    n_strips = rng.randint(0, 2)
    n_targets = rng.randint(11, 13)
    n_fill = 18 - n_strips - n_targets
    pivot_base = n_strips + 1
    fill_base = pivot_base + n_targets
    target_base = fill_base + n_fill + 5
    targets = [target_base + 2 * i for i in range(n_targets)]
    rows = []
    for s in range(n_strips):
        amp = Fraction(rng.randint(15, 35), 100)
        row = {s: Fraction(1)}
        for j in targets:
            row[j - 1] = amp
        rows.append(row)
    for i, j in enumerate(targets):
        rows.append({pivot_base + i - 1: Fraction(2, 5), j - 1: Fraction(1)})
    for i in range(n_fill):
        rows.append({fill_base + i - 1: Fraction(1)})
    return rows


def _linf_fleet(wl: Workload, rng: random.Random, jobs: int) -> None:
    d = wl.workdir
    out_dir = os.path.join(d, "fleet")
    os.makedirs(out_dir, exist_ok=True)
    # antithetic truncations: a fixture at T is paired with one at
    # lo + hi - T, so every run carries the same total truncation while
    # each fixture's T is still uniform on the range
    lo, hi = FLEET_T_RANGE
    truncations = []
    for _ in range(FLEET_PAIRS):
        t_len = rng.randint(lo, hi)
        truncations += [t_len, lo + hi - t_len]
    paths = []
    for idx, t_len in enumerate(truncations):
        stem = f"fleet{idx}"
        fix = _dense_fixture(d, stem, {"kind": "linf"}, t_len,
                             fleet_rows(rng, t_len))
        wl.fixtures[stem] = fix
        paths.append(fix.path)
    argv = ["construct-linf"]
    for path in paths:
        argv += ["--fixture", path]
    argv += _cli("--depth", 3, "--samples", 60, "--jobs", jobs, "--out", out_dir)
    wl.ops = [Op("emit", argv)]
    for stem in wl.fixtures:
        cert = os.path.join(out_dir, f"{stem}.json")
        wl.ops.append(Op("verify", _cli("verify", cert)))
        wl.certs[cert] = ("sup_zeroing", stem, None)


def build(name: str, seed: int, workdir: str, jobs: int) -> Workload:
    """Write the fixtures of workload ``name`` for ``seed`` and return its plan."""
    os.makedirs(workdir, exist_ok=True)
    wl = Workload(workdir=workdir, fixtures={})
    rng = random.Random(seed)
    if name == "lp2_float":
        _lp2_float(wl, rng)
    elif name == "linf_exact":
        _linf_exact(wl, rng)
    elif name == "c0_density":
        _c0_density(wl, rng)
    elif name == "linf_fleet":
        _linf_fleet(wl, rng, jobs)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return wl
