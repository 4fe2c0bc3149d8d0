"""Truncated sequence-space arithmetic.

A sequence is modeled by its first T coordinates plus an optional bound
on the norm of the discarded tail.  Coordinate indices are 1-based
everywhere in the public API (``x.at(1)`` is the first coordinate), to
match the usual sequence-space conventions; the raw ``coords`` tuple is
0-based Python storage.

Two scalar modes coexist: exact ``Fraction`` coordinates (the sup norm
and the l1 norm stay rational) and ``float`` coordinates for general
lp.  A workspace never mixes modes.

All values are immutable after construction; every function here is
pure, so callers may share objects freely across threads.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .errors import (
    ConfigError,
    DimensionExhausted,
    IndexOutOfRange,
    LengthMismatch,
    ZeroVector,
)
from .scalar import (
    DEFAULT_ETA,
    Scalar,
    abs_pow,
    check_finite,
    parse_scalar,
    scalar_to_json,
    zero_tol,
)


@dataclass(frozen=True)
class AmbientSpace:
    """Which norm governs: lp with finite p >= 1, l-infinity, or c0.

    c0 uses the sup norm like linf; it differs only in fixture
    semantics (coordinates of c0 fixtures should tend to 0).
    """

    kind: str  # "lp" | "linf" | "c0"
    p: Optional[Scalar] = None

    def __post_init__(self):
        if self.kind not in ("lp", "linf", "c0"):
            raise ConfigError(f"space kind must be lp|linf|c0, got {self.kind!r}")
        if self.kind == "lp":
            if self.p is None or self.p < 1:
                raise ConfigError("space: p must satisfy p >= 1 for lp")
        elif self.p is not None:
            raise ConfigError(f"space: {self.kind} takes no p")

    @classmethod
    def lp(cls, p) -> "AmbientSpace":
        return cls("lp", Fraction(p) if not isinstance(p, float) else p)

    @classmethod
    def linf(cls) -> "AmbientSpace":
        return cls("linf")

    @classmethod
    def c0(cls) -> "AmbientSpace":
        return cls("c0")

    @property
    def is_sup(self) -> bool:
        return self.kind in ("linf", "c0")

    @property
    def integer_p(self) -> Optional[int]:
        """p as an int when it is one (enables exact p-th-power comparisons)."""
        if self.kind != "lp":
            return None
        frac = Fraction(self.p)
        return int(frac) if frac.denominator == 1 else None

    def as_json(self) -> dict:
        if self.kind == "lp":
            return {"kind": "lp", "p": scalar_to_json(self.p)}
        return {"kind": self.kind}

    @classmethod
    def from_json(cls, obj: dict) -> "AmbientSpace":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ConfigError(f"space spec must be an object with 'kind': {obj!r}")
        kind = obj["kind"]
        if kind == "lp":
            if "p" not in obj:
                raise ConfigError("space: lp requires 'p'")
            p = obj["p"]
            p = Fraction(p) if isinstance(p, (str, int)) else float(p)
            return cls("lp", p)
        return cls(kind)


@dataclass(frozen=True)
class Seq:
    """A truncated sequence: T coordinates plus a tail-norm bound.

    ``tail_bound`` bounds the norm of the discarded coordinates beyond T
    (0 means the sequence is exactly its truncation).  Linear operations
    combine tail bounds by the triangle inequality, so they remain
    sound upper bounds, never underestimates.
    """

    coords: tuple
    exact: bool
    tail_bound: Scalar = 0

    def __post_init__(self):
        if self.tail_bound < 0:
            raise ConfigError("tail_bound must be nonnegative")

    def __len__(self) -> int:
        return len(self.coords)

    def at(self, j: int) -> Scalar:
        """Coordinate at 1-based index j."""
        if not 1 <= j <= len(self.coords):
            raise IndexOutOfRange(f"index {j} outside [1, {len(self.coords)}]")
        return self.coords[j - 1]

    def add(self, other: "Seq") -> "Seq":
        _check_lengths(self, other)
        return Seq(tuple(a + b for a, b in zip(self.coords, other.coords)),
                   self.exact and other.exact,
                   self.tail_bound + other.tail_bound)

    def sub(self, other: "Seq") -> "Seq":
        _check_lengths(self, other)
        return Seq(tuple(a - b for a, b in zip(self.coords, other.coords)),
                   self.exact and other.exact,
                   self.tail_bound + other.tail_bound)

    def scale(self, a: Scalar) -> "Seq":
        exact = self.exact and isinstance(a, (Fraction, int))
        return Seq(tuple(a * v for v in self.coords), exact, abs(a) * self.tail_bound)

    def abs_coords(self) -> "Seq":
        return Seq(tuple(abs(v) for v in self.coords), self.exact, self.tail_bound)

    def restrict(self, window: tuple[int, int]) -> "Seq":
        """Zero out everything outside the 1-based inclusive window."""
        lo, hi = window
        zero = Fraction(0) if self.exact else 0.0
        coords = tuple(v if lo <= j + 1 <= hi else zero
                       for j, v in enumerate(self.coords))
        return Seq(coords, self.exact, Fraction(0) if self.exact else 0.0)

    def support(self, eta=0) -> list[int]:
        return [j + 1 for j, v in enumerate(self.coords) if abs(v) > eta]

    @classmethod
    def zero(cls, t: int, exact: bool) -> "Seq":
        z = Fraction(0) if exact else 0.0
        return cls((z,) * t, exact, z)

    @classmethod
    def unit(cls, j: int, t: int, exact: bool) -> "Seq":
        if not 1 <= j <= t:
            raise IndexOutOfRange(f"unit index {j} outside [1, {t}]")
        zero = Fraction(0) if exact else 0.0
        one = Fraction(1) if exact else 1.0
        coords = [zero] * t
        coords[j - 1] = one
        return cls(tuple(coords), exact, zero)

    def as_json(self) -> dict:
        return {"coords": [scalar_to_json(v) for v in self.coords],
                "exact": self.exact,
                "tail_bound": scalar_to_json(self.tail_bound)}

    @classmethod
    def from_json(cls, obj: dict) -> "Seq":
        exact = bool(obj.get("exact", False))
        coords = tuple(parse_scalar(v, exact) for v in obj["coords"])
        tail = parse_scalar(obj.get("tail_bound", 0), exact)
        return cls(coords, exact, tail)


@dataclass(frozen=True)
class Tolerances:
    """Workspace tolerances: zero threshold, truncation, and depth budget."""

    eta: float = DEFAULT_ETA
    truncation: int = 256
    depth: int = 1

    def __post_init__(self):
        if not self.eta > 0:
            raise ConfigError("tolerances: eta must satisfy eta > 0")
        if self.depth < 1:
            raise ConfigError("tolerances: depth must satisfy depth >= 1")
        if self.truncation < 4 * self.depth:
            raise ConfigError(
                f"tolerances: truncation must satisfy T >= 4*depth "
                f"(T={self.truncation}, depth={self.depth})")


def _check_lengths(x: Seq, y: Seq):
    if len(x) != len(y):
        raise LengthMismatch(f"lengths differ: {len(x)} vs {len(y)}")


def norm(x: Seq, space: AmbientSpace) -> Scalar:
    """The space's norm of the truncation (tail_bound not included).

    Exact for the sup norm and l1 on Fraction coordinates; general lp
    returns a float.  Raises NonFiniteCoordinate on NaN/inf input.
    """
    for v in x.coords:
        check_finite(v)
    if space.is_sup:
        return max((abs(v) for v in x.coords), default=Fraction(0) if x.exact else 0.0)
    p = space.p
    if p == 1:
        return sum((abs(v) for v in x.coords), Fraction(0) if x.exact else 0.0)
    total = norm_pth_power(x, space)
    return float(total) ** (1.0 / float(p))


def norm_pth_power(x: Seq, space: AmbientSpace) -> Scalar:
    """Sum of |x(j)|^p; exact when coordinates are exact and p is an integer.

    This is the comparison-safe form for exact mode: a^p <= b^p iff a <= b.
    """
    if space.is_sup:
        raise ConfigError("norm_pth_power needs a finite p")
    p = space.integer_p
    if p is not None:
        return sum((abs_pow(v, p) for v in x.coords),
                   Fraction(0) if x.exact else 0.0)
    return sum(float(abs(v)) ** float(space.p) for v in x.coords)


def hadamard(x: Seq, y: Seq) -> Seq:
    """Coordinatewise product; exactness preserved when both inputs exact.

    Tail bounds multiply: the discarded tail of x*y is bounded by the
    product of the factors' tail bounds in both the l1 and sup
    conventions (the l1 bound dominates the sup of the tail).
    """
    _check_lengths(x, y)
    return Seq(tuple(a * b for a, b in zip(x.coords, y.coords)),
               x.exact and y.exact,
               x.tail_bound * y.tail_bound)


def tail_norm(x: Seq, n: int, space: AmbientSpace) -> Scalar:
    """Upper bound for the norm of (x(n+1), ..., x(T), discarded tail).

    The stored tail_bound joins sub-additively: max for the sup norm,
    p-th-power addition for lp.  Always an upper bound, never an
    underestimate.
    """
    if not 1 <= n <= len(x):
        raise IndexOutOfRange(f"tail index {n} outside [1, {len(x)}]")
    rest = Seq(x.coords[n:], x.exact, 0)
    if space.is_sup:
        s = norm(rest, space)
        return max(s, x.tail_bound)
    if space.p == 1:
        return norm(rest, space) + x.tail_bound
    p = space.integer_p
    if p is not None and x.exact and isinstance(x.tail_bound, Fraction):
        total = norm_pth_power(rest, space) + x.tail_bound ** p
        return float(total) ** (1.0 / float(space.p))
    total = norm_pth_power(rest, space) + float(x.tail_bound) ** float(space.p)
    return float(total) ** (1.0 / float(space.p))


def combine(basis: Sequence[Seq], coeffs: Sequence[Scalar]) -> Seq:
    """Linear combination sum(c_i * b_i) with triangle-inequality tail bound."""
    if len(basis) != len(coeffs):
        raise LengthMismatch(f"{len(basis)} vectors vs {len(coeffs)} coefficients")
    if not basis:
        raise ConfigError("combine: empty basis")
    t = len(basis[0])
    exact = all(b.exact for b in basis) and all(
        isinstance(c, (Fraction, int)) for c in coeffs)
    zero = Fraction(0) if exact else 0.0
    acc = [zero] * t
    tail = zero
    for c, b in zip(coeffs, basis):
        if c == 0:
            continue
        for j, v in enumerate(b.coords):
            acc[j] += c * v
        tail += abs(c) * b.tail_bound
    if not exact:
        acc = [float(v) for v in acc]
        tail = float(tail)
    return Seq(tuple(acc), exact, tail)


# ---------------------------------------------------------------------------
# Exact scans
#
# A scan reads one number from each combination (an argmax, a sign, a sup,
# a ratio) and then drops it.  In exact mode it runs on integer numerators
# over one common denominator instead of Fractions; only the vectors a
# construction keeps are built as Seqs.
# ---------------------------------------------------------------------------

def scan_rows(family: Sequence[Seq]) -> tuple[list, int]:
    """The coordinates of family as scan rows, plus their denominator D.

    Exact mode: integer numerators over one common denominator, so that
    ``family[i].at(j) == rows[i][j - 1] / D``.  Float mode: the
    coordinates unchanged, with D = 1.  Tail bounds are not carried.
    """
    if not all(f.exact for f in family):
        return [list(f.coords) for f in family], 1
    denom = math.lcm(*(v.denominator for f in family for v in f.coords))
    rows = [[v.numerator * (denom // v.denominator) for v in f.coords]
            for f in family]
    return rows, denom


def _running_sums(rows: Sequence[list], coeffs: Sequence[Scalar]):
    """Yield the running row after each term of sum(c_i * row_i).

    Fraction coefficients are first multiplied by the least common
    multiple E of their denominators, so integer rows stay integer and
    every yielded row is E times the true partial sum (E = 1 for int and
    float coefficients).  Terms are added in combine's order and zero
    coefficients are skipped, so float rows give combine's bits.
    """
    if len(rows) != len(coeffs):
        raise LengthMismatch(f"{len(rows)} rows vs {len(coeffs)} coefficients")
    if not rows:
        raise ConfigError("scan: empty family")
    if any(isinstance(c, Fraction) for c in coeffs):
        scale = math.lcm(*(c.denominator for c in coeffs))
        coeffs = [c.numerator * (scale // c.denominator) for c in coeffs]
    acc = [0.0 if isinstance(rows[0][0], float) else 0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            acc = [a + c * v for a, v in zip(acc, row)]
        yield acc


def scan_combine(rows: Sequence[list], coeffs: Sequence[Scalar]) -> list:
    """A positive multiple of sum(c_i * row_i) over scan rows.

    The multiple keeps argmax, signs, zero tests and ratios of sups; it
    is exactly the sum for int or float coefficients (see _running_sums).
    """
    for acc in _running_sums(rows, coeffs):
        pass
    return acc


def scan_prefix_sups(rows: Sequence[list], coeffs: Sequence[Scalar]) -> list:
    """max |sum_{i<=k} c_i row_i| for every prefix k, all scaled by one
    common positive multiple (exactly 1 for int or float coefficients)."""
    return [max(map(abs, acc)) for acc in _running_sums(rows, coeffs)]


@dataclass(frozen=True)
class Subspace:
    """A finite spanning family with a row-reduced coordinate basis.

    Desk-scale stand-in for an infinite dimensional closed subspace:
    constructions consume dimensions and raise DimensionExhausted when
    the rank runs out.
    """

    ambient: AmbientSpace
    generators: tuple
    reduced_basis: tuple
    pivots: tuple  # 1-based coordinate positions of the RREF pivots
    dim: int
    eta: float = DEFAULT_ETA

    @property
    def truncation(self) -> int:
        return len(self.generators[0]) if self.generators else 0

    @property
    def exact(self) -> bool:
        return bool(self.generators) and self.generators[0].exact

    @classmethod
    def build(cls, ambient: AmbientSpace, generators: Sequence[Seq],
              eta: float = DEFAULT_ETA) -> "Subspace":
        if not generators:
            raise ConfigError("subspace needs at least one generator")
        t = len(generators[0])
        exact = generators[0].exact
        for g in generators:
            if len(g) != t:
                raise LengthMismatch("generators must share one truncation length")
            if g.exact != exact:
                raise ConfigError("generators must share one scalar mode")
        rows = [list(g.coords) for g in generators]
        tails = [g.tail_bound for g in generators]
        rows, tails, pivot_cols = linalg.rref(rows, zero_tol(exact, eta), tails)
        basis = tuple(Seq(tuple(r), exact, tb) for r, tb in zip(rows, tails))
        sub = cls(ambient, tuple(generators), basis,
                  tuple(pc + 1 for pc in pivot_cols), len(basis), eta)
        for g in generators:
            if sub.residual_norm(g) > zero_tol(exact, eta):
                raise ConfigError("generator escaped its own reduced basis "
                                  "(numerically degenerate fixture)")
        return sub

    def residual_norm(self, x: Seq) -> Scalar:
        """Sup-norm of x minus its projection onto the reduced basis."""
        rows = [b.coords for b in self.reduced_basis]
        res = linalg.residual_vector(list(x.coords), rows,
                                     [pc - 1 for pc in self.pivots])
        return max((abs(v) for v in res), default=Fraction(0) if self.exact else 0.0)

    def contains(self, x: Seq, eta: Optional[float] = None) -> bool:
        tol = zero_tol(self.exact, self.eta if eta is None else eta)
        return self.residual_norm(x) <= tol

    def coefficients_for(self, x: Seq) -> list[Scalar]:
        rows = [b.coords for b in self.reduced_basis]
        return linalg.span_coefficients(list(x.coords), rows,
                                        [pc - 1 for pc in self.pivots])


def vanish_at(subspace: Subspace, indices: Sequence[int],
              eta: Optional[float] = None) -> Seq:
    """A unit vector of span(subspace) vanishing at the given 1-based indices.

    Solves the homogeneous system over the reduced basis and normalizes
    the nullspace vector picked by the lexicographically-first free
    variable.  Raises DimensionExhausted when the nullspace is trivial.
    """
    tol = zero_tol(subspace.exact, subspace.eta if eta is None else eta)
    t = subspace.truncation
    for j in indices:
        if not 1 <= j <= t:
            raise IndexOutOfRange(f"constraint index {j} outside [1, {t}]")
    basis = subspace.reduced_basis
    matrix = [[b.at(j) for b in basis] for j in indices]
    coeffs = linalg.nullspace_vector(matrix, len(basis), tol)
    if coeffs is None:
        raise DimensionExhausted(
            f"no nonzero span vector vanishes at all {len(indices)} indices "
            f"(dim={subspace.dim})")
    f = combine(basis, coeffs)
    return normalize(f, subspace.ambient, eta=subspace.eta if eta is None else eta)


def vanish_on_prefix(subspace: Subspace, n: int,
                     eta: Optional[float] = None) -> Seq:
    """Unit span vector with |f(j)| <= eta for 1 <= j <= n.

    Requires dim > n -- the desk-scale surrogate for infinite
    dimensionality; DimensionExhausted signals the construction depth
    exceeded what this finite model supports.
    """
    if subspace.dim <= n:
        raise DimensionExhausted(
            f"prefix length {n} >= dim {subspace.dim}: the finite model "
            "cannot supply a vector vanishing on this prefix")
    return vanish_at(subspace, range(1, n + 1), eta=eta)


def normalize(x: Seq, space: AmbientSpace, eta: float = DEFAULT_ETA) -> Seq:
    """x / norm(x).  Exactness survives only where the norm is rational."""
    nrm = norm(x, space)
    if nrm <= zero_tol(x.exact, eta):
        raise ZeroVector("cannot normalize a (numerically) zero vector")
    if x.exact and isinstance(nrm, Fraction):
        return x.scale(Fraction(1) / nrm)
    coords = tuple(float(v) / float(nrm) for v in x.coords)
    return Seq(coords, False, float(x.tail_bound) / float(nrm))


# ---------------------------------------------------------------------------
# Fixture JSON (external interface)
#
# {"space": {"kind":"lp","p":2} | {"kind":"linf"} | {"kind":"c0"},
#  "truncation": T,
#  "generators": [{"kind":"dense","coords":[...]}
#                 | {"kind":"geometric","ratio":"num/den","scale":"num/den"}
#                 | {"kind":"unit","index": j}]}
# Rationals serialize as "num/den" strings.
# ---------------------------------------------------------------------------

def subspace_from_json(obj: dict, mode: str = "auto",
                       eta: float = DEFAULT_ETA) -> Subspace:
    """Build a Subspace from the fixture JSON object."""
    if not isinstance(obj, dict):
        raise ConfigError("fixture must be a JSON object")
    for key in ("space", "truncation", "generators"):
        if key not in obj:
            raise ConfigError(f"fixture missing required key {key!r}")
    space = AmbientSpace.from_json(obj["space"])
    t = obj["truncation"]
    if not isinstance(t, int) or t < 1:
        raise ConfigError(f"truncation must be a positive integer, got {t!r}")
    exact = _resolve_mode(mode, space)
    gens = []
    for spec in obj["generators"]:
        gens.append(_generator_from_json(spec, t, exact, space))
    return Subspace.build(space, gens, eta)


def _resolve_mode(mode: str, space: AmbientSpace) -> bool:
    if mode == "auto":
        return space.is_sup or space.p == 1
    if mode == "float":
        return False
    if mode == "exact":
        if not (space.is_sup or space.p == 1):
            raise ConfigError(
                "mode: exact mode supports l1, linf and c0 only "
                "(general lp normalization is irrational); use --mode float")
        return True
    raise ConfigError(f"mode must be exact|float|auto, got {mode!r}")


def _generator_from_json(spec: dict, t: int, exact: bool,
                         space: AmbientSpace) -> Seq:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"generator spec must be an object with 'kind': {spec!r}")
    kind = spec["kind"]
    if kind == "dense":
        coords = spec.get("coords")
        if not isinstance(coords, list):
            raise ConfigError("dense generator requires 'coords' list")
        if len(coords) > t:
            raise ConfigError(f"dense generator longer than truncation {t}")
        vals = [parse_scalar(v, exact) for v in coords]
        pad = Fraction(0) if exact else 0.0
        vals.extend([pad] * (t - len(vals)))
        return Seq(tuple(vals), exact, pad)
    if kind == "unit":
        j = spec.get("index")
        if not isinstance(j, int):
            raise ConfigError("unit generator requires integer 'index'")
        return Seq.unit(j, t, exact)
    if kind == "geometric":
        ratio = parse_scalar(spec.get("ratio"), True)
        scale = parse_scalar(spec.get("scale", 1), True)
        from .lineability import geometric_generator  # local import: no cycle at call time
        base = geometric_generator(ratio, t, space=space)
        g = base.scale(scale)
        if not exact:
            g = Seq(tuple(float(v) for v in g.coords), False, float(g.tail_bound))
        return g
    raise ConfigError(f"unknown generator kind {kind!r}")


def load_fixture(path: str, mode: str = "auto", eta: float = DEFAULT_ETA) -> Subspace:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"fixture {path}: invalid JSON ({exc})") from exc
    return subspace_from_json(obj, mode=mode, eta=eta)
