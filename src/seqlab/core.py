"""Truncated sequence-space arithmetic.

A sequence is modeled by its first T coordinates plus an optional bound
on the norm of the discarded tail.  Coordinate indices are 1-based
everywhere in the public API (``x.at(1)`` is the first coordinate), to
match the usual sequence-space conventions; the raw ``coords`` tuple is
0-based Python storage.

Two scalar modes coexist: exact ``Fraction`` coordinates (the sup norm
and the l1 norm stay rational) and ``float`` coordinates for general
lp.  A workspace never mixes modes.

Every ``Seq`` caches its support, ``Seq.nonzero``: the ascending tuple
of the 0-based indices j with ``coords[j] != 0`` (so a float -0.0 is not
in it).  A Seq built directly finds it once, on first use.  The exact
kernels (``add``, ``sub``, ``scale``, ``abs_coords``, ``restrict``,
``lift``, ``unit``, ``combine``) and ``tail_norm``'s slice pass on the
support they already know, minus any cancellations; ``with_tail`` keeps
a cached one.  The readers
(``norm``, ``norm_pth_power``, ``combine``, ``scan_rows`` and the
``Subspace`` residual) iterate it instead of the T coordinates, in both
modes: each one skips zeros or takes |v|, so a -0.0 it no longer visits
changes no value.  So mostly-zero vectors cost in proportion to their
nonzeros, with the values, types and float bits a full loop gives;
``coords`` stays the dense tuple.

A float Seq also caches its zero frame, ``Seq.frame`` = (z, marked):
every coordinate whose index is not in the ascending tuple marked is
the float zero z (+0.0 or -0.0), bit for bit.  The float kernels
(``add``, ``sub``, ``scale``, ``abs_coords``, ``normalize`` and the
output of ``combine``) compute the result's zero once from their
operands' zeros (-0.0 - +0.0 is -0.0, a * 0.0 is -0.0 for a < 0) and
evaluate the marked indices only, each with the expression a full loop
would apply to it; the dense ``coords`` are that zero repeated and
patched.  So they keep every signed zero and float bit while costing in
proportion to the nonzeros.  A result whose zero is not a zero (inf *
0.0 is NaN) caches nothing and finds its caches when first asked.

Exact coordinates cross JSON once per distinct value: ``Seq.from_json``
and dense fixture generators parse each distinct "num/den" string once
(``scalar.parse_scalars``), and ``Seq.as_json`` writes an exact vector
as "0/1" off its support, converting only the nonzeros.

All values are immutable after construction, except that a Seq fills
its private caches ``_nz`` and ``_frame`` on first use; those writes
are idempotent, giving the same tuple whichever thread makes them.
Every function here is pure, so callers may share objects freely across
threads.
"""
from __future__ import annotations

import json
import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
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
    Scalar,
    check_finite,
    parse_scalar,
    parse_scalars,
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

    ``nonzero`` is the cached support, {j : coords[j] != 0} as an
    ascending tuple of 0-based indices, in both modes.  ``frame`` is the
    cached zero frame (z, marked) that the float kernels read: every
    coordinate off the ascending 0-based indices marked is the float
    zero z, bit for bit.  Neither cache is compared, hashed or shown,
    and both travel with a pickled Seq.
    """

    coords: tuple
    exact: bool
    tail_bound: Scalar = 0
    _nz: Optional[tuple] = field(default=None, init=False, repr=False,
                                 compare=False)
    _frame: Optional[tuple] = field(default=None, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        if self.tail_bound < 0:
            raise ConfigError("tail_bound must be nonnegative")

    @property
    def nonzero(self) -> tuple:
        """Ascending 0-based indices of the nonzero coordinates."""
        nz = self._nz
        if nz is None:
            nz = tuple(compress(range(len(self.coords)), self.coords))
            object.__setattr__(self, "_nz", nz)
        return nz

    @property
    def frame(self) -> tuple:
        """(z, marked): every coordinate whose 0-based index is not in the
        ascending tuple marked is the float zero z, bit for bit.  A Seq
        built from a dense tuple finds it once: z = +0.0, and marked
        holds the support, the -0.0s and any coordinate not a float."""
        fr = self._frame
        if fr is None:
            fr = 0.0, _marked(self.coords, self.nonzero)
            object.__setattr__(self, "_frame", fr)
        return fr

    def with_tail(self, tail_bound: Scalar) -> "Seq":
        """These coordinates with another tail bound; a cached support
        carries over."""
        out = Seq(self.coords, self.exact, tail_bound)
        object.__setattr__(out, "_nz", self._nz)
        return out

    def __len__(self) -> int:
        return len(self.coords)

    def at(self, j: int) -> Scalar:
        """Coordinate at 1-based index j."""
        if not 1 <= j <= len(self.coords):
            raise IndexOutOfRange(f"index {j} outside [1, {len(self.coords)}]")
        return self.coords[j - 1]

    def add(self, other: "Seq") -> "Seq":
        _check_lengths(self, other)
        tail = self.tail_bound + other.tail_bound
        if not (self.exact and other.exact):
            (zx, mx), (zy, my) = self.frame, other.frame
            mine, theirs, cols = self.coords, other.coords, _union(mx, my)
            return _float_seq(len(mine), zx + zy, cols,
                              [mine[j] + theirs[j] for j in cols], tail)
        coords, theirs = list(self.coords), other.coords
        for j in other.nonzero:
            a = coords[j]
            coords[j] = a + theirs[j] if a else theirs[j]
        return _exact_seq(coords, tail,
                          _union_support(coords, (self.nonzero, other.nonzero)))

    def sub(self, other: "Seq") -> "Seq":
        _check_lengths(self, other)
        tail = self.tail_bound + other.tail_bound
        if not (self.exact and other.exact):
            (zx, mx), (zy, my) = self.frame, other.frame
            mine, theirs, cols = self.coords, other.coords, _union(mx, my)
            return _float_seq(len(mine), zx - zy, cols,
                              [mine[j] - theirs[j] for j in cols], tail)
        coords, theirs = list(self.coords), other.coords
        for j in other.nonzero:
            coords[j] = coords[j] - theirs[j]
        return _exact_seq(coords, tail,
                          _union_support(coords, (self.nonzero, other.nonzero)))

    def scale(self, a: Scalar) -> "Seq":
        tail = abs(a) * self.tail_bound
        if not (self.exact and isinstance(a, (Fraction, int))):
            (z, marked), coords = self.frame, self.coords
            return _float_seq(len(coords), a * z, marked,
                              [a * coords[j] for j in marked], tail)
        coords, nz = list(self.coords), self.nonzero
        for j in nz:
            coords[j] = a * coords[j]
        return _exact_seq(coords, tail, nz if a else ())

    def abs_coords(self) -> "Seq":
        if not self.exact:
            (z, marked), coords = self.frame, self.coords
            return _float_seq(len(coords), abs(z), marked,
                              [abs(coords[j]) for j in marked],
                              self.tail_bound)
        coords, nz = list(self.coords), self.nonzero
        for j in nz:
            coords[j] = abs(coords[j])
        return _exact_seq(coords, self.tail_bound, nz)

    def restrict(self, window: tuple[int, int]) -> "Seq":
        """Zero out everything outside the 1-based inclusive window."""
        t = len(self.coords)
        lo = min(max(window[0], 1), t + 1) - 1  # 0-based, half-open [lo, hi)
        hi = max(min(window[1], t), lo)
        zero = Fraction(0) if self.exact else 0.0
        coords = (zero,) * lo + tuple(self.coords[lo:hi]) + (zero,) * (t - hi)
        if not self.exact:
            return Seq(coords, False, 0.0)
        nz = self.nonzero
        return _exact_seq(coords, zero,
                          nz[bisect_left(nz, lo):bisect_left(nz, hi)])

    def lift(self) -> "Seq":
        """This vector in exact mode: each float becomes the rational it
        stores, so norms of the result round only once, at the end."""
        if self.exact:
            return self
        coords, nz = [Fraction(0)] * len(self.coords), self.nonzero
        for j in nz:
            coords[j] = Fraction(self.coords[j])
        return _exact_seq(coords, Fraction(self.tail_bound), nz)

    @classmethod
    def zero(cls, t: int, exact: bool) -> "Seq":
        z = Fraction(0) if exact else 0.0
        return _known_support(cls((z,) * t, exact, z), ())

    @classmethod
    def unit(cls, j: int, t: int, exact: bool) -> "Seq":
        if not 1 <= j <= t:
            raise IndexOutOfRange(f"unit index {j} outside [1, {t}]")
        zero = Fraction(0) if exact else 0.0
        one = Fraction(1) if exact else 1.0
        coords = [zero] * t
        coords[j - 1] = one
        return _known_support(cls(tuple(coords), exact, zero), (j - 1,))

    def as_json(self) -> dict:
        coords = self.coords
        kinds = set(map(type, coords))
        if kinds <= {float}:  # scalar_to_json is the identity on floats
            out = list(coords)
        elif kinds <= {Fraction, int}:  # every zero of these is "0/1"
            out = ["0/1"] * len(coords)
            for j in self.nonzero:
                out[j] = scalar_to_json(coords[j])
        else:
            out = [scalar_to_json(v) for v in coords]
        return {"coords": out, "exact": self.exact,
                "tail_bound": scalar_to_json(self.tail_bound)}

    @classmethod
    def from_json(cls, obj: dict) -> "Seq":
        exact = bool(obj.get("exact", False))
        raw = obj["coords"]
        if exact:
            coords = tuple(parse_scalars(raw, True))
        elif _all_float(raw):
            coords = tuple(raw)
        else:
            coords = tuple(v if type(v) is float else parse_scalar(v, False)
                           for v in raw)
        if not exact:  # JSON floats are kept as they are: one finiteness pass
            _check_finite_coords(coords)
        tail = parse_scalar(obj.get("tail_bound", 0), exact)
        return cls(coords, exact, tail)


def _known_support(x: Seq, nz: tuple) -> Seq:
    """x with its support cached as nz, which the caller knows is exact."""
    object.__setattr__(x, "_nz", nz)
    return x


def _exact_seq(coords: list, tail: Scalar, nz: tuple) -> Seq:
    """The exact Seq on coords, with support nz."""
    return _known_support(Seq(tuple(coords), True, tail), nz)


def _all_float(values) -> bool:
    """Whether every value's type is exactly float."""
    return set(map(type, values)) <= {float}


#: the bits of -0.0, read as an unsigned 64-bit integer
_NEG_ZERO = array("Q", array("d", (-0.0,)).tobytes())[0]


def _marked(coords: tuple, nz: tuple) -> tuple:
    """The ascending indices of the coordinates that are not the float
    +0.0 bit for bit, given the support nz: nz and the -0.0s when every
    coordinate is a float (found on their bits), else every index whose
    coordinate is nonzero, -0.0 or not a float."""
    if not _all_float(coords):
        return tuple(j for j, v in enumerate(coords) if type(v) is not float
                     or v or math.copysign(1.0, v) < 0)
    words = array("Q", array("d", coords).tobytes())
    if _NEG_ZERO not in words:
        return nz
    return tuple(sorted([*nz, *(j for j, w in enumerate(words)
                                if w == _NEG_ZERO)]))


def _union(a: tuple, b: tuple) -> tuple:
    """The ascending union of two ascending index tuples."""
    return a if a == b else tuple(sorted(set(a).union(b)))


def _float_seq(t: int, z: float, cols, vals: list, tail: Scalar) -> Seq:
    """The float Seq of length t that is z off the ascending indices cols
    and vals on them.  When z is a zero, its support and frame are
    cached: the indices whose value is not z, bit for bit, are marked."""
    coords = [z] * t
    for j, v in zip(cols, vals):
        coords[j] = v
    out = Seq(tuple(coords), False, tail)
    if z == 0:
        sign = math.copysign(1.0, z)
        object.__setattr__(out, "_nz", tuple(compress(cols, vals)))
        object.__setattr__(out, "_frame", (z, tuple(
            j for j, v in zip(cols, vals) if v or type(v) is not float
            or math.copysign(1.0, v) != sign)))
    return out


def _union_support(coords: list, supports) -> tuple:
    """The support of coords, given supports whose union holds it: the
    union, re-tested for cancellations."""
    return tuple(j for j in sorted(set().union(*supports)) if coords[j])


def _check_lengths(x: Seq, y: Seq):
    if len(x) != len(y):
        raise LengthMismatch(f"lengths differ: {len(x)} vs {len(y)}")


def _check_finite_coords(coords: Sequence) -> None:
    """Raise NonFiniteCoordinate on the first NaN or infinite coordinate.

    coords is read twice, so it must be a sequence, not an iterator."""
    if not all(map(math.isfinite, coords)):
        for v in coords:
            check_finite(v)


def norm(x: Seq, space: AmbientSpace) -> Scalar:
    """The space's norm of the truncation (tail_bound not included).

    Exact for the sup norm and l1 on Fraction coordinates; general lp
    returns a float.  Raises NonFiniteCoordinate on NaN/inf input.
    """
    coords, zero = x.coords, Fraction(0) if x.exact else 0.0
    if not x.exact:  # NaN and +-inf are nonzero, so in the support
        _check_finite_coords([coords[j] for j in x.nonzero])
    if space.is_sup:
        return max((abs(coords[j]) for j in x.nonzero), default=zero)
    if space.p == 1:
        return sum((abs(coords[j]) for j in x.nonzero), zero)
    total = norm_pth_power(x, space)
    return float(total) ** (1.0 / float(space.p))


def norm_pth_power(x: Seq, space: AmbientSpace) -> Scalar:
    """Sum of |x(j)|^p; exact when coordinates are exact and p is an integer.

    This is the comparison-safe form for exact mode: a^p <= b^p iff a <= b.
    """
    if space.is_sup:
        raise ConfigError("norm_pth_power needs a finite p")
    p, coords = space.integer_p, x.coords
    values = (abs(coords[j]) for j in x.nonzero)
    if p is not None and x.exact:
        return sum((v ** p for v in values), Fraction(0))
    p = float(space.p)  # a Fraction's ** p is float(|v|) ** p
    return sum((v ** p for v in values), 0.0)


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
    nz = x.nonzero
    rest = _known_support(Seq(x.coords[n:], x.exact, 0),
                          tuple(j - n for j in nz[bisect_left(nz, n):]))
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
    """Linear combination sum(c_i * b_i) with triangle-inequality tail bound.

    Each vector is read on its support, in both modes.  A float
    accumulator starts at +0.0 and round-to-nearest addition gives -0.0
    only from -0.0 + -0.0, so it never holds -0.0 and adding c * (+-0.0)
    for a finite c keeps its bits.  So a float result's frame is +0.0
    off its support.
    """
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
    supports = []
    for c, b in zip(coeffs, basis):
        if c == 0:
            continue
        coords, nz = b.coords, b.nonzero
        supports.append(nz)
        for j in nz:
            acc[j] += c * coords[j]
        tail += abs(c) * b.tail_bound
    if exact:
        return _exact_seq(acc, tail, _union_support(acc, supports))
    cols = sorted(set().union(*supports))
    return _float_seq(t, 0.0, cols, [float(acc[j]) for j in cols],
                      float(tail))


# ---------------------------------------------------------------------------
# Exact scans
#
# A scan reads one number from each combination (an argmax, a sign, a sup,
# a ratio) and then drops it.  It runs on the columns where the family is
# nonzero, and in exact mode on integer numerators over one common
# denominator instead of Fractions; only the vectors a construction keeps
# are built as Seqs.
# ---------------------------------------------------------------------------

def scan_rows(family: Sequence[Seq]) -> tuple[list, int, list]:
    """The family's nonzero columns as scan rows: (rows, D, cols).

    cols lists, ascending, the 0-based coordinates where some vector of
    the family is nonzero (a column holding only +-0.0 is dropped), and
    row entry p belongs to coordinate cols[p].  Every dropped column is
    zero in every combination, so sups, and the first maximum and its
    sign of a nonzero combination, read off the rows are those of the
    full vectors.  An all-zero family keeps column 0, so its scans still
    see one zero.

    Exact mode: integer numerators over one common denominator, so that
    ``family[i].at(cols[p] + 1) == rows[i][p] / D``; a row is built from
    its vector's support, so it costs its nonzeros.  Float mode: the
    coordinates unchanged, with D = 1.  Tail bounds are not carried.
    """
    cols = sorted(set().union(*(f.nonzero for f in family))) or [0]
    if not all(f.exact for f in family):
        return [[f.coords[j] for j in cols] for f in family], 1, cols
    denom = math.lcm(*(f.coords[j].denominator for f in family
                       for j in f.nonzero))
    at = {j: p for p, j in enumerate(cols)}
    rows = []
    for f in family:
        row = [0] * len(cols)
        for j in f.nonzero:
            v = f.coords[j]
            row[at[j]] = v.numerator * (denom // v.denominator)
        rows.append(row)
    return rows, denom, cols


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

    @property
    def truncation(self) -> int:
        return len(self.generators[0]) if self.generators else 0

    @property
    def exact(self) -> bool:
        return bool(self.generators) and self.generators[0].exact

    @classmethod
    def build(cls, ambient: AmbientSpace,
              generators: Sequence[Seq]) -> "Subspace":
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
        rows, tails, pivot_cols = linalg.rref(rows, zero_tol(exact), tails)
        basis = tuple(Seq(tuple(r), exact, tb) for r, tb in zip(rows, tails))
        sub = cls(ambient, tuple(generators), basis,
                  tuple(pc + 1 for pc in pivot_cols), len(basis))
        for g in generators:
            if not sub.contains(g):
                raise ConfigError("generator escaped its own reduced basis "
                                  "(numerically degenerate fixture)")
        return sub

    def residual_norm(self, x: Seq) -> Scalar:
        """Sup-norm of x minus its projection onto the reduced basis.

        The residual is zero off the supports of x and of the basis, so
        its sup is read there only.
        """
        basis = self.reduced_basis
        supports = [b.nonzero for b in basis]
        res = linalg.residual_vector(x.coords, [b.coords for b in basis],
                                     [pc - 1 for pc in self.pivots], supports)
        return max((abs(res[j]) for j in set(x.nonzero).union(*supports)),
                   default=Fraction(0) if self.exact else 0.0)

    def contains(self, x: Seq) -> bool:
        return self.residual_norm(x) <= zero_tol(self.exact)


def vanish_at(subspace: Subspace, indices: Sequence[int]) -> Seq:
    """A unit vector of span(subspace) vanishing at the given 1-based indices.

    Solves the homogeneous system over the reduced basis and normalizes
    the nullspace vector picked by the lexicographically-first free
    variable.  Raises DimensionExhausted when the nullspace is trivial.
    """
    t = subspace.truncation
    for j in indices:
        if not 1 <= j <= t:
            raise IndexOutOfRange(f"constraint index {j} outside [1, {t}]")
    basis = subspace.reduced_basis
    matrix = [[b.at(j) for b in basis] for j in indices]
    coeffs = linalg.nullspace_vector(matrix, len(basis),
                                     zero_tol(subspace.exact))
    if coeffs is None:
        raise DimensionExhausted(
            f"no nonzero span vector vanishes at all {len(indices)} indices "
            f"(dim={subspace.dim})")
    f = combine(basis, coeffs)
    return normalize(f, subspace.ambient)


def vanish_on_prefix(subspace: Subspace, n: int) -> Seq:
    """Unit span vector with |f(j)| <= eta for 1 <= j <= n.

    Requires dim > n -- the desk-scale surrogate for infinite
    dimensionality; DimensionExhausted signals the construction depth
    exceeded what this finite model supports.
    """
    if subspace.dim <= n:
        raise DimensionExhausted(
            f"prefix length {n} >= dim {subspace.dim}: the finite model "
            "cannot supply a vector vanishing on this prefix")
    return vanish_at(subspace, range(1, n + 1))


def normalize(x: Seq, space: AmbientSpace) -> Seq:
    """x / norm(x).  Exactness survives only where the norm is rational."""
    nrm = norm(x, space)
    if nrm <= zero_tol(x.exact):
        raise ZeroVector("cannot normalize a (numerically) zero vector")
    if x.exact and isinstance(nrm, Fraction):
        return x.scale(Fraction(1) / nrm)
    (z, marked), coords = x.frame, x.coords
    return _float_seq(len(coords), float(z) / float(nrm), marked,
                      [float(coords[j]) / float(nrm) for j in marked],
                      float(x.tail_bound) / float(nrm))


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

def subspace_from_json(obj: dict, mode: str = "auto") -> Subspace:
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
    return Subspace.build(space, gens)


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
        vals = parse_scalars(coords, exact)
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


def load_fixture(path: str, mode: str = "auto") -> Subspace:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"fixture {path}: invalid JSON ({exc})") from exc
    return subspace_from_json(obj, mode=mode)
