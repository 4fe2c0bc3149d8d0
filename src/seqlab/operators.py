"""Finite-rank operators as functional/vector pairs, with certified bounds.

An operator here is P(x) = sum_j psi_j(x) * v_j, each functional psi_j
stored as a coordinate vector.  Exact operator norms in lp are
intractable; nothing is sampled either.  These bounds read the nonzero
coordinates of the stored psi_j and v_j once, as the rationals they are:

* the Gram matrix G_jk = psi_j(x_k) of a family, exactly;
* |P v_k - v_k|_p <= sum_j |G_jk - delta_jk| |v_j|_p (0 exactly when
  G = I), and ||P^2 - P|| <= sum_k |psi_k|_{p'} |P v_k - v_k|_p, since
  P^2 - P = sum_k psi_k (x) (P v_k - v_k); each norm here is an upper
  bound (``_norm_up``), the sums are exact and a float result rounds up;
* Schur's test on the majorant K_il = sum_j |v_j(i)| |psi_j(l)| of P,
  weighted by F = sum_j |v_j|: ||P||_{p->p} <= alpha^{1-1/p} beta^{1/p},
  alpha = max_i sum_j |v_j(i)| a_j / F(i), a_j = sum_l |psi_j(l)| F(l),
  beta = max_l sum_j |psi_j(l)| b_j / F(l)^{p-1},
  b_j = sum_i |v_j(i)| F(i)^{p-1}.  It is 1 for disjoint unit blocks
  with their norming functionals and K's l1 norm at p = 1; unit weights
  (Riesz-Thorin) give 3.6 for an l2 zeroing Q whose f_1 spreads over 40
  coordinates.  alpha and beta are exact but for F^{p-1} at non-integer
  p - 1, whose bounded error beta absorbs; the final powers round up.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .core import AmbientSpace, Seq, norm, norm_pth_power
from .errors import ConfigError
from .scalar import Scalar

#: the float steps below are taken on values in this range only
_LO, _HI = 2.0 ** -1000, 2.0 ** 1000


def _nonzeros(x: Seq) -> dict:
    """The nonzero coordinates of x as {0-based index: exact rational}."""
    coords = x.coords
    return {i: Fraction(coords[i]) for i in x.nonzero}


def _norm_up(coords: dict, space: AmbientSpace) -> Fraction:
    """An upper bound on the space's norm of the vector with these
    nonzero coordinates: the norm itself for the sup norm and l1; else
    the least float r with r^q >= sum_i |x_i|^q, q = floor(p), since
    |x|_p <= |x|_q for q <= p; and |x|_1 when that sum is out of range."""
    x = Seq(tuple(coords.values()), True)
    q = 1 if space.is_sup else math.floor(space.p)
    if q == 1:
        return norm(x, space if space.is_sup else AmbientSpace.lp(1))
    total = norm_pth_power(x, AmbientSpace.lp(q))
    if not total:
        return total
    if not _LO < total < _HI:
        return norm(x, AmbientSpace.lp(1))
    r = float(total) ** (1 / q)
    while Fraction(r) ** q < total:
        r = math.nextafter(r, math.inf)
    return Fraction(r)


def _schur_weights(mass: dict, y) -> tuple[Optional[dict], Fraction]:
    """(W, tau): rationals W(i) with |W(i) / F(i)^y - 1| <= tau, for y =
    p - 1 >= 0, or W = None out of range.  An integer y is exact; else W
    is the float power of float F, off by < (1 + y) 2^-42 (the roundings
    of F and y, the latter times |ln F| < 710, and pow's own)."""
    if y == int(y):
        return {i: f ** int(y) for i, f in mass.items()}, Fraction(0)
    try:
        weight = {i: float(f) ** float(y) for i, f in mass.items()}
    except OverflowError:
        return None, Fraction(0)
    ok = all(_LO < x < _HI for x in (*weight.values(), *mass.values()))
    return ({i: Fraction(w) for i, w in weight.items()} if ok else None,
            Fraction((1 + float(y)) * 2.0 ** -36))


def _up(x: Fraction) -> float:
    """The least float >= x."""
    f = float(x)
    return f if f >= x else math.nextafter(f, math.inf)


def _mean_up(alpha: Fraction, beta: Fraction, p) -> float:
    """A float >= alpha^{1-1/p} beta^{1/p}, which is <= max(alpha, beta).
    The float evaluation errs by < 2^-41 (1/p's rounding times |ln| <
    700, the powers and the product); it is inflated by 2^-36."""
    if not all(_LO < x < _HI for x in (alpha, beta)):
        return math.inf if max(alpha, beta) else 0.0
    t = 1 / float(p)
    return min(_up(max(alpha, beta)),
               float(alpha) ** (1 - t) * float(beta) ** t * (1 + 2.0 ** -36))


@dataclass(frozen=True)
class ProjectionOp:
    """P(x) = sum_k pairs[k].functional(x) * pairs[k].vector."""

    functionals: tuple  # tuple[Seq]
    vectors: tuple      # tuple[Seq]
    space: AmbientSpace
    norm_upper: Optional[Scalar] = None  # certified upper bound, when known

    def __post_init__(self):
        if len(self.functionals) != len(self.vectors):
            raise ConfigError("functional/vector pair counts differ")

    @property
    def exact(self) -> bool:
        return all(v.exact for v in self.vectors + self.functionals)

    def _out(self, value: Fraction) -> Scalar:
        """An exact bound, rounded up to a float unless P is exact."""
        return value if self.exact else _up(value)

    def apply(self, x: Seq) -> Seq:
        if not self.vectors:
            return Seq.zero(len(x), x.exact)
        t = len(self.vectors[0])
        if len(x) != t:
            raise ConfigError(f"operator truncation {t} vs vector {len(x)}")
        exact = x.exact and self.exact
        zero = Fraction(0) if exact else 0.0
        acc = [zero] * t
        for phi, vec in zip(self.functionals, self.vectors):
            c = sum(a * b for a, b in zip(phi.coords, x.coords))
            if c == 0:
                continue
            for j, v in enumerate(vec.coords):
                acc[j] += c * v
        if not exact:
            acc = [float(v) for v in acc]
        return Seq(tuple(acc), exact, zero)

    @cached_property
    def _supports(self) -> tuple[list, list]:
        """The nonzero coordinates of each vector and of each functional."""
        return ([_nonzeros(v) for v in self.vectors],
                [_nonzeros(phi) for phi in self.functionals])

    def gram(self, family: Optional[Sequence[Seq]] = None) -> list:
        """G[j][k] = psi_j(x_k) exactly, for x = family (default: the
        operator's own vectors)."""
        vecs, psis = self._supports
        xs = vecs if family is None else [_nonzeros(x) for x in family]
        return [[sum((psi[i] * v for i, v in x.items() if i in psi), Fraction(0))
                 for x in xs] for psi in psis]

    def _column_bounds(self, columns: Sequence[Sequence]) -> list:
        """sum_j |c_j| |v_j|_p for each coefficient column c, exactly on
        upper bounds of the norms: an upper bound on |sum_j c_j v_j|_p by
        the triangle inequality."""
        norms = [_norm_up(v, self.space) for v in self._supports[0]]
        return [sum((abs(c) * n for c, n in zip(col, norms, strict=True)),
                    Fraction(0))
                for col in columns]

    def combination_bounds(self, columns: Sequence[Sequence]) -> list:
        """Upper bounds on |sum_j c_j v_j|_p for each coefficient column
        c, rounded up to floats unless P is exact."""
        return [self._out(b) for b in self._column_bounds(columns)]

    def fixed_point_bounds(self) -> tuple[list, Scalar]:
        """Upper bounds on |P v_k - v_k|_p for each own vector v_k, from
        the Gram matrix, and on ||P^2 - P|| from those."""
        gram = self.gram()
        m = len(gram)
        fixes = self._column_bounds(
            [[gram[j][k] - (1 if j == k else 0) for j in range(m)]
             for k in range(m)])
        p = self.space.p
        dual = AmbientSpace.linf() if p == 1 else AmbientSpace.lp(p / (p - 1))
        idem = sum((_norm_up(psi, dual) * fix
                    for psi, fix in zip(self._supports[1], fixes)),
                   Fraction(0))
        return [self._out(fix) for fix in fixes], self._out(idem)

    def certified_norm_bound(self) -> Scalar:
        """Schur's test bound alpha^{1-1/p} beta^{1/p} on ||P||_{p->p},
        exactly beta at p = 1; see the module docstring.  A coordinate of
        some psi_j outside the support of F admits no finite bound."""
        vecs, psis = self._supports
        mass: dict = {}  # F
        for v in vecs:
            for i, x in v.items():
                mass[i] = mass.get(i, 0) + abs(x)
        p = self.space.p
        weight, tau = _schur_weights(mass, p - 1)  # F^{p-1}
        if weight is None or any(l not in mass for psi in psis for l in psi):
            return math.inf
        rows: dict = {}
        cols: dict = {}
        for v, psi in zip(vecs, psis):
            a = sum(abs(y) * mass[l] for l, y in psi.items())
            b = sum(abs(x) * weight[i] for i, x in v.items())
            for i, x in v.items():
                rows[i] = rows.get(i, 0) + abs(x) * a
            for l, y in psi.items():
                cols[l] = cols.get(l, 0) + abs(y) * b
        beta = max((c / weight[l] for l, c in cols.items()), default=0) \
            * (1 + tau) / (1 - tau)
        if p == 1:
            return beta if self.exact else _up(Fraction(beta))
        alpha = max((r / mass[i] for i, r in rows.items()), default=0)
        return _mean_up(Fraction(alpha), Fraction(beta), p)

    def as_json(self) -> dict:
        """The functionals only: the vectors and the norm bound are the
        certificate's own f_k and q_norm_bound, which it stores once."""
        return {"functionals": [f.as_json() for f in self.functionals]}
