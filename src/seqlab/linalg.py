"""Deterministic dense linear algebra over Fraction or float rows.

Everything here is plain Gaussian elimination to reduced row echelon
form.  Exact rows (Fractions) pivot on the first nonzero entry; float
rows use partial pivoting (largest magnitude, first-max tie break) with
entries of magnitude <= eta treated as zero.  Pivots are normalized to
1, which makes reduced bases canonical and runs reproducible.

Exact rows are eliminated on integers: each row is held as integer
numerators over one positive denominator, divided by their gcd after
every step, and becomes Fractions again only at the end.  The pivots,
the multipliers and the pivot scalings are those of the Fraction
elimination, so every row, tail bound and pivot is the same value.
Exact mode ignores eta.

Desk scale only: matrices are at most a few dozen rows by a few
thousand columns.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress
from typing import Optional, Sequence

from .scalar import Scalar

_ZERO = Fraction(0)


def rref(rows: list[list[Scalar]], eta, tails: Optional[list[Scalar]] = None):
    """Reduce rows in place to RREF.

    Returns (rows, tails, pivot_cols).  ``tails`` is an optional parallel
    list of tail-norm bounds; row operations combine them sub-additively
    (r <- r - f*p adds |f| * tail_p) so the bounds stay sound.
    Zero rows are dropped.  Rows are exact when their first entry is a
    Fraction, and then their tails are rationals and eta is ignored;
    otherwise they are float rows.
    """
    exact = bool(rows and rows[0]) and isinstance(rows[0][0], Fraction)
    if tails is None:
        tails = [_ZERO if exact else 0.0 for _ in rows]
    pivots = _rref_exact(rows, tails) if exact else _rref_float(rows, eta, tails)
    # drop the zero rows below the last pivot
    keep = len(pivots)
    del rows[keep:]
    del tails[keep:]
    return rows, tails, pivots


def _rref_exact(rows: list[list[Fraction]], tails: list) -> list[int]:
    """The Fraction elimination of ``rref``, run on integer rows.

    Row i is nums[i] / dens[i] with dens[i] > 0.  Scaling the pivot row
    by 1/pivot makes its numerators the row's own over the denominator
    |pivot numerator|; eliminating row i with multiplier f = a / dens[i]
    (a its numerator in the pivot column) gives the numerators
    nums[i] * den_r - a * nums_r over dens[i] * den_r.  The tail bounds,
    rationals here, are updated as in the Fraction elimination, except
    that adding |f| * 0 to a Fraction is skipped.  Rows above the last
    pivot become Fraction rows of ``rows``; returns the pivot columns.
    """
    nums, dens = [], []
    for row in rows:
        ratios = [v.as_integer_ratio() for v in row]
        den = math.lcm(*[d for _, d in ratios])
        nums.append([n * (den // d) for n, d in ratios])
        dens.append(den)
    n_rows = len(rows)
    n_cols = len(nums[0]) if n_rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        if r >= n_rows:
            break
        best = next((i for i in range(r, n_rows) if nums[i][c]), -1)
        if best < 0:
            continue
        if best != r:
            nums[r], nums[best] = nums[best], nums[r]
            dens[r], dens[best] = dens[best], dens[r]
            tails[r], tails[best] = tails[best], tails[r]
        p, den = nums[r][c], dens[r]
        if p != den:  # the pivot p / den is not 1
            tails[r] = tails[r] / Fraction(abs(p), den)
            nums[r], dens[r] = _reduced(nums[r] if p > 0 else [-v for v in nums[r]],
                                        abs(p))
        row_r, den_r, tail_r = nums[r], dens[r], tails[r]
        for i in range(n_rows):
            a = nums[i][c]
            if i == r or not a:
                continue
            if tail_r or not isinstance(tails[i], Fraction):
                tails[i] = tails[i] + Fraction(abs(a), dens[i]) * tail_r
            nums[i], dens[i] = _reduced(
                [x * den_r - a * y for x, y in zip(nums[i], row_r)],
                dens[i] * den_r)
        pivots.append(c)
        r += 1
    for i in range(len(pivots)):
        den = dens[i]
        rows[i] = [Fraction(v, den) if v else _ZERO for v in nums[i]]
    return pivots


def _reduced(nums: list[int], den: int) -> tuple[list[int], int]:
    """nums / den with the gcd of all its integers divided out."""
    g = math.gcd(den, *nums)
    if g == 1:
        return nums, den
    return [v // g for v in nums], den // g


def _rref_float(rows: list[list[float]], eta, tails: list) -> list[int]:
    """Float elimination for ``rref``: partial pivoting, |entry| <= eta is
    zero.  Returns the pivot columns."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        if r >= n_rows:
            break
        best, best_mag = -1, eta
        for i in range(r, n_rows):
            mag = abs(rows[i][c])
            if mag > best_mag:
                best_mag = mag
                best = i
        if best < 0:
            continue
        if best != r:
            rows[r], rows[best] = rows[best], rows[r]
            tails[r], tails[best] = tails[best], tails[r]
        piv = rows[r][c]
        if piv != 1:
            inv_scale = abs(piv)
            rows[r] = [v / piv for v in rows[r]]
            tails[r] = tails[r] / inv_scale
        row_r = rows[r]
        nonzero_cols = [j for j in compress(range(n_cols), row_r) if j != c]
        for i in range(n_rows):
            if i == r:
                continue
            f = rows[i][c]
            if abs(f) <= eta:
                if f != 0:
                    rows[i][c] = 0.0
                continue
            row_i = rows[i]
            for j in nonzero_cols:
                row_i[j] = row_i[j] - f * row_r[j]
            row_i[c] = 0.0
            tails[i] = tails[i] + abs(f) * tails[r]
        pivots.append(c)
        r += 1
    return pivots


def rank(rows: list[list[Scalar]], eta) -> int:
    work = [list(row) for row in rows]
    _, _, pivots = rref(work, eta)
    return len(pivots)


def nullspace_vector(matrix: Sequence[Sequence[Scalar]], n_unknowns: int, eta) -> Optional[list[Scalar]]:
    """One nullspace vector of the (m x n_unknowns) constraint matrix.

    Deterministic tie-break: the lexicographically-first free variable is
    set to 1 and all other free variables to 0.  Returns None when the
    nullspace is trivial.
    """
    basis = nullspace_basis(matrix, n_unknowns, eta, first_only=True)
    return basis[0] if basis else None


def nullspace_basis(matrix: Sequence[Sequence[Scalar]], n_unknowns: int, eta,
                    first_only: bool = False) -> list[list[Scalar]]:
    """Nullspace basis vectors, one per free variable, in variable order."""
    exact = _matrix_exact(matrix)
    zero = Fraction(0) if exact else 0.0
    one = Fraction(1) if exact else 1.0
    work = [list(row) for row in matrix]
    if not work:
        out = []
        for j in range(n_unknowns):
            vec = [zero] * n_unknowns
            vec[j] = one
            out.append(vec)
            if first_only:
                break
        return out
    _, _, pivots = rref(work, eta)
    pivot_set = set(pivots)
    free_cols = [j for j in range(n_unknowns) if j not in pivot_set]
    out = []
    for fc in free_cols:
        vec = [zero] * n_unknowns
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][fc]
        out.append(vec)
        if first_only:
            break
    return out


def residual_vector(vec: Sequence[Scalar], rows: Sequence[Sequence[Scalar]],
                    pivots: Sequence[int],
                    supports: Sequence[Sequence[int]]) -> list[Scalar]:
    """vec minus its projection onto the span of RREF rows.

    Each row is subtracted only where it is nonzero: ``supports[i]`` lists
    the nonzero columns of ``rows[i]``.  The skipped v - c * (+-0.0) could
    only flip the sign of a zero, so every |entry| is that of the full
    subtraction.
    """
    out = list(vec)
    for row, pc, cols in zip(rows, pivots, supports, strict=True):
        c = out[pc]
        if c != 0:
            for j in cols:
                out[j] -= c * row[j]
    return out


def invert(matrix: Sequence[Sequence[Scalar]], eta) -> Optional[list[list[Scalar]]]:
    """Inverse of a small square matrix via RREF of [M | I]; None if singular."""
    n = len(matrix)
    exact = _matrix_exact(matrix)
    zero = Fraction(0) if exact else 0.0
    one = Fraction(1) if exact else 1.0
    work = []
    for i in range(n):
        row = list(matrix[i]) + [zero] * n
        row[n + i] = one
        work.append(row)
    _, _, pivots = rref(work, eta)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in work]


def _matrix_exact(matrix) -> bool:
    for row in matrix:
        for v in row:
            return isinstance(v, Fraction)
    return True
