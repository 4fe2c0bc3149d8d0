"""linalg: exact elimination on integer rows equals the Fraction
elimination it replaced, value for value and type for type; the float
path keeps its bits."""
import struct
from fractions import Fraction
from typing import Optional
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from seqlab import linalg
from seqlab.scalar import Scalar


# The Fraction elimination that exact rows ran before they moved onto
# integer numerators, kept verbatim as the reference.
def _is_zero(value: Scalar, eta) -> bool:
    if isinstance(value, Fraction):
        return value == 0
    return abs(value) <= eta


def fraction_rref(rows: list[list[Scalar]], eta, tails: Optional[list[Scalar]] = None):
    """Reduce rows in place to RREF.

    Returns (rows, tails, pivot_cols).  ``tails`` is an optional parallel
    list of tail-norm bounds; row operations combine them sub-additively
    (r <- r - f*p adds |f| * tail_p) so the bounds stay sound.
    Zero rows are dropped.
    """
    if tails is None:
        tails = [Fraction(0) if rows and isinstance(rows[0][0], Fraction) else 0.0
                 for _ in rows]
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        if r >= n_rows:
            break
        # pivot selection
        best = -1
        if rows and isinstance(rows[r][c], Fraction):
            for i in range(r, n_rows):
                if rows[i][c] != 0:
                    best = i
                    break
        else:
            best_mag = eta
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
        nonzero_cols = [j for j, w in enumerate(row_r) if w != 0 and j != c]
        for i in range(n_rows):
            if i == r:
                continue
            f = rows[i][c]
            if _is_zero(f, eta):
                if f != 0:
                    rows[i][c] = type(f)(0)
                continue
            row_i = rows[i]
            for j in nonzero_cols:
                row_i[j] = row_i[j] - f * row_r[j]
            row_i[c] = type(f)(0)
            tails[i] = tails[i] + abs(f) * tails[r]
        pivots.append(c)
        r += 1
    # drop numerically-zero rows below the last pivot
    keep = len(pivots)
    del rows[keep:]
    del tails[keep:]
    return rows, tails, pivots


# exact entries: zeros, 2^-36-scale dyadics, mixed-prime denominators,
# integers; every sign
entry = st.one_of(
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.builds(lambda k, e: Fraction(k, 2 ** e), st.integers(-3, 3),
              st.integers(0, 36)),
    st.builds(Fraction, st.integers(-50, 50),
              st.sampled_from([1, 2, 3, 5, 7, 9, 11, 13, 3 ** 20])),
    st.builds(Fraction, st.integers(-5, 5)),
)
tail = st.one_of(st.just(Fraction(0)),
                 st.fractions(min_value=0, max_value=3, max_denominator=12))
eta = st.sampled_from([Fraction(0), 1e-9, 0.5, 2.0])


@st.composite
def exact_matrix(draw, max_rows=6, max_cols=8):
    """Rows of Fractions, some a combination of earlier ones or zero."""
    n_cols = draw(st.integers(1, max_cols))
    rows = []
    for _ in range(draw(st.integers(1, max_rows))):
        kind = draw(st.sampled_from(["free", "free", "dependent", "zero"]))
        if kind == "dependent" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            k = draw(st.fractions(min_value=-3, max_value=3, max_denominator=5))
            rows.append([k * x + y for x, y in zip(a, b)])
        elif kind == "zero":
            rows.append([Fraction(0)] * n_cols)
        else:
            rows.append(draw(st.lists(entry, min_size=n_cols, max_size=n_cols)))
    return rows


def _types(rows):
    return [[type(v) for v in row] for row in rows]


def _assert_same(got, want):
    assert got == want
    assert _types(got) == _types(want)


class TestExactRref:
    @given(rows=exact_matrix(), data=st.data(), eta=eta)
    @settings(max_examples=300, deadline=None)
    def test_equals_fraction_elimination(self, rows, data, eta):
        tails = data.draw(st.lists(tail, min_size=len(rows), max_size=len(rows)))
        work, ref_work = [list(r) for r in rows], [list(r) for r in rows]
        got_rows, got_tails, got_piv = linalg.rref(work, eta, list(tails))
        want_rows, want_tails, want_piv = fraction_rref(ref_work, eta, list(tails))
        assert got_piv == want_piv
        _assert_same(got_rows, want_rows)
        _assert_same([got_tails], [want_tails])
        _assert_same(work, ref_work)  # the in-place contract
        assert got_rows is work

    @given(rows=exact_matrix())
    @settings(max_examples=100, deadline=None)
    def test_default_tails(self, rows):
        got = linalg.rref([list(r) for r in rows], Fraction(0))
        want = fraction_rref([list(r) for r in rows], Fraction(0))
        assert got[2] == want[2]
        _assert_same(got[0], want[0])
        _assert_same([got[1]], [want[1]])

    def test_negative_pivot_scales_row_and_tail(self):
        rows = [[Fraction(-2), Fraction(4), Fraction(0)],
                [Fraction(1, 3), Fraction(0), Fraction(-1, 2 ** 36)]]
        got_rows, got_tails, piv = linalg.rref(rows, Fraction(0),
                                               [Fraction(6), Fraction(1, 7)])
        assert piv == [0, 1]
        assert got_rows == [[1, 0, Fraction(-3, 2 ** 36)],
                            [0, 1, Fraction(-3, 2 ** 37)]]
        # step 1: 6 / |-2| = 3, and row 1 gains |1/3| * 3 to 8/7;
        # step 2: 8/7 / |2/3| = 12/7, and row 0 gains |-2| * 12/7
        assert got_tails == [Fraction(45, 7), Fraction(12, 7)]
        assert all(type(v) is Fraction for r in got_rows for v in r)


class TestDerived:
    @given(rows=exact_matrix(), eta=eta)
    @settings(max_examples=150, deadline=None)
    def test_nullspace_and_rank_equal_reference(self, rows, eta):
        n = len(rows[0])
        got = (linalg.nullspace_basis(rows, n, eta),
               linalg.nullspace_vector(rows, n, eta), linalg.rank(rows, eta))
        with mock.patch.object(linalg, "rref", fraction_rref):
            want = (linalg.nullspace_basis(rows, n, eta),
                    linalg.nullspace_vector(rows, n, eta),
                    linalg.rank(rows, eta))
        _assert_same(got[0], want[0])
        assert got[1:] == want[1:]
        if got[1] is not None:
            _assert_same([got[1]], [want[1]])

    @given(rows=exact_matrix(max_rows=5, max_cols=5), eta=eta)
    @settings(max_examples=150, deadline=None)
    def test_invert_equals_reference(self, rows, eta):
        n = len(rows)
        square = [(row + [Fraction(0)] * n)[:n] for row in rows]
        got = linalg.invert(square, eta)
        with mock.patch.object(linalg, "rref", fraction_rref):
            want = linalg.invert(square, eta)
        if want is None:
            assert got is None
        else:
            _assert_same(got, want)
            assert [[sum((a * b for a, b in zip(row, col)), Fraction(0))
                     for col in zip(*got)] for row in square] == [
                [Fraction(int(i == j)) for j in range(n)] for i in range(n)]


float_entry = st.one_of(st.just(0.0), st.just(-0.0),
                        st.floats(-1e6, 1e6, allow_nan=False),
                        st.floats(-1e-8, 1e-8, allow_nan=False))


def _bits(rows):
    return [[struct.pack("<d", v) for v in row] for row in rows]


class TestFloatRref:
    @given(data=st.data(), eta=st.sampled_from([1e-9, 1e-3, 0.5]))
    @settings(max_examples=200, deadline=None)
    def test_keeps_float_elimination_bits(self, data, eta):
        n_cols = data.draw(st.integers(1, 7))
        rows = data.draw(st.lists(st.lists(float_entry, min_size=n_cols,
                                           max_size=n_cols),
                                  min_size=1, max_size=6))
        tails = data.draw(st.lists(st.floats(0, 10), min_size=len(rows),
                                   max_size=len(rows)))
        got = linalg.rref([list(r) for r in rows], eta, list(tails))
        want = fraction_rref([list(r) for r in rows], eta, list(tails))
        assert got[2] == want[2]
        assert _bits(got[0]) == _bits(want[0])
        assert _bits([got[1]]) == _bits([want[1]])
