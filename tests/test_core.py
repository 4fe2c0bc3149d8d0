import json
import math
import pickle
import struct
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seqlab.core import (
    AmbientSpace,
    Seq,
    Subspace,
    combine,
    hadamard,
    norm,
    normalize,
    norm_pth_power,
    scan_rows,
    subspace_from_json,
    tail_norm,
    vanish_at,
    vanish_on_prefix,
)
from seqlab.errors import (
    ConfigError,
    DimensionExhausted,
    IndexOutOfRange,
    LengthMismatch,
    NonFiniteCoordinate,
    ZeroVector,
)
from seqlab.lineability import geometric_generator
from seqlab.linalg import residual_vector
from seqlab.scalar import scalar_to_json, zero_tol
from conftest import unit_subspace

L1 = AmbientSpace.lp(1)
L2 = AmbientSpace.lp(2)
LINF = AmbientSpace.linf()


def seq(*vals, exact=True, tail=0):
    if exact:
        return Seq(tuple(Fraction(v) for v in vals), True, Fraction(tail))
    return Seq(tuple(float(v) for v in vals), False, float(tail))


rational = st.fractions(min_value=Fraction(-4), max_value=Fraction(4),
                        max_denominator=32)


class TestNorm:
    def test_unit_vector_every_space(self):
        e1 = Seq.unit(1, 8, True)
        for space in (L1, L2, LINF, AmbientSpace.c0()):
            assert norm(e1, space) == 1

    def test_pythagorean(self):
        x = seq(3, 4, 0, 0, exact=False)
        assert norm(x, L2) == pytest.approx(5.0, abs=1e-15)

    def test_two_coordinates_l1_linf(self):
        x = seq(1, 1, 0)
        assert norm(x, L1) == 2
        assert norm(x, LINF) == 1

    def test_non_finite_rejected(self):
        bad = Seq((1.0, float("nan")), False, 0.0)
        with pytest.raises(NonFiniteCoordinate):
            norm(bad, L2)
        with pytest.raises(NonFiniteCoordinate):
            norm(Seq((float("inf"),), False, 0.0), LINF)

    @given(x=st.lists(rational, min_size=1, max_size=12), a=rational)
    @settings(max_examples=200, deadline=None)
    def test_homogeneity_exact(self, x, a):
        v = Seq(tuple(x), True, Fraction(0))
        for space in (L1, LINF):
            assert norm(v.scale(a), space) == abs(a) * norm(v, space)

    @given(x=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=10),
           y=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_triangle_inequality_float(self, x, y):
        n = min(len(x), len(y))
        u = Seq(tuple(x[:n]), False, 0.0)
        v = Seq(tuple(y[:n]), False, 0.0)
        for space in (L1, L2, LINF):
            lhs = norm(u.add(v), space)
            rhs = norm(u, space) + norm(v, space)
            assert lhs <= rhs + 4 * sys_eps(rhs)


def sys_eps(scale):
    return max(1.0, abs(scale)) * 2.220446049250313e-16


class TestHadamard:
    def test_geometric_closure_example(self):
        x = geometric_generator(Fraction(1, 2), 16)
        y = geometric_generator(Fraction(1, 3), 16)
        z = geometric_generator(Fraction(1, 6), 16)
        assert hadamard(x, y).coords == z.coords

    def test_identity_element(self):
        x = seq(5, -3, 7)
        ones = seq(1, 1, 1)
        assert hadamard(x, ones).coords == x.coords

    def test_disjoint_supports(self):
        assert hadamard(Seq.unit(1, 4, True), Seq.unit(2, 4, True)).coords \
            == Seq.zero(4, True).coords

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            hadamard(seq(1, 2), seq(1, 2, 3))

    @given(x=st.lists(rational, min_size=1, max_size=10),
           y=st.lists(rational, min_size=1, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_commutative_and_submultiplicative_sup(self, x, y):
        n = min(len(x), len(y))
        u = Seq(tuple(x[:n]), True, Fraction(0))
        v = Seq(tuple(y[:n]), True, Fraction(0))
        assert hadamard(u, v).coords == hadamard(v, u).coords
        assert norm(hadamard(u, v), LINF) <= norm(u, LINF) * norm(v, LINF)

    @given(x=st.lists(rational, min_size=1, max_size=6),
           y=st.lists(rational, min_size=1, max_size=6),
           z=st.lists(rational, min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_associative(self, x, y, z):
        n = min(len(x), len(y), len(z))
        u, v, w = (Seq(tuple(c[:n]), True, Fraction(0)) for c in (x, y, z))
        assert hadamard(hadamard(u, v), w).coords \
            == hadamard(u, hadamard(v, w)).coords


class TestTailNorm:
    def test_geometric_tail_l1_oracle(self):
        # exact rational oracle: sum_{j=2}^{T} 2^-j = 1/2 - 2^-T and the
        # stored tail bound is 2^-T, so the l1 tail after n=1 is exactly 1/2
        t = 64
        x = geometric_generator(Fraction(1, 2), t)
        assert x.tail_bound == Fraction(1, 2 ** t)
        expected = sum(Fraction(1, 2) ** j for j in range(2, t + 1)) \
            + Fraction(1, 2 ** t)
        got = tail_norm(x, 1, L1)
        assert got == expected == Fraction(1, 2)
        assert got <= 1

    def test_no_tail_mass(self):
        assert tail_norm(Seq.unit(1, 8, True), 1, L1) == 0

    def test_sup_of_singleton(self):
        t = 6
        ones = Seq((Fraction(1),) * t, True, Fraction(0))
        assert tail_norm(ones, t - 1, LINF) == 1

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            tail_norm(seq(1, 2, 3), 4, L1)
        with pytest.raises(IndexOutOfRange):
            tail_norm(seq(1, 2, 3), 0, L1)

    @given(x=st.lists(rational, min_size=3, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_monotone_nonincreasing(self, x):
        v = Seq(tuple(x), True, Fraction(0))
        for space in (L1, LINF):
            vals = [tail_norm(v, n, space) for n in range(1, len(x) + 1)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_tail_bound_joins_subadditively(self):
        v = Seq((Fraction(1), Fraction(1, 4)), True, Fraction(1, 8))
        assert tail_norm(v, 1, L1) == Fraction(1, 4) + Fraction(1, 8)
        assert tail_norm(v, 2, LINF) == Fraction(1, 8)


class TestVanish:
    def test_hand_solved_one_constraint(self):
        # span{(1,1,0),(0,1,1)}, N=1: a(1)+b(0)=0 forces a=0; normalize
        # (0,1,1) in l1 -> (0, 1/2, 1/2)
        v = Subspace.build(L1, [seq(1, 1, 0), seq(0, 1, 1)])
        f = vanish_on_prefix(v, 1)
        assert f.coords == (Fraction(0), Fraction(1, 2), Fraction(1, 2))

    def test_no_nullspace(self):
        v = Subspace.build(L1, [Seq.unit(1, 4, True)])
        with pytest.raises(DimensionExhausted):
            vanish_on_prefix(v, 1)

    def test_brute_force_prefix_three(self):
        v = unit_subspace(L2, 10, 16)
        f = vanish_on_prefix(v, 3)
        # independent oracle: unit norm, prefix zero, support inside 4..10
        assert abs(norm(f, L2) - 1) <= 1e-12
        assert all(abs(f.at(j)) <= 1e-12 for j in range(1, 4))
        assert all(f.at(j) == 0 for j in range(11, 17))
        assert any(abs(f.at(j)) > 0.1 for j in range(4, 11))

    @given(n=st.integers(min_value=1, max_value=5))
    @settings(max_examples=20, deadline=None)
    def test_contract_randomized(self, n):
        v = unit_subspace(L1, 8, 12)
        f = vanish_on_prefix(v, n)
        assert v.contains(f)
        assert all(f.at(j) == 0 for j in range(1, n + 1))
        assert norm(f, L1) == 1

    def test_vanish_at_scattered_indices(self):
        v = unit_subspace(LINF, 6, 10)
        f = vanish_at(v, [2, 5])
        assert f.at(2) == 0 and f.at(5) == 0
        assert norm(f, LINF) == 1


class TestSubspace:
    def test_rank_and_span_residual(self):
        gens = [seq(1, 0, 0), seq(0, 1, 0), seq(1, 1, 0)]
        v = Subspace.build(L1, gens)
        assert v.dim == 2
        assert v.contains(seq(2, -3, 0))
        assert not v.contains(seq(0, 0, 1))

    def test_mode_mixing_rejected(self):
        with pytest.raises(ConfigError):
            Subspace.build(L1, [seq(1, 0), Seq((0.0, 1.0), False, 0.0)])

    @given(data=st.data(), exact=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_residual_norm_equals_dense_formula(self, data, exact):
        n = data.draw(st.integers(1, 16))
        zero = Fraction(0) if exact else 0.0
        entry = st.one_of(st.just(zero), rational) if exact else st.one_of(
            st.sampled_from([0.0, -0.0]), st.floats(-8, 8))

        def vector():
            return Seq(tuple(data.draw(st.lists(entry, min_size=n,
                                                max_size=n))), exact, zero)

        gens = [vector() for _ in range(data.draw(st.integers(1, 4)))]
        try:
            sub = Subspace.build(L1 if exact else L2, gens)
        except ConfigError:  # a numerically degenerate float family
            assume(False)
        coeffs = [data.draw(st.one_of(st.just(zero), rational if exact
                                      else st.floats(-4, 4)))
                  for _ in gens]
        # a unit vector at a pivot leaves a residual off its own support
        probes = [vector(), combine(gens, coeffs)] + [
            Seq.unit(pc, n, exact) for pc in sub.pivots]
        rows = [b.coords for b in sub.reduced_basis]
        pivots = [pc - 1 for pc in sub.pivots]
        for x in probes:
            # the residual before the rows were subtracted on their supports
            dense = list(x.coords)
            for row, pc in zip(rows, pivots):
                c = dense[pc]
                if c != 0:
                    dense = [v - c * w for v, w in zip(dense, row)]
            want = max((abs(v) for v in dense), default=zero)
            got = sub.residual_norm(x)
            assert got == want
            if not exact:
                assert bits(got) == bits(want)
            assert sub.contains(x) == (want <= zero_tol(exact))
            sparse = residual_vector(x.coords, rows, pivots,
                                     [b.nonzero for b in sub.reduced_basis])
            assert [abs(v) for v in sparse] == [abs(v) for v in dense]


class TestFixtureJson:
    def test_all_generator_kinds(self):
        obj = {
            "space": {"kind": "lp", "p": 1},
            "truncation": 8,
            "generators": [
                {"kind": "unit", "index": 1},
                {"kind": "dense", "coords": ["1/2", "1/4", 0, 1]},
                {"kind": "geometric", "ratio": "1/3", "scale": "2/1"},
            ],
        }
        sub = subspace_from_json(obj, mode="exact")
        assert sub.dim == 3
        assert sub.exact
        assert sub.generators[2].at(1) == Fraction(2, 3)

    def test_float_mode(self):
        obj = {"space": {"kind": "lp", "p": 2}, "truncation": 4,
               "generators": [{"kind": "unit", "index": 2}]}
        sub = subspace_from_json(obj, mode="auto")
        assert not sub.exact

    def test_exact_mode_rejected_for_general_p(self):
        obj = {"space": {"kind": "lp", "p": 2}, "truncation": 4,
               "generators": [{"kind": "unit", "index": 1}]}
        with pytest.raises(ConfigError):
            subspace_from_json(obj, mode="exact")

    def test_missing_keys(self):
        with pytest.raises(ConfigError):
            subspace_from_json({"space": {"kind": "c0"}})


class TestNormalizeCombine:
    def test_normalize_exact_l1(self):
        f = normalize(seq(2, 2), L1)
        assert f.coords == (Fraction(1, 2), Fraction(1, 2))
        assert f.exact

    def test_combine_tracks_tail_bounds(self):
        a = Seq((Fraction(1), Fraction(0)), True, Fraction(1, 8))
        b = Seq((Fraction(0), Fraction(1)), True, Fraction(1, 4))
        c = combine([a, b], [Fraction(2), Fraction(-1)])
        assert c.coords == (Fraction(2), Fraction(-1))
        assert c.tail_bound == 2 * Fraction(1, 8) + Fraction(1, 4)


# -- the vector kernel against its dense definitions -------------------------
#
# Exact arithmetic skips zero coordinates and the float norms sum over the
# nonzero ones; both must give what a full loop over every coordinate gives.

@st.composite
def exact_pairs(draw):
    """Two exact vectors of one length, sparse (about 1 in 4 nonzero) or
    dense, with exact tail bounds."""
    n = draw(st.integers(1, 24))
    sparse = draw(st.booleans())

    def vector():
        vals = draw(st.lists(rational, min_size=n, max_size=n))
        if sparse:
            keep = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
            vals = [v if k == 0 else Fraction(0) for v, k in zip(vals, keep)]
        tail = draw(st.fractions(min_value=0, max_value=2, max_denominator=16))
        return Seq(tuple(vals), True, tail)

    return vector(), vector()


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


# finite doubles with many (signed) zeros, subnormals and huge values
float_coord = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     -1.5e-310, 1e154, -1e154, 1e200, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False))


def old_pth_power(coords, p):
    """The p-th-power sum as taken before zero coordinates were skipped:
    every coordinate, float(|v|) ** float(p)."""
    return sum((float(abs(v)) ** float(p) for v in coords), 0.0)


class TestKernel:
    @given(pair=exact_pairs(), a=rational)
    @settings(max_examples=100, deadline=None)
    def test_exact_ops_equal_dense_reference(self, pair, a):
        x, y = pair
        cases = [
            (x.add(y), [u + v for u, v in zip(x.coords, y.coords)]),
            (x.sub(y), [u - v for u, v in zip(x.coords, y.coords)]),
            (x.scale(a), [a * u for u in x.coords]),
            (x.abs_coords(), [abs(u) for u in x.coords]),
        ]
        for got, want in cases:
            assert got.exact
            assert list(got.coords) == want
            assert all(type(v) is Fraction for v in got.coords)
        assert x.add(y).tail_bound == x.tail_bound + y.tail_bound
        assert x.sub(y).tail_bound == x.tail_bound + y.tail_bound
        assert x.scale(a).tail_bound == abs(a) * x.tail_bound

    @given(x=st.lists(float_coord, min_size=1, max_size=30),
           y=st.lists(float_coord, min_size=1, max_size=30),
           a=float_coord)
    @settings(max_examples=200, deadline=None)
    def test_float_ops_keep_ieee_bits(self, x, y, a):
        n = min(len(x), len(y))
        u, v = Seq(tuple(x[:n]), False, 0.0), Seq(tuple(y[:n]), False, 0.0)
        cases = [
            (u.add(v), [b + c for b, c in zip(u.coords, v.coords)]),
            (u.sub(v), [b - c for b, c in zip(u.coords, v.coords)]),
            (u.scale(a), [a * b for b in u.coords]),
            (u.abs_coords(), [abs(b) for b in u.coords]),
        ]
        for got, want in cases:
            assert [bits(b) for b in got.coords] == [bits(c) for c in want]

    def test_float_signed_zeros(self):
        u = Seq((0.0, -0.0, 0.0, -0.0), False, 0.0)
        v = Seq((-0.0, -0.0, 0.0, 0.0), False, 0.0)
        assert [bits(b) for b in u.sub(v).coords] == [
            bits(0.0), bits(0.0), bits(0.0), bits(-0.0)]
        assert [bits(b) for b in u.add(v).coords] == [
            bits(0.0), bits(-0.0), bits(0.0), bits(0.0)]

    @pytest.mark.parametrize("p", [1, Fraction(3, 2), 2, 3])
    @given(x=st.lists(float_coord, min_size=1, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_float_norms_equal_old_formula(self, p, x):
        space = AmbientSpace.lp(p)
        v = Seq(tuple(x), False, 0.0)
        try:
            want = old_pth_power(x, p)
        except OverflowError:  # a single |v| ** p beyond the doubles
            with pytest.raises(OverflowError):
                norm_pth_power(v, space)
            return
        assert bits(norm_pth_power(v, space)) == bits(want)
        if p == 1:
            want_norm = sum((abs(c) for c in x), 0.0)
        else:
            want_norm = float(want) ** (1.0 / float(p))
        assert bits(norm(v, space)) == bits(want_norm)

    @given(x=st.lists(float_coord, min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_lifted_non_integer_p_equals_old_formula(self, x):
        space = AmbientSpace.lp(Fraction(3, 2))
        lifted = Seq(tuple(x), False, 0.0).lift()
        try:
            want = old_pth_power(lifted.coords, space.p)
        except OverflowError:
            with pytest.raises(OverflowError):
                norm_pth_power(lifted, space)
            return
        assert bits(norm_pth_power(lifted, space)) == bits(want)

    def test_sum_overflows_to_inf(self):
        v = Seq((1e154, 0.0, 1e154, -1e154) + (0.0,) * 8, False, 0.0)
        assert norm_pth_power(v, L2) == old_pth_power(v.coords, 2) == math.inf
        assert norm(v, L2) == math.inf

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("space", [L1, AmbientSpace.lp(Fraction(3, 2)),
                                       L2, LINF])
    def test_norm_rejects_non_finite(self, bad, space):
        v = Seq((0.0,) * 50 + (bad,) + (1.0,), False, 0.0)
        with pytest.raises(NonFiniteCoordinate):
            norm(v, space)

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("exact", ["false", "true"])
    def test_from_json_rejects_non_finite(self, text, exact):
        obj = json.loads(f'{{"coords": [0.0, 1.5, {text}, 0.0], '
                         f'"exact": {exact}, "tail_bound": 0}}')
        with pytest.raises(NonFiniteCoordinate):
            Seq.from_json(obj)

    def test_from_json_float_mode_values(self):
        x = Seq.from_json({"coords": [1, "1/4", 0.5, -0.0], "exact": False,
                           "tail_bound": "1/8"})
        assert [bits(v) for v in x.coords] == [bits(1.0), bits(0.25),
                                               bits(0.5), bits(-0.0)]
        assert x.tail_bound == 0.125 and not x.exact
        with pytest.raises(ConfigError):
            Seq.from_json({"coords": [0.5, True], "exact": False})

    @given(data=st.data(), sparse=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_exact_combine_equals_dense_reference(self, data, sparse):
        n = data.draw(st.integers(1, 24))
        zero_odds = 3 if sparse else 0  # sparse: about 1 in 4 nonzero

        def vector():
            vals = data.draw(st.lists(rational, min_size=n, max_size=n))
            keep = data.draw(st.lists(st.integers(0, zero_odds), min_size=n,
                                      max_size=n))
            vals = [v if k == 0 else Fraction(0) for v, k in zip(vals, keep)]
            tail = data.draw(st.fractions(min_value=0, max_value=2,
                                          max_denominator=16))
            return Seq(tuple(vals), True, tail)

        basis = [vector() for _ in range(data.draw(st.integers(1, 5)))]
        coeffs = [data.draw(st.one_of(rational, st.integers(-3, 3),
                                      st.just(Fraction(0))))
                  for _ in basis]
        got = combine(basis, coeffs)
        want = [sum((c * b.coords[j] for c, b in zip(coeffs, basis)),
                    Fraction(0)) for j in range(n)]
        assert got.exact
        assert list(got.coords) == want
        assert all(type(v) is Fraction for v in got.coords)
        assert got.tail_bound == sum(
            (abs(c) * b.tail_bound for c, b in zip(coeffs, basis)),
            Fraction(0))

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_float_combine_keeps_ieee_bits(self, data):
        n = data.draw(st.integers(1, 20))
        basis = [Seq(tuple(data.draw(st.lists(float_coord, min_size=n,
                                              max_size=n))), False,
                     data.draw(st.floats(0, 1e300)))
                 for _ in range(data.draw(st.integers(1, 4)))]
        coeffs = [data.draw(st.one_of(float_coord, st.just(0.0)))
                  for _ in basis]
        # the full loop over every coordinate; combine's zero skip must keep its bits
        acc, tail = [0.0] * n, 0.0
        for c, b in zip(coeffs, basis):
            if c == 0:
                continue
            for j, v in enumerate(b.coords):
                acc[j] += c * v
            tail += abs(c) * b.tail_bound
        got = combine(basis, coeffs)
        assert not got.exact
        assert [bits(v) for v in got.coords] == [bits(v) for v in acc]
        assert bits(got.tail_bound) == bits(tail)

    @pytest.mark.parametrize("value", [
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1.5e-310,
        1e308, -1e308, 1.7976931348623157e308, 0.1, -2.5,
        Fraction(0), Fraction(-3, 7), Fraction(2 ** 70, 3), 0, 5, -12])
    def test_scalar_to_json_as_before(self, value):
        # the serialization before floats took their fast path
        if isinstance(value, Fraction):
            want = f"{value.numerator}/{value.denominator}"
        elif isinstance(value, int):
            want = f"{value}/1"
        else:
            want = float(value)
        got = scalar_to_json(value)
        assert type(got) is type(want)
        if isinstance(want, float):
            assert bits(got) == bits(want)
        else:
            assert got == want
        assert json.dumps(got) == json.dumps(want)

    # -- the cached support --------------------------------------------------

    @given(data=st.data(), exact=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_support_invariant_along_kernel_chains(self, data, exact):
        n = data.draw(st.integers(1, 12))
        zero = Fraction(0) if exact else 0.0
        entry = (st.one_of(st.just(zero), st.just(zero), rational) if exact
                 else st.one_of(st.sampled_from([0.0, -0.0]), float_coord))
        scalar = (st.one_of(rational, st.integers(-3, 3)) if exact
                  else st.one_of(st.sampled_from([0.0, -0.0, -1.0]),
                                 st.floats(-4, 4)))

        def vector():
            coords = tuple(data.draw(st.lists(entry, min_size=n, max_size=n)))
            return Seq(coords, exact, zero)

        pool = [vector(), vector(), Seq.zero(n, exact)]
        for _ in range(data.draw(st.integers(1, 10))):
            op = data.draw(st.sampled_from(
                ["add", "sub", "x-x", "scale", "scale0", "abs", "lift",
                 "unit", "restrict"]))
            x, y = data.draw(st.sampled_from(pool)), data.draw(
                st.sampled_from(pool))
            if op == "add":
                got = x.add(y)
                want = [u + v for u, v in zip(x.coords, y.coords)]
                tail = x.tail_bound + y.tail_bound
            elif op in ("sub", "x-x"):
                y = x if op == "x-x" else y
                got = x.sub(y)
                want = [u - v for u, v in zip(x.coords, y.coords)]
                tail = x.tail_bound + y.tail_bound
            elif op in ("scale", "scale0"):
                a = data.draw(scalar) if op == "scale" else zero
                got = x.scale(a)
                want = [a * u for u in x.coords]
                tail = abs(a) * x.tail_bound
            elif op == "abs":
                got = x.abs_coords()
                want = [abs(u) for u in x.coords]
                tail = x.tail_bound
            elif op == "lift":
                got = x.lift()
                want = [Fraction(u) for u in x.coords]
                tail = Fraction(x.tail_bound)
            elif op == "unit":
                j = data.draw(st.integers(1, n))
                got = Seq.unit(j, n, exact)
                want = [1 if i == j else 0 for i in range(1, n + 1)]
                tail = 0
            else:
                lo, hi = data.draw(st.integers(-1, n + 2)), data.draw(
                    st.integers(-1, n + 2))
                got = x.restrict((lo, hi))
                off = Fraction(0) if x.exact else 0.0
                want = [u if lo <= j <= hi else off
                        for j, u in enumerate(x.coords, start=1)]
                tail = 0
            assert_support_and_dense(got, want, tail)
            pool.append(got)

    @given(pair=exact_pairs(), n=st.integers(1, 24), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_exact_readers_equal_dense_formulas(self, pair, n, data):
        x, y = pair
        vectors = [x, y, x.sub(y), x.add(y), x.sub(x), x.scale(0),
                   x.abs_coords(), combine([x, y], [Fraction(1), Fraction(-1)])]
        for v in vectors:
            assert_support_and_dense(v, list(v.coords), v.tail_bound)
            absolute = [abs(u) for u in v.coords]
            assert norm(v, LINF) == max(absolute)
            assert norm(v, L1) == sum(absolute, Fraction(0))
            for p in (2, 3):
                assert norm_pth_power(v, AmbientSpace.lp(p)) == sum(
                    (u ** p for u in absolute), Fraction(0))
            p32 = AmbientSpace.lp(Fraction(3, 2))
            assert bits(norm_pth_power(v, p32)) == bits(
                old_pth_power(v.coords, Fraction(3, 2)))
            m = min(n, len(v))
            rest = absolute[m:]
            assert tail_norm(v, m, LINF) == max(rest + [v.tail_bound])
            assert tail_norm(v, m, L1) == sum(rest, Fraction(0)) + v.tail_bound
        family = data.draw(st.lists(st.sampled_from(vectors), min_size=1,
                                    max_size=4))
        rows, denom, cols = scan_rows(family)
        dense_cols = [j for j in range(len(x))
                      if any(f.coords[j] != 0 for f in family)] or [0]
        assert cols == dense_cols
        for f, row in zip(family, rows):
            assert [Fraction(r, denom) for r in row] == [f.coords[j]
                                                        for j in cols]

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_float_readers_equal_dense_formulas(self, data):
        n = data.draw(st.integers(1, 16))
        family = [Seq(tuple(data.draw(st.lists(float_coord, min_size=n,
                                               max_size=n))), False,
                      data.draw(st.floats(0, 1e100)))
                  for _ in range(data.draw(st.integers(1, 4)))]
        m = data.draw(st.integers(1, n))
        for v in family:
            absolute = [abs(u) for u in v.coords]
            assert bits(norm(v, LINF)) == bits(max(absolute))
            assert bits(tail_norm(v, m, LINF)) == bits(
                max(absolute[m:] + [v.tail_bound]))
            assert bits(tail_norm(v, m, L1)) == bits(
                sum(absolute[m:], 0.0) + v.tail_bound)
            try:
                rest = old_pth_power(v.coords[m:], 2)
            except OverflowError:
                continue
            want = (rest + v.tail_bound ** 2.0) ** 0.5
            assert bits(tail_norm(v, m, L2)) == bits(want)
        rows, denom, cols = scan_rows(family)
        assert denom == 1
        assert cols == ([j for j in range(n)
                         if any(f.coords[j] != 0 for f in family)] or [0])
        for f, row in zip(family, rows):
            assert [bits(r) for r in row] == [bits(f.coords[j]) for j in cols]

    def test_cancellations_leave_the_support(self):
        x = seq(1, 0, Fraction(1, 2), 0, -3)
        y = seq(1, 2, 0, 0, -3)
        assert x.sub(y).nonzero == (1, 2)
        assert x.add(y.scale(-1)).nonzero == (1, 2)
        assert x.sub(x).nonzero == ()
        assert x.scale(0).nonzero == ()
        assert combine([x, y], [Fraction(1), Fraction(-1)]).nonzero == (1, 2)
        assert x.restrict((2, 4)).nonzero == (2,)
        u = Seq((0.0, -0.0, 2.5, 0.0), False, 0.0)
        assert u.nonzero == (2,) and u.lift().nonzero == (2,)
        assert Seq.zero(4, True).nonzero == () == Seq.zero(4, False).nonzero
        assert Seq.unit(3, 4, False).nonzero == (2,)

    def test_support_survives_pickling(self):
        x = seq(0, 1, 0, Fraction(-2, 3), 0, tail=Fraction(1, 4))
        for v in (x, x.sub(seq(0, 1, 0, 0, 0)), Seq.unit(2, 5, True),
                  Seq((0.0, -0.0, 1.5), False, 0.0).lift()):
            cached = v.nonzero
            copy = pickle.loads(pickle.dumps(v))
            assert copy == v and copy.coords == v.coords
            assert copy._nz == cached  # carried, not recomputed
            assert_support_and_dense(copy, list(v.coords), v.tail_bound)
        # the cache is not part of equality or hashing
        fresh = seq(0, 0, Fraction(1, 3), 0, 0)
        derived = seq(0, 1, Fraction(1, 3), 0, 0).sub(seq(0, 1, 0, 0, 0))
        assert derived._nz is not None and fresh._nz is None
        assert fresh == derived and hash(fresh) == hash(derived)


def assert_support_and_dense(got: Seq, want: list, tail) -> None:
    """got's cached support is {j : coords[j] != 0}, and its coordinates
    and tail bound are the dense reference's: equal Fractions in exact
    mode, equal bits in float mode."""
    assert got.nonzero == tuple(j for j, v in enumerate(got.coords) if v != 0)
    assert len(got.coords) == len(want)
    if got.exact:
        assert list(got.coords) == want
        assert all(type(v) is Fraction for v in got.coords)
        assert got.tail_bound == tail
    else:
        assert [bits(v) for v in got.coords] == [bits(float(v)) for v in want]
        assert bits(float(got.tail_bound)) == bits(float(tail))


# -- float kernels on the zero frame against their dense loops ---------------
#
# Verbatim copies of the float kernels as they were before they read the
# zero frame: every coordinate, written in index order.

def dense_add(x: Seq, y: Seq) -> Seq:
    return Seq(tuple(a + b for a, b in zip(x.coords, y.coords)), False,
               x.tail_bound + y.tail_bound)


def dense_sub(x: Seq, y: Seq) -> Seq:
    return Seq(tuple(a - b for a, b in zip(x.coords, y.coords)), False,
               x.tail_bound + y.tail_bound)


def dense_scale(x: Seq, a) -> Seq:
    return Seq(tuple(a * v for v in x.coords), False, abs(a) * x.tail_bound)


def dense_abs(x: Seq) -> Seq:
    return Seq(tuple(abs(v) for v in x.coords), False, x.tail_bound)


def dense_normalize(x: Seq, space: AmbientSpace) -> Seq:
    nrm = norm(x, space)
    if nrm <= zero_tol(x.exact):
        raise ZeroVector("cannot normalize a (numerically) zero vector")
    coords = tuple(float(v) / float(nrm) for v in x.coords)
    return Seq(coords, False, float(x.tail_bound) / float(nrm))


def dense_combine(basis, coeffs) -> Seq:
    """Float combine's output: the accumulators, each written as float."""
    acc, tail = [0.0] * len(basis[0]), 0.0
    for c, b in zip(coeffs, basis):
        if c == 0:
            continue
        for j in b.nonzero:
            acc[j] += c * b.coords[j]
        tail += abs(c) * b.tail_bound
    return Seq(tuple(float(v) for v in acc), False, float(tail))


def frame_off(coords, z) -> tuple:
    """The indices whose coordinate is not the float z, bit for bit."""
    return tuple(j for j, v in enumerate(coords)
                 if type(v) is not float or bits(v) != bits(z))


def assert_same_bits(got: Seq, want: Seq) -> None:
    """Equal coordinates (bits and types), tail bound, caches and JSON; the
    cached support and frame are those a fresh copy finds."""
    assert got.exact == want.exact
    assert [type(v) for v in got.coords] == [type(v) for v in want.coords]
    assert [bits(float(v)) for v in got.coords] == [
        bits(float(v)) for v in want.coords]
    assert type(got.tail_bound) is type(want.tail_bound)
    assert bits(float(got.tail_bound)) == bits(float(want.tail_bound))
    assert json.dumps(got.as_json()) == json.dumps(
        {"coords": [scalar_to_json(v) for v in want.coords],
         "exact": want.exact, "tail_bound": scalar_to_json(want.tail_bound)})
    fresh = Seq(got.coords, got.exact, got.tail_bound)
    if got._nz is not None:
        assert got._nz == fresh.nonzero
    if got._frame is not None:
        z, marked = got._frame
        assert type(z) is float and z == 0
        assert marked == frame_off(got.coords, z)
    assert fresh.frame == (0.0, frame_off(got.coords, 0.0))


# floats with many signed zeros, a few exact zeros and rationals among them
frame_coord = st.one_of(float_coord, float_coord, float_coord,
                        st.sampled_from([Fraction(0), 0, Fraction(1, 3)]))
frame_scalar = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, -2.5, 1e-300, -1e300, 5e-324]),
    st.floats(-8, 8), st.integers(-3, 3), rational)


class TestZeroFrame:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_kernel_chains_equal_dense_loops(self, data):
        n = data.draw(st.integers(1, 12))
        mostly_zero = st.one_of(st.sampled_from([0.0, -0.0]),
                                st.sampled_from([0.0, -0.0]), frame_coord)

        def vector():
            entries = data.draw(st.sampled_from([frame_coord, mostly_zero]))
            coords = data.draw(st.lists(entries, min_size=n, max_size=n))
            return Seq(tuple(coords), False, data.draw(st.floats(0, 4)))

        pool = [vector(), vector(), Seq.zero(n, False)]
        for _ in range(data.draw(st.integers(1, 8))):
            op = data.draw(st.sampled_from(
                ["add", "sub", "x-x", "scale", "abs", "normalize", "combine",
                 "pickle"]))
            x, y = data.draw(st.sampled_from(pool)), data.draw(
                st.sampled_from(pool))
            if op == "add":
                got, want = x.add(y), dense_add(x, y)
            elif op in ("sub", "x-x"):
                y = x if op == "x-x" else y
                got, want = x.sub(y), dense_sub(x, y)
            elif op == "scale":
                a = data.draw(frame_scalar)
                got, want = x.scale(a), dense_scale(x, a)
            elif op == "abs":
                got, want = x.abs_coords(), dense_abs(x)
            elif op == "normalize":
                space = data.draw(st.sampled_from([L1, L2, LINF]))
                try:
                    want = dense_normalize(x, space)
                except (ZeroVector, OverflowError, NonFiniteCoordinate) as exc:
                    with pytest.raises(type(exc)):
                        normalize(x, space)
                    continue
                got = normalize(x, space)
            elif op == "combine":
                basis = [x, y]
                coeffs = [data.draw(frame_scalar), data.draw(frame_scalar)]
                assume(all(math.isfinite(c) for c in coeffs))
                got, want = combine(basis, coeffs), dense_combine(basis, coeffs)
                assume(not got.exact)
                assert got._frame == (0.0, got.nonzero)
            else:  # as the --jobs pool sends it
                got = pickle.loads(pickle.dumps(x))
                assert got._nz == x._nz and got._frame == x._frame
                want = x
            assert_same_bits(got, want)
            pool.append(got)

    def test_signed_zero_frames(self):
        u = Seq((0.0, -0.0, 0.0, -0.0, 2.0), False, 0.0)
        v = Seq((-0.0, -0.0, 0.0, 0.0, 0.0), False, 0.0)
        assert u.frame == (0.0, (1, 3, 4)) and v.frame == (0.0, (0, 1))
        neg = u.scale(-1.0)  # every zero of u flips
        assert neg.frame == (-0.0, (1, 3, 4))
        assert [bits(c) for c in neg.coords] == [
            bits(-0.0), bits(0.0), bits(-0.0), bits(0.0), bits(-2.0)]
        diff = neg.sub(v.abs_coords())  # -0.0 - +0.0 is -0.0
        assert bits(diff.frame[0]) == bits(-0.0)
        assert_same_bits(diff, dense_sub(neg, dense_abs(v)))
        assert v.sub(v).frame == (0.0, ())
        assert_same_bits(neg.add(neg), dense_add(neg, neg))

    def test_infinite_scale_caches_nothing(self):
        x = Seq((0.0, -0.0, 1.5, 0.0, -2.0), False, 0.25)
        got = x.scale(math.inf)
        want = dense_scale(x, math.inf)
        assert got._nz is None and got._frame is None
        assert [bits(v) for v in got.coords] == [bits(v) for v in want.coords]
        assert [math.isnan(v) for v in got.coords] == [
            True, True, False, True, False]
        assert got.nonzero == (0, 1, 2, 3, 4)
        assert got.frame == (0.0, (0, 1, 2, 3, 4))
        for space in (L1, L2, LINF):
            with pytest.raises(NonFiniteCoordinate):
                norm(got, space)
        with pytest.raises(NonFiniteCoordinate):
            norm(pickle.loads(pickle.dumps(got)), L2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("space", [L1, L2, LINF])
    def test_norm_rejects_non_finite_last_coordinate(self, bad, space):
        last = Seq((0.0,) * 1999 + (bad,), False, 0.0)
        with pytest.raises(NonFiniteCoordinate):
            norm(last, space)
        with pytest.raises(NonFiniteCoordinate):
            norm(last.scale(2.0), space)
        signed = Seq((-0.0,) * 1000 + (bad,) + (-0.0,) * 999, False, 0.0)
        with pytest.raises(NonFiniteCoordinate):
            norm(signed, space)

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
    def test_from_json_rejects_non_finite_last_coordinate(self, text):
        obj = json.loads('{"coords": [' + "0.0, -0.0, " * 999 + text +
                         '], "exact": false, "tail_bound": 0.0}')
        with pytest.raises(NonFiniteCoordinate):
            Seq.from_json(obj)

    def test_json_round_trip_keeps_signed_zeros(self):
        x = Seq((0.0, -0.0, 5e-324, -0.0, 1e300), False, 0.5)
        doc = json.loads(json.dumps(x.as_json()))
        back = Seq.from_json(doc)
        assert [bits(v) for v in back.coords] == [bits(v) for v in x.coords]
        assert back.frame == (0.0, (1, 2, 3, 4))
        mixed = Seq((0.0, Fraction(0), -0.0), False, 0.0)
        assert mixed.as_json()["coords"] == [0.0, "0/1", -0.0]
        assert mixed.frame == (0.0, (1, 2))
