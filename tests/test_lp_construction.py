import functools
import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seqlab.certificates import SCHEMA_VERSION
from seqlab.core import AmbientSpace, Seq, norm, subspace_from_json
from seqlab.errors import (
    DimensionExhausted,
    EpsOutOfRange,
    LengthMismatch,
    OverlappingWindows,
    UnnormalizedBlock,
)
from seqlab.lp_construction import (
    _dot,
    basis_constant_lower_bound,
    block_projection,
    construct_dominant_sequence,
    construct_zeroed_sequence,
    small_perturbation_cert,
)
from seqlab.operators import ProjectionOp
from conftest import fixture_json, unit_subspace

L2 = AmbientSpace.lp(2)


def dense_f1(t: int = 2000, dim: int = 40) -> Seq:
    """Unit-dominant combination with a fast-decaying dense remainder:
    seeds the pipeline so the zeroing corrections are genuinely nonzero."""
    coords = [0.0] * t
    coords[0] = 1.0
    for j in range(2, dim + 1):
        coords[j - 1] = 1e-4 * 0.5 ** (j - 2) * (1 if j % 3 else -1)
    return Seq(tuple(coords), False, 0.0)


Q_CASES = ("l1_exact", "l3/2_dense", "l2_dense", "l3_dense", "l2_geometric",
           "l2_spread")


@functools.lru_cache(maxsize=None)
def _q_case(name: str):
    """A passing zeroing certificate for the Q property test: exact l1,
    dense f1 at p = 3/2, 2 and 3, f1 a geometric generator in l2, and an
    l2 f1 spread over 40 coordinates, whose certified bound needs the
    Schur weights (unit weights give 3.6 > q_norm_bound)."""
    if name == "l1_exact":
        sub = unit_subspace(AmbientSpace.lp(1), 24, 120)
        coords = [Fraction(0)] * 120
        coords[0] = Fraction(1)
        for j in range(2, 25):
            coords[j - 1] = Fraction((-1) ** j, 5000 * 2 ** (j - 2))
        f1 = Seq(tuple(coords), True, Fraction(0))
    elif name == "l2_geometric":
        gens = [{"kind": "unit", "index": j} for j in range(1, 21)]
        gens.append({"kind": "geometric", "ratio": "1/2"})
        sub = subspace_from_json(fixture_json({"kind": "lp", "p": 2}, 200,
                                              gens))
        f1 = sub.generators[-1]
    elif name == "l2_spread":
        sub = unit_subspace(L2, 80, 400)
        f1 = Seq(tuple([1.0] + [0.16] * 39 + [0.0] * 360), False, 0.0)
    else:
        p = {"l3/2_dense": Fraction(3, 2), "l2_dense": 2, "l3_dense": 3}[name]
        sub = unit_subspace(AmbientSpace.lp(p), 40, 400)
        f1 = dense_f1(400, 40)
    cert = construct_zeroed_sequence(sub, Fraction(1, 600), 4, f1=f1)
    assert cert.status == "pass" and cert.q_op is not None
    return cert


class TestDominantSequence:
    def test_eps_upper_bound_named(self):
        sub = unit_subspace(L2, 8, 64)
        with pytest.raises(EpsOutOfRange, match="4/33"):
            construct_dominant_sequence(sub, Fraction(1, 8), 3)
        with pytest.raises(EpsOutOfRange):
            construct_dominant_sequence(sub, Fraction(0), 3)

    def test_dimension_exhausted(self):
        sub = unit_subspace(L2, 2, 64)
        with pytest.raises(DimensionExhausted):
            construct_dominant_sequence(sub, Fraction(1, 10), 5)

    def test_coordinate_fixture_full_ledger(self, coord_l2_40):
        cert = construct_dominant_sequence(coord_l2_40, Fraction(1, 10), 6)
        assert cert.status == "pass"
        assert len(cert.f) == 6
        # interleaving and strict growth
        assert cert.s[0] == cert.n_cut[0]
        for k in range(1, 6):
            assert cert.n_cut[k - 1] < cert.s[k] < cert.n_cut[k]
        # delta against the closed-form budget
        assert cert.delta <= 4 * Fraction(1, 10) / (4 - Fraction(1, 10))
        assert 8 * cert.delta < 1
        # windows partition and hold the blocks
        for (lo, hi), g in zip(cert.sigma, cert.g):
            assert all(g.at(j) == 0 for j in range(1, lo))
            assert abs(norm(g, L2) - 1) <= 1e-9

    def test_block_disjointness_exact_pw_additivity(self, coord_l2_40):
        # disjoint blocks: |sum a_k g_k|^p == sum |a_k|^p exactly on the
        # p-th power level (float fixture: compare within 1e-12)
        cert = construct_dominant_sequence(coord_l2_40, Fraction(1, 10), 5)
        coeffs = [0.7, -0.3, 1.1, 0.4, -0.9]
        acc = None
        for c, g in zip(coeffs, cert.g):
            term = g.scale(c)
            acc = term if acc is None else acc.add(term)
        lhs = norm(acc, L2) ** 2
        rhs = sum(c * c * norm(g, L2) ** 2 for c, g in zip(coeffs, cert.g))
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestBlockProjection:
    def test_coordinate_projection(self):
        g = [Seq.unit(1, 6, True), Seq.unit(2, 6, True)]
        p_op = block_projection(g, [(1, 1), (2, 2)], 2)
        x = Seq((0.5, -0.25, 3.0, 4.0, 0.0, 1.0), False, 0.0)
        px = p_op.apply(x)
        assert px.coords[:2] == (0.5, -0.25)
        assert all(v == 0 for v in px.coords[2:])

    def test_fixed_points_and_idempotency(self):
        inv = 1 / math.sqrt(2.0)
        g = [Seq((1.0, 0.0, 0.0), False, 0.0),
             Seq((0.0, inv, inv), False, 0.0)]
        p_op = block_projection(g, [(1, 1), (2, 3)], 2)
        for gk in g:
            assert norm(p_op.apply(gk).sub(gk), L2) <= 1e-12
        rng = random.Random(7)
        for _ in range(200):
            x = Seq(tuple(rng.uniform(-1, 1) for _ in range(3)), False, 0.0)
            px = p_op.apply(x)
            assert norm(px, L2) <= norm(x, L2) + 1e-12
            assert norm(p_op.apply(px).sub(px), L2) <= 1e-12

    @given(p=st.sampled_from([Fraction(4, 3), Fraction(3, 2), Fraction(5, 2),
                              Fraction(3)]),
           blocks=st.lists(st.lists(st.floats(-1, 1).filter(
               lambda v: abs(v) >= 0.01), min_size=1, max_size=6),
               min_size=1, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_certified_bound_not_below_gram_diagonal(self, p, blocks):
        """P g_k = psi_k(g_k) g_k for disjoint blocks, so ||P||_{p->p} >=
        |psi_k(g_k)| exactly; the certified bound, whose float steps round
        up, never falls below that."""
        pf = float(p)
        t = sum(map(len, blocks))
        g, sigma = [], []
        for vals in blocks:
            lo = sigma[-1][1] + 1 if sigma else 1
            scale = sum(abs(v) ** pf for v in vals) ** (1 / pf)
            coords = [0.0] * t
            coords[lo - 1:lo - 1 + len(vals)] = [v / scale for v in vals]
            g.append(Seq(tuple(coords), False, 0.0))
            sigma.append((lo, lo + len(vals) - 1))
        p_op = block_projection(g, sigma, p)
        gram = p_op.gram()
        assert p_op.certified_norm_bound() >= max(abs(gram[k][k])
                                                  for k in range(len(g)))

    def test_fixed_point_bounds_round_up_when_g_is_not_i(self):
        """G = psi(v) = 0.18, so |P v - v|_2 = 0.82 |v|_2 exactly.  Each
        float bound squared is at least the exact sum of squares it bounds;
        rounded to nearest, the fixed-point bound fell below it."""
        v, psi = (0.2, 0.7, 0.6), (0.25, 0.1, 0.1)
        op = ProjectionOp((Seq(psi, False, 0.0),), (Seq(v, False, 0.0),), L2)
        [[g]] = op.gram()
        assert g != 1
        [fix], idem = op.fixed_point_bounds()
        fix_sq = sum(((g - 1) * Fraction(x)) ** 2 for x in v)
        assert Fraction(fix) ** 2 >= fix_sq
        assert Fraction(idem) ** 2 >= sum(Fraction(y) ** 2 for y in psi) * fix_sq

    @pytest.mark.parametrize("p", [Fraction(2), Fraction(5, 2)])
    def test_combination_bounds_round_up(self, p):
        """sum_j |c_j| |v_j|_p rounded up; at p = 5/2 from |v_j|_2, which is
        not smaller.  So bound^2 >= sum_i (c v(i))^2 for one vector."""
        v = (0.2, 0.7, 0.6)
        op = ProjectionOp((Seq((0.25, 0.1, 0.1), False, 0.0),),
                          (Seq(v, False, 0.0),), AmbientSpace.lp(p))
        for c in (Fraction(-41, 50), Fraction(1, 3), Fraction(7, 5)):
            [bound] = op.combination_bounds([[c]])
            assert Fraction(bound) ** 2 >= sum((c * Fraction(x)) ** 2
                                               for x in v)

    def test_window_validation(self):
        g = [Seq.unit(1, 4, True), Seq.unit(2, 4, True)]
        with pytest.raises(OverlappingWindows):
            block_projection(g, [(1, 2), (2, 3)], 2)
        with pytest.raises(OverlappingWindows):
            # support leaks outside its window
            block_projection([Seq((1.0, 0.5, 0.0, 0.0), False, 0.0),
                              Seq.unit(3, 4, False)], [(1, 1), (3, 3)], 2)
        with pytest.raises(UnnormalizedBlock):
            block_projection([Seq((0.5, 0.0), False, 0.0)], [(1, 1)], 2)

    @given(data=st.data(), exact=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_transfer_dot_equals_dense_sum(self, data, exact):
        """The transfer matrix entry, read on the supports, is the sum
        over every coordinate: same value, type and float bits."""
        n = data.draw(st.integers(1, 8))
        entry = (st.sampled_from([Fraction(0), Fraction(0), Fraction(-2, 3),
                                  Fraction(5)]) if exact
                 else st.sampled_from([0.0, -0.0, -0.0, 1.5, -1e-300, 1e300,
                                       5e-324, math.inf, -math.inf]))

        def vector():
            coords = data.draw(st.lists(entry, min_size=n, max_size=n))
            return Seq(tuple(coords), exact, 0)

        x, y = vector(), vector()
        want = sum(a * b for a, b in zip(x.coords, y.coords))
        got = _dot(x, y)
        assert type(got) is type(want)
        if exact:
            assert got == want
        else:
            assert struct.pack("<d", got) == struct.pack("<d", want) or (
                math.isnan(got) and math.isnan(want))

    def test_p1_sign_functional(self):
        g = [Seq((Fraction(-1, 2), Fraction(1, 2)), True, Fraction(0))]
        p_op = block_projection(g, [(1, 2)], 1)
        # p = 1 functional is the sign vector on the support, so P fixes g
        phi = p_op.functionals[0]
        assert phi.coords == (Fraction(-1), Fraction(1))
        assert norm(p_op.apply(g[0]).sub(g[0]), AmbientSpace.lp(1)) == 0
        # norm-1 contractivity on random l1 vectors
        rng = random.Random(5)
        for _ in range(100):
            x = Seq(tuple(Fraction(rng.randint(-8, 8), 4) for _ in range(2)),
                    True, Fraction(0))
            assert norm(p_op.apply(x), AmbientSpace.lp(1)) \
                <= norm(x, AmbientSpace.lp(1))


class TestPerturbation:
    def test_zero_perturbation(self):
        base = [Seq.unit(1, 4, True), Seq.unit(2, 4, True)]
        p_op = block_projection(base, [(1, 1), (2, 2)], 2)
        cert = small_perturbation_cert(base, base, 1, p_op, L2)
        assert cert.ok
        assert cert.delta == 0
        assert cert.t_norm_bound == 1
        assert cert.q_norm_bound_tight == 1
        assert cert.basis_bound == 2

    @pytest.mark.parametrize("eps", [Fraction(1, 100), Fraction(5, 100),
                                     Fraction(1, 10)])
    def test_reference_constants_exact(self, eps):
        # with K = 1, P_norm = 1, delta = 4eps/(4-eps) the emitted bounds are
        # exactly (8-2eps)/(4-9eps) and (8-2eps)/(4-33eps)
        delta = 4 * eps / (4 - eps)
        base = [Seq((Fraction(1), Fraction(0)), True, Fraction(0))]
        pert = [Seq((Fraction(1), delta), True, Fraction(0))]
        cert = small_perturbation_cert(base, pert, 1, None,
                                       AmbientSpace.lp(1), p_norm=1)
        assert cert.delta == delta
        assert cert.basis_bound == (8 - 2 * eps) / (4 - 9 * eps)
        assert cert.q_norm_bound == (8 - 2 * eps) / (4 - 33 * eps)

    def test_gate_failure_emits_no_bounds(self):
        base = [Seq((Fraction(1), Fraction(0)), True, Fraction(0))]
        pert = [Seq((Fraction(1), Fraction(1, 4)), True, Fraction(0))]
        cert = small_perturbation_cert(base, pert, 1, None,
                                       AmbientSpace.lp(1), p_norm=1)
        assert not cert.ok  # 8 * 1/4 = 2 >= 1
        assert cert.t_norm_bound is None
        assert cert.q_norm_bound is None

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            small_perturbation_cert([Seq.unit(1, 4, True)],
                                    [Seq.unit(1, 4, True),
                                     Seq.unit(2, 4, True)],
                                    1, None, L2, p_norm=1)


class TestZeroedSequence:
    def test_eps_bound_strict(self, coord_l2_40):
        with pytest.raises(EpsOutOfRange, match="1/512"):
            construct_zeroed_sequence(coord_l2_40, Fraction(1, 512), 3)

    def test_depth_one_no_corrections(self, coord_l2_40):
        cert = construct_zeroed_sequence(coord_l2_40, Fraction(1, 600), 1)
        assert cert.status == "pass"
        assert cert.l[0].coords == cert.dominance.f[0].coords
        assert cert.iteration_depth == (0,)

    def test_full_pipeline_nontrivial_corrections(self, coord_l2_40):
        cert = construct_zeroed_sequence(coord_l2_40, Fraction(1, 600), 6,
                                         f1=dense_f1())
        assert cert.status == "pass"
        assert cert.residuals[0] > 0  # the recursion actually corrected
        eps = Fraction(1, 600)
        for k in range(1, 7):
            assert cert.residuals[k - 1] <= eps / 2 ** k
            lk = cert.l[k - 1]
            assert abs(lk.at(cert.s[k - 1])) > 1e-9
            for j in range(1, 7):
                if j != k:
                    assert abs(lk.at(cert.s[j - 1])) <= 1e-9

    def test_cauchy_ledger_property(self, coord_l2_40):
        cert = construct_zeroed_sequence(coord_l2_40, Fraction(1, 600), 5,
                                         f1=dense_f1())
        cauchy = [c for c in cert.checks if c.key == "cauchy"]
        assert cauchy and all(c.passed for c in cauchy)

    @given(name=st.sampled_from(Q_CASES), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_q_projection_sampled_norm_within_bound(self, name, data):
        """|Qx|_p / |x|_p on random x, sparse or dense over the coordinates
        Q reads, never exceeds the certified bound, which stays below the
        perturbation certificate's q_norm_bound; Q fixes the family."""
        cert = _q_case(name)
        q = cert.q_op
        bound = q.certified_norm_bound()
        assert bound <= cert.perturbation.q_norm_bound
        for fk in cert.dominance.f:
            assert norm(q.apply(fk).sub(fk), q.space) <= (0 if q.exact
                                                           else 1e-7)
        support = sorted({j + 1 for v in q.functionals + q.vectors
                          for j in v.nonzero})
        entries = data.draw(st.lists(
            st.tuples(st.sampled_from(support), st.integers(-64, 64)),
            min_size=1, max_size=16))
        if data.draw(st.booleans()):
            rng = data.draw(st.randoms(use_true_random=False))
            entries += [(j, rng.randint(-16, 16)) for j in support]
        one = Fraction(1, 16) if q.exact else 1 / 16
        coords = [0 * one] * len(q.vectors[0])
        for j, a in entries:
            coords[j - 1] += a * one
        x = Seq(tuple(coords), q.exact, 0 * one)
        nx = norm(x, q.space)
        assume(nx > 0)
        ratio = norm(q.apply(x), q.space) / nx
        assert ratio <= (bound if q.exact else bound * (1 + 1e-9))


class TestExactL1Pipeline:
    def test_end_to_end_exact_rationals(self):
        # p = 1 supports full exact mode: every norm is rational, every
        # zero in the pattern is exactly zero
        sub = unit_subspace(AmbientSpace.lp(1), 24, 120)
        coords = [Fraction(0)] * 120
        coords[0] = Fraction(1)
        for j in range(2, 25):
            coords[j - 1] = Fraction((-1) ** j, 5000 * 2 ** (j - 2))
        f1 = Seq(tuple(coords), True, Fraction(0))
        cert = construct_zeroed_sequence(sub, Fraction(1, 600), 4, f1=f1)
        assert cert.status == "pass"
        assert cert.l[0].exact
        assert cert.residuals[0] > 0
        for k in range(1, 5):
            for j in range(1, 5):
                if j != k:
                    assert cert.l[k - 1].at(cert.s[j - 1]) == 0  # exact
        assert isinstance(norm(cert.l[0], AmbientSpace.lp(1)), Fraction)
        # disjoint blocks: p-th-power additivity holds exactly in
        # rational mode
        coeffs = [Fraction(3, 4), Fraction(-2, 3), Fraction(5, 7),
                  Fraction(-1, 9)]
        acc = None
        for c, g in zip(coeffs, cert.dominance.g):
            term = g.scale(c)
            acc = term if acc is None else acc.add(term)
        l1 = AmbientSpace.lp(1)
        assert norm(acc, l1) == sum(abs(c) * norm(g, l1)
                                    for c, g in zip(coeffs, cert.dominance.g))
        from seqlab.verify import verify_certificate
        doc = {"schema_version": SCHEMA_VERSION, "kind": "zeroing"}
        doc.update(cert.as_json())
        rep = verify_certificate(doc)
        assert rep.ok, rep.first_failure()


class TestBasisConstantLowerBound:
    def test_disjoint_blocks_give_one(self):
        fam = [Seq.unit(j, 8, True) for j in range(1, 5)]
        bound = basis_constant_lower_bound(fam, AmbientSpace.lp(1), trials=50)
        assert bound == 1

    def test_single_vector(self):
        assert basis_constant_lower_bound([Seq.unit(1, 4, True)],
                                          AmbientSpace.linf()) == 1

    def test_overlapping_pair_sup(self):
        # grid oracle: sup over a of |a1 e1| / |a1 e1 + a2 (e1+e2)| reaches 2
        # (a = (2, -1)); the sampled bound must reach at least 1 and stay
        # below the oracle's sup
        f1 = Seq.unit(1, 4, True)
        f2 = Seq((Fraction(1), Fraction(1), Fraction(0), Fraction(0)), True,
                 Fraction(0))
        linf = AmbientSpace.linf()
        oracle = Fraction(0)
        for a1 in range(-8, 9):
            for a2 in range(-8, 9):
                full = f1.scale(Fraction(a1)).add(f2.scale(Fraction(a2)))
                head = f1.scale(Fraction(a1))
                if norm(full, linf) == 0:
                    continue
                oracle = max(oracle, norm(head, linf) / norm(full, linf))
        assert oracle == 2
        bound = basis_constant_lower_bound([f1, f2], linf, trials=200, seed=1)
        assert 1 <= bound <= oracle
