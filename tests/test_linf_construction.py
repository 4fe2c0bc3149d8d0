from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlab import linalg
from seqlab.certificates import SCHEMA_VERSION
from seqlab.core import (AmbientSpace, Seq, Subspace, combine, norm,
                         subspace_from_json)
from seqlab.errors import (
    CaseBoundViolated,
    ConfigError,
    DimensionExhausted,
    InsufficientStabilization,
    NetTooCoarse,
)
from seqlab.lineability import geometric_generator
from seqlab.linf_construction import (
    MazurCert,
    _impose_zeros,
    build_cascade,
    construct_sup_zeroed_sequence,
    default_eps_seq,
    extract_stabilizing_subsequence,
    mazur_basic_sequence,
    sample_basis_inequality,
)
from conftest import tailed_linf_subspace, unit_subspace
from test_golden import _tailed_fixture
from test_linalg import fraction_rref

LINF = AmbientSpace.linf()


def fr(*vals):
    return Seq(tuple(Fraction(v) for v in vals), True, Fraction(0))


def synth_mazur(rows: dict, n_list, t: int = 40) -> MazurCert:
    """Hand-built unit-diagonal family for cascade case routing tests."""
    fs = []
    for idx in n_list:
        coords = [Fraction(0)] * t
        for j, v in rows[idx].items():
            coords[j - 1] = Fraction(v)
        fs.append(Seq(tuple(coords), True, Fraction(0)))
    return MazurCert(space=LINF, eps_seq=(Fraction(1),), n=tuple(n_list),
                     f=tuple(fs), net_sizes=(0,) * len(n_list),
                     functionals=((),) * len(n_list),
                     zeroed_coords=tuple(n_list), checks=(), seed=0,
                     samples=0)


class TestMazur:
    def test_coordinate_fixture_unit_pattern(self, coord_linf_30):
        eps_seq = [Fraction(1)] + [Fraction(1, 2 ** i) for i in range(2, 8)]
        cert = mazur_basic_sequence(coord_linf_30, eps_seq, 4, samples=100)
        assert cert.status == "pass"
        assert cert.n == (1, 2, 3, 4)
        for k, f in enumerate(cert.f, start=1):
            assert f.at(cert.n[k - 1]) == 1
            assert norm(f, LINF) == 1
            for i in range(1, k):
                assert f.at(cert.n[i - 1]) == 0

    def test_eps_seq_validation(self, coord_linf_30):
        with pytest.raises(ConfigError):
            mazur_basic_sequence(coord_linf_30, [Fraction(1), Fraction(1)], 3)
        with pytest.raises(ConfigError):
            mazur_basic_sequence(coord_linf_30, [Fraction(1, 2)], 2)
        with pytest.raises(ConfigError):
            mazur_basic_sequence(coord_linf_30, [Fraction(1)], 3)

    def test_dimension_exhausted(self):
        small = unit_subspace(LINF, 3, 24)
        eps_seq = [Fraction(1)] + [Fraction(1, 2 ** i) for i in range(2, 10)]
        with pytest.raises(DimensionExhausted):
            mazur_basic_sequence(small, eps_seq, 6)

    def test_sup_ambient_required(self):
        sub = unit_subspace(AmbientSpace.lp(2), 4, 16)
        with pytest.raises(ConfigError):
            mazur_basic_sequence(sub, [Fraction(1)], 1)

    def test_net_too_coarse_wiring(self, coord_linf_30, monkeypatch):
        import seqlab.linf_construction as mod

        def broken(f_list, eps_seq, depth, seed, samples):
            return {(1, 2): Fraction(-1)}

        monkeypatch.setattr(mod, "sample_basis_inequality", broken)
        eps_seq = [Fraction(1)] + [Fraction(1, 2 ** i) for i in range(2, 8)]
        with pytest.raises(NetTooCoarse):
            mazur_basic_sequence(coord_linf_30, eps_seq, 3)

    def test_sampled_inequality_detects_non_basic_family(self):
        # a family violating the basis inequality: the second vector
        # cancels the first's large off-diagonal mass
        f1 = fr(*( [1] + [0] * 8 + [2] ))
        f2 = Seq(tuple([Fraction(0), Fraction(1)] + [Fraction(0)] * 7
                       + [Fraction(-2)]), True, Fraction(0))
        margins = sample_basis_inequality(
            [f1, f2], [Fraction(1, 100)], 2, seed=0, samples=200)
        assert margins[(1, 2)] < 0


class TestExtract:
    def test_constant_zero(self):
        g = fr(*([0] * 20))
        m = list(range(1, 21))
        kept, l1, l2 = extract_stabilizing_subsequence(g, g, m,
                                                       Fraction(1, 20))
        assert kept == m[2:]
        assert l1 == 0 and l2 == 0

    def test_reciprocal_bucket_oracle(self):
        # g1(m_k) = 1/k, g2(m_k) = 1 - 1/k over 100 indices, tol = 0.05:
        # the dominant buckets are L1 = 0 (deep k) and L2 = 1
        t = 100
        g1 = Seq(tuple(1.0 / k for k in range(1, t + 1)), False, 0.0)
        g2 = Seq(tuple(1.0 - 1.0 / k for k in range(1, t + 1)), False, 0.0)
        m = list(range(1, t + 1))
        tol = 0.05
        kept, l1, l2 = extract_stabilizing_subsequence(g1, g2, m, tol)
        assert l1 == 0.0
        assert l2 == pytest.approx(1.0, abs=1e-12)
        # independent bucket-count oracle over the candidate values
        import math
        keys = Counter(math.floor(1.0 / k / tol + 0.5) for k in m[2:])
        best_key = max(sorted(keys), key=lambda key: keys[key])
        assert best_key == 0
        expected = [k for k in m[2:]
                    if math.floor(1.0 / k / tol + 0.5) == 0]
        assert kept == expected
        assert len(kept) >= 55
        assert all(abs(g1.at(k)) <= 1.5 * tol for k in kept)

    def test_too_few_indices(self):
        g = fr(0, 0, 0)
        with pytest.raises(InsufficientStabilization):
            extract_stabilizing_subsequence(g, g, [1, 2, 3], Fraction(1, 10))

    def test_no_bucket_captures_enough(self):
        # six candidates spread over six distinct buckets
        g = Seq(tuple(Fraction(k) for k in range(1, 9)), True, Fraction(0))
        with pytest.raises(InsufficientStabilization):
            extract_stabilizing_subsequence(g, g, list(range(1, 9)),
                                            Fraction(1, 10))


class TestCascade:
    def test_coordinate_fixture_all_case_one(self, coord_linf_30):
        eps_seq = [Fraction(1)] + [Fraction(1, 2 ** i) for i in range(2, 14)]
        mz = mazur_basic_sequence(coord_linf_30, eps_seq, 12, samples=50)
        cert = build_cascade(mz, list(mz.n), 4, stab_tol=Fraction(1, 10 ** 6))
        assert cert.status == "pass"
        assert all(tr["case"] == 1 for tr in cert.case_trace)
        for lvl, (t_idx, h) in enumerate(zip(cert.t, cert.h), start=1):
            assert h.at(t_idx) == 1
            assert norm(h, LINF) <= 6

    def test_case_two_constant_tail(self):
        n = list(range(1, 13))
        rows = {idx: {idx: 1} for idx in n}
        rows[1] = {1: 1, **{k: Fraction(3, 10) for k in n[2:]}}
        cert = build_cascade(synth_mazur(rows, n), n, 2,
                             stab_tol=Fraction(1, 10 ** 6))
        tr = cert.case_trace[0]
        assert tr["case"] == 2
        assert tr["L1"] == Fraction(3, 10) and tr["L2"] == 0
        assert cert.t[0] == 2  # diagonal moved to m2
        assert norm(cert.h[0], LINF) <= 2

    def test_case_three_and_four_ratio_correction(self):
        n = list(range(1, 13))
        # |L1| <= |L2|: h = g1 - (L1/L2) g2, diagonal at m1
        rows = {idx: {idx: 1} for idx in n}
        rows[1] = {1: 1, 2: Fraction(2, 10),
                   **{k: Fraction(2, 10) for k in n[2:]}}
        rows[2] = {2: 1, **{k: Fraction(3, 10) for k in n[2:]}}
        cert = build_cascade(synth_mazur(rows, n), n, 1,
                             stab_tol=Fraction(1, 10 ** 6))
        tr = cert.case_trace[0]
        assert tr["case"] == 3
        assert tr["L1"] == Fraction(2, 10) - Fraction(2, 10) * Fraction(3, 10)
        assert tr["L2"] == Fraction(3, 10)
        assert cert.h[0].at(cert.t[0]) == 1 and cert.t[0] == 1
        assert norm(cert.h[0], LINF) <= 8
        # |L2| < |L1|: h = g2 - (L2/L1) g1, diagonal at m2
        rows = {idx: {idx: 1} for idx in n}
        rows[1] = {1: 1, 2: Fraction(3, 10),
                   **{k: Fraction(3, 10) for k in n[2:]}}
        rows[2] = {2: 1, **{k: Fraction(2, 10) for k in n[2:]}}
        cert = build_cascade(synth_mazur(rows, n), n, 1,
                             stab_tol=Fraction(1, 10 ** 6))
        tr = cert.case_trace[0]
        assert tr["case"] == 4
        assert tr["L1"] == Fraction(3, 10) - Fraction(3, 10) * Fraction(2, 10)
        assert cert.t[0] == 2
        assert cert.h[0].at(2) == 1
        assert norm(cert.h[0], LINF) <= 8

    def test_case_bound_violation_raises(self):
        # invalid input family (sup norms 3 > 2) blows the case-1 bound
        n = list(range(1, 13))
        rows = {idx: {idx: 1} for idx in n}
        rows[1] = {1: 1, 2: 2, 30: -3}
        rows[2] = {2: 1, 30: 3}
        with pytest.raises(CaseBoundViolated):
            build_cascade(synth_mazur(rows, n), n, 1,
                          stab_tol=Fraction(1, 10 ** 6))

    def test_m_must_be_mazur_indices(self, coord_linf_30):
        eps_seq = [Fraction(1)] + [Fraction(1, 2 ** i) for i in range(2, 8)]
        mz = mazur_basic_sequence(coord_linf_30, eps_seq, 4, samples=20)
        with pytest.raises(ConfigError):
            build_cascade(mz, [1, 2, 99, 100], 1)


class TestSupZeroing:
    def test_coordinate_fixture_trivial_residuals(self):
        sub = unit_subspace(LINF, 30, 130)
        cert = construct_sup_zeroed_sequence(sub, 4, seed=1)
        assert cert.status == "pass"
        assert all(r == 0 for r in cert.residuals)
        for k, l in enumerate(cert.l, start=1):
            assert l.at(cert.s[k - 1]) == 1
            assert norm(l, LINF) <= 9
            for j in range(1, len(cert.s) + 1):
                if j != k:
                    assert l.at(cert.s[j - 1]) == 0

    def test_mixed_fixture_independent_reverify(self):
        sub = tailed_linf_subspace(dim=18, t=110)
        cert = construct_sup_zeroed_sequence(sub, 4, seed=2)
        assert cert.status == "pass"
        eps = cert.eps
        for k in range(1, 5):
            assert cert.residuals[k - 1] <= eps / 2 ** k
            assert norm(cert.l[k - 1], LINF) <= 9
        # doubled-precision style independent re-check of the whole doc
        from seqlab.verify import verify_certificate
        doc = {"schema_version": SCHEMA_VERSION, "kind": "sup_zeroing"}
        doc.update(cert.as_json())
        report = verify_certificate(doc)
        assert report.ok, report.first_failure()

    def test_too_shallow_truncation(self):
        sub = unit_subspace(LINF, 8, 12)
        with pytest.raises(ConfigError):
            construct_sup_zeroed_sequence(sub, 4, seed=0)

    def test_true_k_condition_flagged_unverified(self):
        sub = unit_subspace(LINF, 30, 130)
        cert = construct_sup_zeroed_sequence(sub, 4, seed=1)
        assert cert.true_k_condition_verified is False
        assert 2 * cert.k_est * cert.eps < 1


@st.composite
def exact_sup_subspace(draw, tailed=True):
    """An exact linf or c0 span of unit, scaled-unit, dense and, when
    tailed, geometric (nonzero sup tail) generators.  Untailed, every tail
    bound is 0, and a dense generator may carry Seq's default int 0."""
    space = draw(st.sampled_from([LINF, AmbientSpace.c0()]))
    t = draw(st.integers(4, 14))
    kinds = ["unit", "scaled", "geometric", "dense"] if tailed \
        else ["unit", "scaled", "dense"]
    gens = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(kinds))
        if kind == "unit":
            gens.append(Seq.unit(draw(st.integers(1, t)), t, True))
        elif kind == "scaled":
            j = draw(st.integers(1, t))
            gens.append(Seq.unit(j, t, True).scale(Fraction(1, 2 ** (j + 24))))
        elif kind == "geometric":
            ratio = draw(st.sampled_from([Fraction(1, 2), Fraction(1, 3),
                                          Fraction(3, 5), Fraction(7, 8)]))
            gens.append(geometric_generator(ratio, t, space))
        else:
            coords = draw(st.lists(st.one_of(
                st.just(Fraction(0)),
                st.fractions(min_value=-4, max_value=4, max_denominator=9)),
                min_size=t, max_size=t))
            if tailed:
                tail = draw(st.one_of(st.just(Fraction(0)),
                                      st.fractions(min_value=0, max_value=1,
                                                   max_denominator=7)))
            else:
                tail = draw(st.sampled_from([0, Fraction(0)]))
            gens.append(Seq(tuple(coords), True, tail))
    return space, gens


def _assert_same_basis(got, want):
    """Equal RREF bases on coordinates and supports; tail bounds are not
    compared, since they depend on the steps that reached a basis."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.coords == w.coords
        assert all(type(v) is Fraction for v in g.coords)
        assert g.nonzero == w.nonzero == tuple(
            j for j, v in enumerate(g.coords) if v != 0)
        assert g.exact


def _t_wide_constrained_basis(subspace, constraints):
    """RREF basis of {f in span(V): f(j)=0 for j in constraints}, rebuilt
    from the reduced basis of V by the Fraction elimination: combine the
    nullspace coefficients first, then reduce the T-wide vectors."""
    basis = subspace.reduced_basis
    if not basis:  # a zero fixture: no coefficient rows to reduce
        return ()
    matrix = [[b.at(j) for b in basis] for j in constraints]
    coeff_rows = linalg.nullspace_basis(matrix, len(basis), Fraction(0))
    if not coeff_rows:
        return ()
    vs = [combine(basis, c) for c in coeff_rows]
    with mock.patch.object(linalg, "rref", fraction_rref):
        rows, tails, _ = linalg.rref([list(v.coords) for v in vs],
                                     Fraction(0), [v.tail_bound for v in vs])
    return tuple(Seq(tuple(r), True, tb) for r, tb in zip(rows, tails))


def _constraint_lists(sub, gens, data, max_size):
    """Constraints drawn from every coordinate, the pivot columns and the
    all-zero columns, repeats included."""
    t = len(gens[0])
    zero_cols = [j for j in range(1, t + 1)
                 if not any(g.at(j) for g in gens)]
    pools = [st.integers(1, t)]
    if sub.pivots:
        pools.append(st.sampled_from(sub.pivots))
    if zero_cols:
        pools.append(st.sampled_from(zero_cols))
    return data.draw(st.lists(st.one_of(*pools), max_size=max_size))


class TestConstrainedBasis:
    @given(fixture=exact_sup_subspace(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_exact_equals_t_wide_reduction(self, fixture, data):
        """A whole list of constraints at once, as a Mazur step passes its
        new ones, gives the T-wide Fraction reduction's basis."""
        space, gens = fixture
        sub = Subspace.build(space, gens)
        with mock.patch.object(linalg, "rref", fraction_rref):
            ref_sub = Subspace.build(space, gens)
        assert sub.reduced_basis == ref_sub.reduced_basis
        assert sub.pivots == ref_sub.pivots
        constraints = _constraint_lists(sub, gens, data, 4)
        _assert_same_basis(_impose_zeros(sub.reduced_basis, constraints),
                           _t_wide_constrained_basis(ref_sub, constraints))

    @given(fixture=exact_sup_subspace(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_incremental_update_equals_rebuild(self, fixture, data):
        """One constraint at a time, the update gives the rebuild's basis,
        on tailed and untailed fixtures, pivot columns, all-zero columns
        and repeated constraints."""
        space, gens = fixture
        sub = Subspace.build(space, gens)
        constraints = _constraint_lists(sub, gens, data, 7)
        w_basis = sub.reduced_basis
        for k, j in enumerate(constraints, start=1):
            w_basis = _impose_zeros(w_basis, [j])
            _assert_same_basis(
                w_basis, _t_wide_constrained_basis(sub, constraints[:k]))

    def test_incremental_update_cases(self):
        """An all-zero column, a repeated constraint and a pivot column
        that the span already meets with zeros remove no dimension; the
        other constraints remove one each."""
        t = 5
        gens = [Seq((Fraction(1), Fraction(0), Fraction(2), Fraction(0),
                     Fraction(0)), True),
                Seq((Fraction(0), Fraction(1), Fraction(-1), Fraction(0),
                     Fraction(0)), True),
                Seq((Fraction(0),) * 3 + (Fraction(1), Fraction(0)), True)]
        sub = Subspace.build(LINF, gens)
        assert sub.pivots == (1, 2, 4)
        w_basis, constraints = sub.reduced_basis, []
        for j, dim in ((t, 3), (2, 2), (3, 1), (3, 1), (1, 1), (4, 0)):
            constraints.append(j)
            w_basis = _impose_zeros(w_basis, [j])
            assert len(w_basis) == dim
            _assert_same_basis(
                w_basis, _t_wide_constrained_basis(sub, constraints))

    @pytest.mark.parametrize("tailed", [False, True],
                             ids=["untailed", "tailed"])
    def test_mazur_tails_are_history_free(self, tailed):
        """Each f_k is sum_i f_k(P_i) b_i over the reduced basis b_i and
        its pivots P_i, and its tail bound is sum_i |f_k(P_i)| tb(b_i).
        The tailed fixture is GOLDEN_TAILED's seed 7."""
        if tailed:
            obj, depth = _tailed_fixture(7)
            sub = subspace_from_json(obj)
        else:
            sub, depth = tailed_linf_subspace(12, 40), 4
        basis, pivots = sub.reduced_basis, sub.pivots
        assert any(b.tail_bound for b in basis) == tailed
        cert = mazur_basic_sequence(sub, default_eps_seq(depth), depth,
                                    samples=20)
        assert cert.status == "pass"
        for f_k in cert.f:
            coeffs = [f_k.at(p) for p in pivots]
            assert combine(basis, coeffs).coords == f_k.coords
            want = sum((abs(c) * b.tail_bound for c, b in zip(coeffs, basis)),
                       Fraction(0))
            assert f_k.tail_bound == want
            assert type(f_k.tail_bound) is Fraction
        assert any(f_k.tail_bound for f_k in cert.f) == tailed
