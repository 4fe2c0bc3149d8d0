import random
from fractions import Fraction

import pytest

from seqlab.core import AmbientSpace, Seq, combine, hadamard, norm
from seqlab.errors import (
    ConfigError,
    MissingPerturbCert,
    SearchExhausted,
    TooFewIndices,
    WitnessViolation,
    ZeroVector,
)
from seqlab.linf_construction import construct_sup_zeroed_sequence
from seqlab.lp_construction import construct_zeroed_sequence
from seqlab.witnesses import (
    algebra_witness_membership,
    complement_split,
    density_repair_c0,
    density_repair_lp,
    spaceable_witness,
    witness_from_doc,
)
from conftest import scaled_unit_c0_subspace, unit_subspace
from test_lp_construction import dense_f1

L2 = AmbientSpace.lp(2)
LINF = AmbientSpace.linf()


@pytest.fixture(scope="module")
def lp_cert(request):
    sub = unit_subspace(L2, 40, 2000)
    return construct_zeroed_sequence(sub, Fraction(1, 600), 6, f1=dense_f1())


@pytest.fixture(scope="module")
def linf_cert():
    sub = unit_subspace(LINF, 30, 130)
    return construct_sup_zeroed_sequence(sub, 6, seed=1, samples=60)


class TestSpaceableWitness:
    def test_lp_split(self, lp_cert):
        w = spaceable_witness(lp_cert)
        assert w.status == "pass"
        assert w.rank == 3 == len(lp_cert.l) // 2
        assert w.even_family == lp_cert.l[1::2]
        # forbidden indices are the odd-position markers
        assert w.forbidden == tuple(lp_cert.s[k] for k in range(0, 6, 2))
        # independent re-evaluation of sampled combinations
        rng = random.Random(99)
        for _ in range(100):
            coeffs = [rng.uniform(-4, 4) for _ in w.even_family]
            f = combine(list(w.even_family), coeffs)
            assert max(abs(f.at(s)) for s in w.forbidden) <= 1e-9

    def test_linf_split(self, linf_cert):
        w = spaceable_witness(linf_cert)
        assert w.status == "pass"
        assert w.rank == 3

    def test_too_few_indices(self):
        sub = unit_subspace(L2, 20, 100)
        cert = construct_zeroed_sequence(sub, Fraction(1, 600), 2)
        with pytest.raises(TooFewIndices):
            spaceable_witness(cert)

    def test_violation_detected_on_tampered_family(self, lp_cert):
        tampered = list(lp_cert.l)
        bad = list(tampered[1].coords)
        bad[lp_cert.s[0] - 1] = 0.1  # even vector now hits a forbidden index
        tampered[1] = Seq(tuple(bad), False, 0.0)
        doc = {"kind": "zeroing", "space": lp_cert.space.as_json(),
               "l": [v.as_json() for v in tampered],
               "s": list(lp_cert.s), "eta": 1e-9}
        with pytest.raises(WitnessViolation, match=r"even vector 1 .*l_2.* "
                           rf"\|l\({lp_cert.s[0]}\)\| = 0\.1 "):
            witness_from_doc(doc)


class TestComplementSplit:
    def test_idempotent_and_parity_action(self, lp_cert):
        split, report = complement_split(lp_cert)
        assert report["idempotency_bound"] <= 1e-9
        assert report["certified_norm_bound"] >= 1
        assert report["even_fixed_max_residual"] <= 1e-9
        assert report["odd_killed_max_norm"] <= 1e-9
        assert report["checks"]["failed"] == []
        # explicit fixed point / kill checks
        even = lp_cert.l[1]
        assert norm(split.apply(even).sub(even), L2) <= 1e-9
        odd = lp_cert.l[0]
        assert norm(split.apply(odd), L2) <= 1e-9
        # split . split == split on 200 random span vectors
        rng = random.Random(3)
        for _ in range(200):
            x = combine(list(lp_cert.l), [rng.uniform(-2, 2)
                                          for _ in lp_cert.l])
            once = split.apply(x)
            assert norm(split.apply(once).sub(once), L2) <= 1e-9

    def test_missing_perturbation_evidence(self, lp_cert):
        from dataclasses import replace
        broken = replace(lp_cert, perturbation=replace(
            lp_cert.perturbation, ok=False))
        with pytest.raises(MissingPerturbCert):
            complement_split(broken)


class TestDensityLp:
    def test_repair_contract(self):
        sub = unit_subspace(L2, 40, 2000)
        f = combine(list(sub.generators)[:6],
                    [1.0, 1e-4, -5e-5, 2.5e-5, -1.2e-5, 6e-6])
        eps = Fraction(1, 100)
        g, report = density_repair_lp(sub, f, eps, depth=4)
        assert report["status"] == "pass"
        assert report["checks"]["failed"] == []
        scale = norm(f, L2)
        assert norm(g.sub(f), L2) <= scale * eps / 2
        for s_val in report["forbidden"]:
            assert abs(g.at(s_val)) <= 1e-9 * float(scale)

    def test_already_witness_on_coordinate_fixture(self):
        # an l1-style witness from the coordinate fixture is reproduced
        # exactly: all correction coefficients vanish identically
        sub = unit_subspace(L2, 40, 2000)
        base = construct_zeroed_sequence(sub, Fraction(1, 2000), 4)
        f = base.l[0]
        g, report = density_repair_lp(sub, f, Fraction(1, 100), depth=4)
        assert report["distance"] == 0.0
        assert g.coords == f.coords

    def test_zero_vector_rejected(self):
        sub = unit_subspace(L2, 10, 40)
        with pytest.raises(ZeroVector):
            density_repair_lp(sub, Seq.zero(40, False), Fraction(1, 100))


class TestDensityC0:
    def test_repair_contract_mixed(self):
        sub = scaled_unit_c0_subspace()
        rng = random.Random(17)
        coeffs = [Fraction(rng.randint(1, 16), 8)
                  * (1 if rng.random() < 0.5 else -1)
                  for _ in sub.generators]
        f = combine(list(sub.generators), coeffs)
        eps = Fraction(1, 100)
        g, report = density_repair_c0(sub, f, eps, depth=4, seed=7,
                                      mazur_depth=30)
        assert report["status"] == "pass"
        assert report["checks"]["failed"] == []
        assert norm(g.sub(f), AmbientSpace.c0()) <= eps
        # the corrections are genuine: f is nonzero at the selected markers
        assert any(f.at(s) != 0 for s in report["selected"])
        for s_val in report["selected"]:
            assert g.at(s_val) == 0
        # series bound re-verified independently
        series = sum(abs(f.at(s)) for s in report["selected"])
        assert 9 * series <= eps

    def test_no_correction_needed(self):
        # f vanishing at every selected marker comes back unchanged
        sub = scaled_unit_c0_subspace(dim=36, t=96)
        f = combine(list(sub.generators)[:3],
                    [Fraction(1), Fraction(-1, 2), Fraction(1, 4)])
        g, report = density_repair_c0(sub, f, Fraction(1, 100), depth=4,
                                      seed=7, mazur_depth=30)
        assert all(s > 3 for s in report["selected"])
        assert g.coords == f.coords

    def test_budget_failure(self):
        # a slowly-decaying f cannot meet the 9*sum <= eps budget
        sub = scaled_unit_c0_subspace(dim=24, t=64, ratio=Fraction(9, 10))
        f = combine(list(sub.generators), [Fraction(1)] * 24)
        with pytest.raises(SearchExhausted):
            density_repair_c0(sub, f, Fraction(1, 100), depth=3, seed=1,
                              mazur_depth=20)


class TestAlgebraMembership:
    def test_zero_vector_member(self):
        sub = unit_subspace(LINF, 8, 20)
        assert algebra_witness_membership(sub, [3, 5], Seq.zero(20, True))

    def test_forbidden_coordinate_violation(self):
        sub = unit_subspace(LINF, 8, 20)
        assert not algebra_witness_membership(sub, [3, 5],
                                              Seq.unit(3, 20, True))

    def test_outside_span(self):
        sub = unit_subspace(LINF, 4, 20)
        assert not algebra_witness_membership(sub, [2],
                                              Seq.unit(7, 20, True))

    def test_empty_forbidden_rejected(self):
        sub = unit_subspace(LINF, 4, 20)
        with pytest.raises(ConfigError):
            algebra_witness_membership(sub, [], Seq.zero(20, True))

    def test_closure_under_products_and_combinations(self):
        # coordinate-span fixtures are hadamard-closed, so membership is a
        # subalgebra predicate there
        sub = unit_subspace(LINF, 10, 24)
        forbidden = [2, 7]
        rng = random.Random(23)
        members = []
        for _ in range(20):
            coeffs = [Fraction(rng.randint(-8, 8), 4) for _ in range(10)]
            coeffs[1] = Fraction(0)
            coeffs[6] = Fraction(0)
            members.append(combine(list(sub.generators), coeffs))
        for f in members:
            assert algebra_witness_membership(sub, forbidden, f)
        for _ in range(30):
            f = members[rng.randrange(len(members))]
            g = members[rng.randrange(len(members))]
            assert algebra_witness_membership(sub, forbidden, hadamard(f, g))
            lin = f.scale(Fraction(rng.randint(-4, 4), 2)).add(
                g.scale(Fraction(rng.randint(-4, 4), 2)))
            assert algebra_witness_membership(sub, forbidden, lin)
