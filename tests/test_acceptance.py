"""Acceptance suite: one test per criterion, each printing a PASS line
with its elapsed time (run `pytest tests/test_acceptance.py -v -s`).

Every tolerance is pinned here; runtime limits are asserted, not
aspirational.
"""
import copy
import json
import random
import time
from fractions import Fraction

from seqlab.cli import Scenario, run_scenario
from seqlab.certificates import dumps_canonical
from seqlab.core import AmbientSpace, Seq, combine, hadamard, norm
from seqlab.errors import InvariantViolation
from seqlab.lineability import (
    GeometricCombination,
    certified_zero_bound,
    geometric_generator,
    independence_rank,
    zero_scan,
)
from seqlab.linf_construction import (
    construct_sup_zeroed_sequence,
    mazur_basic_sequence,
)
from seqlab.lp_construction import (
    construct_dominant_sequence,
    construct_zeroed_sequence,
    small_perturbation_cert,
)
from seqlab.verify import verify_certificate
from seqlab.witnesses import density_repair_c0, spaceable_witness
from conftest import scaled_unit_c0_subspace, unit_subspace
from test_lp_construction import dense_f1

ETA = 1e-9
L2 = AmbientSpace.lp(2)
LINF = AmbientSpace.linf()


def report(num, name, t0, limit):
    elapsed = time.monotonic() - t0
    print(f"ACCEPTANCE {num:2d} {name}: PASS ({elapsed:.1f}s / limit {limit}s)")
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget"


def test_01_hadamard_closure():
    t0 = time.monotonic()
    rng = random.Random(101)
    t_len = 256
    for _ in range(1000):
        p = Fraction(rng.randint(1, 11), 12)
        q = Fraction(rng.randint(1, 11), 12)
        x = geometric_generator(p, t_len)
        y = geometric_generator(q, t_len)
        assert hadamard(x, y).coords == geometric_generator(p * q, t_len).coords
    report(1, "hadamard closure (1000 pairs, T=256, exact)", t0, 5)


def _random_combination(rng):
    n = rng.randint(1, 5)
    while True:
        ratios = sorted({Fraction(rng.randint(1, 29), 30) for _ in range(n)})
        if len(ratios) == n:
            # keep the top two ratios separated so the envelope scan stays
            # desk-sized (the sampling distribution is ours to pick)
            if n < 2 or ratios[-2] / ratios[-1] <= Fraction(19, 20):
                break
    coeffs = [Fraction(rng.randint(1, 16), 8)
              * (1 if rng.random() < 0.5 else -1) for _ in ratios]
    return GeometricCombination(tuple(ratios), tuple(coeffs))


def test_02_zero_bound_soundness():
    t0 = time.monotonic()
    rng = random.Random(202)
    for _ in range(200):
        comb = _random_combination(rng)
        m = certified_zero_bound(comb)
        zeros = zero_scan(comb, 500)
        assert all(j <= m for j in zeros), "zero beyond the certified bound"
        assert len(zeros) <= m
    report(2, "zero-bound soundness (200 combos, scan 1..500)", t0, 30)


def test_03_vandermonde_rank():
    t0 = time.monotonic()
    rng = random.Random(303)
    for _ in range(100):
        n = rng.randint(1, 20)
        ratios = set()
        while len(ratios) < n:
            ratios.add(Fraction(rng.randint(1, 97), 98))
        assert independence_rank(sorted(ratios), n) == n
    report(3, "generalized Vandermonde rank (sets up to 20, 100 trials)", t0,
           30)


def test_04_dominant_sequence_ledger(tmp_path):
    t0 = time.monotonic()
    eps = Fraction(1, 10)
    sub = unit_subspace(L2, 40, 2000)
    cert = construct_dominant_sequence(sub, eps, 6)
    assert cert.status == "pass"
    by_key = {}
    for c in cert.checks:
        by_key.setdefault(c.key, []).append(c)
    for key in ("prefix_zero", "dominance", "window_norm_lower",
                "window_norm_upper", "window_dist", "tail_cut", "unit_norm",
                "delta_bound", "delta_small"):
        assert key in by_key and all(c.passed for c in by_key[key]), key
    assert cert.delta <= 4 * eps / (4 - eps) == Fraction(4, 10) / Fraction(39, 10)
    assert 8 * cert.delta < 1
    # CLI round trip: emit the certificate document and re-verify it
    fix = tmp_path / "l2_40.json"
    fix.write_text(json.dumps({
        "space": {"kind": "lp", "p": 2}, "truncation": 2000,
        "generators": [{"kind": "unit", "index": j} for j in range(1, 41)]}))
    doc, code = run_scenario(Scenario(name="a4", pipeline="lp",
                                      fixture=str(fix),
                                      params={"eps": eps, "depth": 6,
                                              "mode": "auto", "seed": 0,
                                              "space": None, "p": None}))
    assert code == 0 and doc["kind"] == "dominance"
    rep = verify_certificate(doc)
    assert rep.ok, rep.first_failure()
    # the CLI verify path itself must exit 0
    from seqlab.certificates import write_atomic
    from seqlab.cli import main as cli_main
    cert_path = str(tmp_path / "a4.json")
    write_atomic(cert_path, dumps_canonical(doc))
    assert cli_main(["verify", cert_path]) == 0
    report(4, "dominant-sequence ledger (l2, eps=0.1, depth 6, T=2000)", t0,
           60)


def test_05_perturbation_constants():
    t0 = time.monotonic()
    for eps in (Fraction(1, 100), Fraction(5, 100), Fraction(1, 10)):
        delta = 4 * eps / (4 - eps)
        base = [Seq((Fraction(1), Fraction(0)), True, Fraction(0))]
        pert = [Seq((Fraction(1), delta), True, Fraction(0))]
        cert = small_perturbation_cert(base, pert, 1, None,
                                       AmbientSpace.lp(1), p_norm=1)
        basis_expect = (8 - 2 * eps) / (4 - 9 * eps)
        q_expect = (8 - 2 * eps) / (4 - 33 * eps)
        assert abs(cert.basis_bound - basis_expect) \
            <= Fraction(1, 10 ** 12) * basis_expect
        assert abs(cert.q_norm_bound - q_expect) \
            <= Fraction(1, 10 ** 12) * q_expect
    report(5, "perturbation constants reproduce the closed forms", t0, 5)


def test_06_zeroing_pattern():
    t0 = time.monotonic()
    eps = Fraction(1, 600)
    sub = unit_subspace(L2, 40, 2000)
    cert = construct_zeroed_sequence(sub, eps, 6, f1=dense_f1())
    assert cert.status == "pass"
    assert cert.residuals[0] > 0, "recursion should correct a dense seed"
    for k in range(1, 7):
        lk = cert.l[k - 1]
        assert abs(lk.at(cert.s[k - 1])) > ETA
        for j in range(1, 7):
            if j != k:
                assert abs(lk.at(cert.s[j - 1])) <= ETA
        assert cert.residuals[k - 1] <= eps / 2 ** k
    steps = [c for c in cert.checks if c.key == "step_norm"]
    for c in steps:
        k, t_step = c.where
        assert c.passed and c.lhs < eps / 2 ** (k + t_step) + ETA
    report(6, "zeroing pattern (eps=1/600, depth 6)", t0, 60)


def test_07_mazur_window_and_inequality():
    t0 = time.monotonic()
    sub = unit_subspace(LINF, 30, 120)
    eps_seq = [Fraction(1)] + [Fraction(1, 2 ** i) for i in range(2, 8)]
    cert = mazur_basic_sequence(sub, eps_seq, 5, samples=1000, seed=7)
    assert cert.status == "pass"
    for k, f in enumerate(cert.f, start=1):
        sup = norm(f, LINF)
        assert 1 <= sup <= 2
        assert f.at(cert.n[k - 1]) == 1
        for i in range(1, k):
            assert f.at(cert.n[i - 1]) == 0  # exact in rational mode
    margins = [c for c in cert.checks if c.key == "basis_inequality_margin"]
    assert margins and all(c.passed for c in margins)
    report(7, "Mazur window + sampled basis inequality (1000 samples)", t0,
           60)


def _random_linf_fixture(rng, tmp_path, idx):
    """Randomized sup-norm fixture steering the cascade through its cases.

    Layout (by coordinate): strip generators first (their diagonals become
    the first Mazur indices and carry a constant amplitude across the
    target coordinates, so the level-1 cluster values are nonzero),
    then muted pivots (feasibility ratio 2/5 < 1/2: never selected),
    filler units, and finally the targets, reachable only through the
    muted-pivot vectors.  Zero strips -> case 1; one strip -> case 2;
    two strips -> case 3 or 4 by amplitude order.
    """
    t_len = rng.randint(110, 150)
    n_strips = rng.randint(0, 2)
    # targets hold a strict bucket majority over fillers at level 1
    n_targets = rng.randint(11, 13)
    n_fill = 18 - n_strips - n_targets  # Mazur depth 16 needs >= 16 indices
    pivot_base = n_strips + 1
    fill_base = pivot_base + n_targets
    target_base = fill_base + n_fill + 5
    targets = [target_base + 2 * i for i in range(n_targets)]
    gens = []
    amps = []
    for s in range(n_strips):
        amp = Fraction(rng.randint(15, 35), 100)
        amps.append(amp)
        coords = ["0/1"] * t_len
        coords[s] = "1/1"  # diagonal at coordinate s+1
        for j_coord in targets:
            coords[j_coord - 1] = str(amp)
        gens.append({"kind": "dense", "coords": coords})
    for i, j_coord in enumerate(targets):
        coords = ["0/1"] * t_len
        coords[pivot_base + i - 1] = "2/5"  # muted pivot
        coords[j_coord - 1] = "1/1"
        gens.append({"kind": "dense", "coords": coords})
    for i in range(n_fill):
        gens.append({"kind": "unit", "index": fill_base + i})
    path = tmp_path / f"linf_{idx}.json"
    path.write_text(json.dumps({"space": {"kind": "linf"},
                                "truncation": t_len, "generators": gens}))
    return str(path)


def test_08_cascade_bounds_fleet(tmp_path):
    t0 = time.monotonic()
    rng = random.Random(808)
    full_pass = model_limit = hard = 0
    cases_fired = {1: 0, 2: 0, 3: 0, 4: 0}
    for idx in range(50):
        fix = _random_linf_fixture(rng, tmp_path, idx)
        scenario = Scenario(name=f"f{idx}", pipeline="linf", fixture=fix,
                            params={"depth": 3,
                                    "stab_tol": Fraction(1, 10 ** 6),
                                    "samples": 60, "mode": "auto",
                                    "seed": idx})
        try:
            doc, code = run_scenario(scenario)
        except InvariantViolation:
            hard += 1
            continue
        if code == 2:
            model_limit += 1
            continue
        assert code == 0, doc.get("status")
        full_pass += 1
        trace = doc["cascade"]["case_trace"]
        for level, entry in enumerate(trace, start=1):
            case = entry["case"]
            cases_fired[case] += 1
            h = [Fraction(v) if isinstance(v, str) else v
                 for v in doc["cascade"]["h"][level - 1]["coords"]]
            bound = {1: 6, 2: 2, 3: 8, 4: 8}[case]
            assert max(abs(v) for v in h) <= bound + ETA
        for k, l_doc in enumerate(doc["l"], start=1):
            vals = [Fraction(v) if isinstance(v, str) else v
                    for v in l_doc["coords"]]
            assert max(abs(v) for v in vals) <= 9 + ETA
            assert abs(vals[doc["s"][k - 1] - 1] - 1) <= ETA
    assert hard == 0, "CaseBoundViolated must never fire"
    assert full_pass >= 25, (full_pass, model_limit)
    print(f"  fleet: {full_pass} pass, {model_limit} model-limit exits, "
          f"cases fired {cases_fired}")
    assert sum(cases_fired.values()) > 0
    report(8, "cascade bounds across 50 randomized fixtures", t0, 300)


def test_09_spaceability_witness():
    t0 = time.monotonic()
    lp_cert = construct_zeroed_sequence(unit_subspace(L2, 40, 2000),
                                        Fraction(1, 600), 6, f1=dense_f1())
    w_lp = spaceable_witness(lp_cert)
    assert w_lp.status == "pass"
    assert w_lp.rank == 3 == len(lp_cert.l) // 2
    linf_cert = construct_sup_zeroed_sequence(
        unit_subspace(LINF, 30, 130), 6, seed=9, samples=60)
    w_linf = spaceable_witness(linf_cert)
    assert w_linf.status == "pass"
    assert w_linf.rank == 3
    # the exact max of |l_2i(s_2j-1)| over all 3 x 3 entries is recorded
    # and <= eta
    for w, cert in ((w_lp, lp_cert), (w_linf, linf_cert)):
        worst = next(c for c in w.checks
                     if c.key == "forbidden_coordinate_max")
        assert worst.passed and abs(worst.lhs) <= ETA
        assert worst.lhs == max(abs(v.at(s)) for v in cert.l[1::2]
                                for s in cert.s[0::2])
        assert w.samples_checked == 9
    report(9, "spaceability witness (exact parity, l2 + linf)", t0, 30)


def test_10_density_repair_c0():
    t0 = time.monotonic()
    eps = Fraction(1, 100)
    sub = scaled_unit_c0_subspace(dim=36, t=96)
    depth_m = 30
    eps_seq = [Fraction(1)] + [Fraction(1, 2 ** i)
                               for i in range(2, depth_m + 1)]
    shared_mazur = mazur_basic_sequence(sub, eps_seq, depth_m, samples=60,
                                        seed=10)
    rng = random.Random(1010)
    for trial in range(20):
        coeffs = [Fraction(rng.randint(1, 16), 8)
                  * (1 if rng.random() < 0.5 else -1)
                  for _ in sub.generators]
        f = combine(list(sub.generators), coeffs)
        g, rep = density_repair_c0(sub, f, eps, depth=4, seed=10,
                                   mazur_cert=shared_mazur)
        assert rep["status"] == "pass" and not rep["checks"]["failed"], trial
        assert norm(g.sub(f), AmbientSpace.c0()) <= eps
        selected = rep["selected"]
        assert all(g.at(s) == 0 for s in selected)
        # independent re-evaluation of the certified series bound
        assert 9 * sum(abs(f.at(s)) for s in selected) <= eps
    report(10, "density repair in c0 (eps=1e-2, 20 random span elements)",
           t0, 30)


def test_11_determinism_and_tamper(tmp_path, capsys):
    t0 = time.monotonic()
    lp_fix = tmp_path / "l2.json"
    lp_fix.write_text(json.dumps({
        "space": {"kind": "lp", "p": 2}, "truncation": 200,
        "generators": [{"kind": "unit", "index": j} for j in range(1, 21)]}))
    linf_fix = tmp_path / "linf.json"
    linf_fix.write_text(json.dumps({
        "space": {"kind": "linf"}, "truncation": 120,
        "generators": [{"kind": "unit", "index": j} for j in range(1, 25)]}))
    c0_gens = []
    for i in range(1, 37):
        coords = ["0/1"] * 96
        coords[i - 1] = f"1/{2 ** i}"
        c0_gens.append({"kind": "dense", "coords": coords})
    c0_fix = tmp_path / "c0.json"
    c0_fix.write_text(json.dumps({"space": {"kind": "c0"}, "truncation": 96,
                                  "generators": c0_gens}))

    scenarios = {
        "lineability": Scenario(name="s", pipeline="lineability", params={
            "ratios": [Fraction(1, 4), Fraction(1, 2)],
            "coeffs": [Fraction(-2), Fraction(1)],
            "truncation": 256, "scan": 500}),
        "zeroing": Scenario(name="s", pipeline="lp", fixture=str(lp_fix),
                            params={"eps": Fraction(1, 600), "depth": 4,
                                    "mode": "auto", "seed": 11,
                                    "space": None, "p": None}),
        "sup_zeroing": Scenario(name="s", pipeline="linf",
                                fixture=str(linf_fix),
                                params={"depth": 4,
                                        "stab_tol": Fraction(1, 10 ** 6),
                                        "samples": 60, "mode": "auto",
                                        "seed": 11}),
        "density": Scenario(name="s", pipeline="density",
                            fixture=str(c0_fix),
                            params={"eps": Fraction(1, 20), "depth": 4,
                                    "coeffs": None, "mode": "auto",
                                    "seed": 11,
                                    "stab_tol": Fraction(1, 10 ** 6)}),
    }
    docs = {}
    for key, scenario in scenarios.items():
        doc1, code1 = run_scenario(scenario)
        doc2, code2 = run_scenario(copy.deepcopy(scenario))
        assert code1 == code2 == 0
        assert dumps_canonical(doc1) == dumps_canonical(doc2), key
        docs[key] = doc1
    # witness scenario from the emitted zeroing certificate
    zer_path = tmp_path / "zer.json"
    zer_path.write_text(dumps_canonical(docs["zeroing"]))
    wit = Scenario(name="s", pipeline="witness",
                   params={"cert": str(zer_path)})
    w1, c1 = run_scenario(wit)
    w2, c2 = run_scenario(copy.deepcopy(wit))
    assert c1 == c2 == 0 and dumps_canonical(w1) == dumps_canonical(w2)
    docs["witness"] = w1

    # one injected coordinate tamper per certificate class
    def tampered(doc):
        doc = copy.deepcopy(doc)
        kind = doc["kind"]
        if kind == "lineability":
            doc["data"]["zero_set"] = list(doc["data"]["zero_set"]) + [7]
        elif kind == "zeroing":
            doc["l"][1]["coords"][doc["s"][0] - 1] = 0.1
        elif kind == "sup_zeroing":
            doc["l"][1]["coords"][doc["s"][0] - 1] = "1/10"
        elif kind == "witness":
            doc["even_family"][0]["coords"][doc["forbidden"][0] - 1] = 0.1
        elif kind == "density":
            doc["result"]["coords"][doc["selected"][0] - 1] = "1/10"
        return doc

    for key, doc in docs.items():
        assert verify_certificate(doc).ok, key
        rep = verify_certificate(tampered(doc))
        assert not rep.ok, f"tamper undetected in {key}"
    report(11, "determinism + tamper detection per certificate class", t0,
           120)
