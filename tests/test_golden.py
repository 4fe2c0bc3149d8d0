"""Certificate bytes are the contract: these sha256 digests pin the
canonical bytes of two sup-norm certificates (the acceptance suite's
test_11 sup_zeroing and c0 density scenarios), of four lp and
lineability certificates (the l2 zeroing scenario of test_11, a
dominance certificate at eps = 1/100, an lp density repair and the
test_11 lineability certificate) and of the test_11 witness.  GOLDEN_NET
pins two Mazur certificates on dense fixtures, GOLDEN_TAILED two on
fixtures with generator tails, and GOLDEN_SURVEY the Mazur outcomes of
the whole 60-fixture survey.  The sup-norm pins are exact, as the
sup-norm spaces are; the float ones went with float mode there.  A
refactor that changes a digest changed what seqlab emits; it must say
so and update the digest deliberately.

Schema 4 stores each ledger as its summary (check counts per key, the
failed key and where) and drops the sup-norm eta.  Putting back each
ledger entry by entry, as its public ledger function recomputes it from
the stored data, and the sup-norm eta, gives back the schema-3 bytes of
every certificate pinned before that change: no vector or other field
moved.  The lp Q ledger values are recomputed with schema 3's rounding
to nearest (``_NearestQ``); they round up now.

Schema 3 dropped what verify rebuilds: f_tilde, g and sigma from every
dominance level, the vectors and norm_upper of q_op (the dominance f and
the perturbation's q_norm_bound), and it gave the witness an exact
ledger.  Re-inserting the dropped copies, rebuilt through the public
API, gives back the schema-2 bytes of every certificate pinned before
that change.

Schema 2 changed only the lp zeroing certificate: its Q ledger entry
q_norm_sampled_le_bound became q_norm_certified_le_bound, the Q values
became certified bounds, and the unread "seed" field went.  So every
certificate but the lp density repair, whose Q values moved, maps back
to the schema-1 bytes pinned before that change."""
import hashlib
import json
import random
from fractions import Fraction

import pytest

from seqlab.certificates import SCHEMA_VERSION, dumps_canonical
from seqlab.cli import Scenario, run_scenario
from seqlab.core import AmbientSpace, Seq, norm, subspace_from_json
from seqlab.errors import SeqLabError
from seqlab.lineability import GeometricCombination, lineability_checks
from seqlab.linf_construction import (cascade_checks, default_eps_seq,
                                      mazur_basic_sequence, mazur_checks,
                                      sup_zero_recursion, sup_zeroing_checks)
from seqlab.lp_construction import (dominance_checks, perturbation_checks,
                                    q_checks, window_blocks, zero_recursion,
                                    zeroing_checks)
from seqlab.operators import ProjectionOp
from seqlab.scalar import parse_scalar, scalar_to_json, zero_tol
from seqlab.witnesses import (c0_density_checks, lp_density_checks,
                              witness_checks)

GOLDEN = {
    "sup_zeroing": "f3e77b8eb183a1bf85cbea07f8209a564753f0c845a3d40dcee5876411420ee0",
    "density": "4c7ed6d7e0cba370a541cdf6ba1ce5d58d68570af71f110e91d5826e0b64fcf3",
    "zeroing": "b541d0bdd6d0274ce0eefc9d0d4e7b73a9b4f5d6a22dbb0ff9c58417cd9aa10f",
    "dominance": "6a874df298a52e972ced945ae88130142675ca444b3f2f099a014ef673349e6e",
    "density_lp": "ed547c6c1d84c5f45f439198120b6e5548f7fcfe23d427bc2ade7c94bf7f957a",
    "lineability": "af2ded038f1def1fae760b5e4f37ea96e2f0b228ae80f75f80498992cf4650bc",
    "witness": "9f5119f378ee97ee328ab0b10def13e99eb54a4bb9e252745f6b3df29fcf0bdf",
}

#: the schema-3 digests, computed before the schema-4 change
GOLDEN_SCHEMA_3 = {
    "sup_zeroing": "6c11d615c26e33aa3c076f045459bf3742068f9e919c69d17f02962420b6f985",
    "density": "a11506d1eadce209ddf3fe96f8c3e2a179069f2ec762f26cd8d8485b3a535367",
    "zeroing": "d81841841a342eed6f608aa1fdae7be1840367f818b21d08bd571b6c6dad698a",
    "dominance": "97c0ce67f2f99d23727e10429faef2bcad118bad4fbd9d268411f1a886d58872",
    "density_lp": "d457977ddde5db012d618891a1bf857e1f285a8bd617c4517ce492d7509b3331",
    "lineability": "b6f7653883630ebdaf07d1e619cb9173266d6527291bb347cb22d73c54407831",
    "witness": "748a5ec82d79020815618045e86a1f63f888fd7e7ce6e12889c3187852879f3f",
}

#: the schema-2 digests, computed before the schema-3 change
GOLDEN_SCHEMA_2 = {
    "sup_zeroing": "ee1e5050948f4a7571a613114257daba47529b9ee1304c71aa70ab69756e9556",
    "density": "72654df0dd27ac8c9acc93633474bd8bdca4cdb620149bae1eaa216db8b7c416",
    "zeroing": "aeafc600603ecdebbb43d5c05ca34c1443928482863e8d064136876626c81f81",
    "dominance": "50f7487e175166059daf11321535392c279c2f345903447cf8295c8a2f394998",
    "density_lp": "6fef30027b063d733c86b3753c833375c997cab874708a0c28fbcaf72942057b",
    "lineability": "7b82cf8daf1a9af6a9916d9d144b2ff528daaa3ef159e4cc7ec79ac52288b094",
}

#: the schema-1 digests, computed before the schema-2 change
GOLDEN_SCHEMA_1 = {
    "sup_zeroing": "f010bafbfcd19e87d6f09cc022c7b0c68398cd5568257f4fb2a1356ecf9f0a0d",
    "density": "022a344be53351993f9647ddab27118399a857bf56156b28e6b6ec7f61d03143",
    "zeroing": "4ebbd743219fe323b9177293c67b8dc5deb76f94453209459473b4e89396a535",
    "dominance": "a69c906dabcf55303f54be909b7dfa9b7b49a693e126c48dbb57f40ee760a31d",
    "lineability": "6fb15d5674fe7753e2e6537cb70186a2756f728e4a156eb1b8718e60b7715f68",
}

#: Mazur certificates on two dense survey fixtures where the net adds
#: zeroed coordinates beyond the n_k, which no certificate above does,
#: computed before the net was evaluated from its point structure:
#: (seed, mode) -> digest, mode "exact", as every sup-norm mode is.  They
#: pin bytes, not soundness: the sampled basis inequality these
#: certificates pass is not a proof, and a certified Mazur step (exact
#: norming sets instead of the net) will change them on purpose.
#: Re-pinned for schema 4; GOLDEN_NET_SCHEMA_3 holds the digests before,
#: which ``_schema_4_to_3`` gives back.
GOLDEN_NET = {
    (2032, "exact"): "34829e7d9a7de17cbf5d74f66501e9048dae139a81c54e2ab626f115cb345ba8",
    (2002, "exact"): "9caefaa1da91728865a564cc05f9a4c988a752c9c268788c925c5417f9906108",
}

GOLDEN_NET_SCHEMA_3 = {
    (2032, "exact"): "fde1e2262a14988a34626a24fe03ff9e7c42330f5b9f01807d3ba2e7ad6da69c",
    (2002, "exact"): "6776366dba67c5f70449431007ecdc34a7fa045cd331e6da4a64c4878e9fa789",
}

#: seed -> (space, truncation, depth, zero constraints the net adds)
NET_FIXTURES = {2032: ("linf", 42, 4, 17), 2002: ("c0", 40, 5, 16)}

#: exact Mazur certificates on two fixtures of the tailed recipe, whose
#: geometric generators give the reduced basis nonzero tail bounds: the
#: only sup-norm pins with generator tails.  Re-pinned when each f_k's
#: tail bound became the history-free sum_i |f_k(P_i)| tb(b_i) over the
#: reduced basis: the digests before, computed while every step rebuilt
#: its working subspace from the reduced basis, were 665d3441... (7) and
#: cbe97f74... (12).  Two of the six tails of seed 7 and one of the four
#: of seed 12 fell; the others are equal.  Re-pinned again for schema 4;
#: GOLDEN_TAILED_SCHEMA_3 holds the digests before, which
#: ``_schema_4_to_3`` gives back.
GOLDEN_TAILED = {
    7: "267f1baaa16ea0e05709f48018f0f9729f6efd23a5c32d67e26b36adc89da577",
    12: "a56a7a946905602615295b36b88382a99c2053ed356e01d273c5cb016ea6207e",
}

GOLDEN_TAILED_SCHEMA_3 = {
    7: "a7a7f19ff92de6466b1c74e1e3aa3f9df3b8bf4ed169cbe2adfbe136aa369803",
    12: "3e125eb29e1537c496c971c4fa20d520305d16d5cf34c1be45e4880753e5135a",
}

#: the schema-3 forms with every f tail bound removed, computed while
#: every step rebuilt its working subspace: the re-pin changed only tails
GOLDEN_TAILED_UNTAILED = {
    7: "803c050cf566ade5d48b339eca390fc5e8c51ef30c81f64826197a175c00378a",
    12: "2d26fd28c2ce5ffcd18233bd750ae8128e8e6eaf88a0e81baeb7dd90c817644a",
}

#: seed -> (space, truncation, depth)
TAILED_FIXTURES = {7: ("linf", 40, 6), 12: ("c0", 50, 4)}

LINF_PARAMS = {"depth": 4, "stab_tol": Fraction(1, 10 ** 6),
               "samples": 60, "mode": "auto", "seed": 11}


LP_PARAMS = {"eps": Fraction(1, 600), "depth": 4, "mode": "auto",
             "space": None, "p": None}


def _l2_fixture(tmp_path):
    fix = tmp_path / "l2.json"
    fix.write_text(json.dumps({
        "space": {"kind": "lp", "p": 2}, "truncation": 200,
        "generators": [{"kind": "unit", "index": j} for j in range(1, 21)]}))
    return str(fix)


def _scenario(name, tmp_path):
    if name == "witness":
        doc, _ = run_scenario(_scenario("zeroing", tmp_path))
        src = tmp_path / "zeroing.json"
        src.write_text(dumps_canonical(doc))
        return Scenario(name="s", pipeline="witness", params={"cert": str(src)})
    if name == "lineability":
        return Scenario(name="s", pipeline="lineability", params={
            "ratios": [Fraction(1, 4), Fraction(1, 2)],
            "coeffs": [Fraction(-2), Fraction(1)],
            "truncation": 256, "scan": 500})
    if name == "zeroing":
        return Scenario(name="s", pipeline="lp", fixture=_l2_fixture(tmp_path),
                        params=dict(LP_PARAMS))
    if name == "dominance":
        return Scenario(name="s", pipeline="lp", fixture=_l2_fixture(tmp_path),
                        params=dict(LP_PARAMS, eps=Fraction(1, 100)))
    if name == "density_lp":
        coeffs = [Fraction(1)] + [Fraction((-1) ** j, 10000 * 2 ** j)
                                  for j in range(1, 20)]
        return Scenario(name="s", pipeline="density",
                        fixture=_l2_fixture(tmp_path),
                        params={"eps": Fraction(1, 100), "depth": 4,
                                "coeffs": coeffs, "mode": "auto", "seed": 11,
                                "stab_tol": Fraction(1, 10 ** 6)})
    if name == "density":
        gens = []
        for i in range(1, 37):
            coords = ["0/1"] * 96
            coords[i - 1] = f"1/{2 ** i}"
            gens.append({"kind": "dense", "coords": coords})
        fix = tmp_path / "c0.json"
        fix.write_text(json.dumps({"space": {"kind": "c0"}, "truncation": 96,
                                   "generators": gens}))
        return Scenario(name="s", pipeline="density", fixture=str(fix),
                        params={"eps": Fraction(1, 20), "depth": 4,
                                "coeffs": None, "mode": "auto", "seed": 11,
                                "stab_tol": Fraction(1, 10 ** 6)})
    fix = tmp_path / "linf.json"
    fix.write_text(json.dumps({
        "space": {"kind": "linf"}, "truncation": 120,
        "generators": [{"kind": "unit", "index": j} for j in range(1, 25)]}))
    return Scenario(name="s", pipeline="linf", fixture=str(fix),
                    params=dict(LINF_PARAMS))


def _digest(doc) -> str:
    return hashlib.sha256(dumps_canonical(doc).encode("utf-8")).hexdigest()


def _restore_blocks(dom):
    f = [Seq.from_json(o) for o in dom["f"]]
    sigma, f_tilde, g = window_blocks(f, dom["n_cut"],
                                      AmbientSpace.from_json(dom["space"]))
    dom.update(sigma=[list(w) for w in sigma],
               f_tilde=[v.as_json() for v in f_tilde],
               g=[v.as_json() for v in g])


def _scalar(v):
    return parse_scalar(v, isinstance(v, str))


def _entries(checks, int_sides=False):
    """A ledger as schema 3 stored it, one entry per check; lineability
    kept integer sides as JSON integers."""
    out = []
    for c in checks:
        entry = {"key": c.key, "where": list(c.where), "rel": c.rel,
                 "passed": c.passed}
        for side in ("lhs", "rhs", "tol"):
            value = getattr(c, side)
            entry[side] = value if int_sides and isinstance(value, int) \
                else scalar_to_json(value)
        out.append(entry)
    return out


def _mazur_to_3(doc):
    fs = [Seq.from_json(o) for o in doc["f"]]
    doc.update(eta=1e-09, checks=_entries(mazur_checks(
        fs, doc["n"], [Fraction(e) for e in doc["eps_seq"]], doc["seed"],
        doc["samples"])))
    return fs


def _sup_zeroing_to_3(doc):
    cascade = doc["cascade"]
    _mazur_to_3(cascade["source"])
    hs = [Seq.from_json(o) for o in cascade["h"]]
    cases = [entry["case"] for entry in cascade["case_trace"]]
    cascade.update(eta=1e-09, checks=_entries(cascade_checks(
        hs, cascade["t"], cases, Fraction(cascade["stab_tol"]))))
    h_by_t = dict(zip(cascade["t"], hs))
    ls = [Seq.from_json(o) for o in doc["l"]]
    checks = sup_zeroing_checks(h_by_t, doc["s"],
                                sup_zero_recursion(h_by_t, doc["s"]), ls,
                                Fraction(doc["eps"]), Fraction(doc["k_est"]))
    doc.update(eta=1e-09, checks=_entries(checks))
    return ls


def _dominance_to_3(doc):
    space = AmbientSpace.from_json(doc["space"])
    f = [Seq.from_json(o) for o in doc["f"]]
    _, f_tilde, g = window_blocks(f, doc["n_cut"], space)
    checks, _ = dominance_checks(space, doc["s"], doc["n_cut"], f, f_tilde, g,
                                 _scalar(doc["eps"]), zero_tol(f[0].exact))
    doc["checks"] = _entries(checks)
    return f


class _NearestQ(ProjectionOp):
    """Q with fixed_point_bounds as schema 3 computed them: each norm,
    product and sum rounded to nearest.  They round up now, which moved
    the Q ledger values of the lp density certificate, whose G is not I."""

    def fixed_point_bounds(self):
        vecs, psis = self._supports
        gram = self.gram()
        norms = [norm(Seq(tuple(v.values()), True), self.space) for v in vecs]
        fixes = [float(sum(abs(gram[j][k] - (1 if j == k else 0)) * norms[j]
                           for j in range(len(gram))))
                 for k in range(len(gram))]
        p = self.space.p
        dual = AmbientSpace.linf() if p == 1 else AmbientSpace.lp(p / (p - 1))
        idem = sum(norm(Seq(tuple(psi.values()), True), dual) * fix
                   for psi, fix in zip(psis, fixes))
        return fixes, float(idem)


def _zeroing_to_3(doc):
    f = _dominance_to_3(doc["dominance"])
    pert = doc["perturbation"]
    checks, _ = perturbation_checks(_scalar(pert["k_const"]),
                                    _scalar(pert["p_norm"]),
                                    _scalar(pert["delta"]))
    pert["checks"] = _entries(checks)
    space = AmbientSpace.from_json(doc["space"])
    ls = [Seq.from_json(o) for o in doc["l"]]
    q_bound = _scalar(pert["q_norm_bound"])
    checks = zeroing_checks(space, doc["s"], zero_recursion(f, doc["s"]), ls,
                            _scalar(doc["eps"]), q_bound, zero_tol(ls[0].exact))
    psi = tuple(Seq.from_json(o) for o in doc["q_op"]["functionals"])
    checks += q_checks(_NearestQ(psi, tuple(f), space), q_bound)
    doc["checks"] = _entries(checks)


def _density_to_3(doc):
    f = Seq.from_json(doc["input"])
    result = Seq.from_json(doc["result"])
    tol = zero_tol(result.exact)
    if doc["path"] == "c0":
        nested = doc["sup_zeroing"]
        _sup_zeroing_to_3(nested)
        checks = c0_density_checks(AmbientSpace.c0(), f, result, nested["s"],
                                   Fraction(doc["eps"]), tol)[0]
    else:
        nested = doc["zeroing"]
        _zeroing_to_3(nested)
        checks = lp_density_checks(AmbientSpace.from_json(nested["space"]), f,
                                   result, doc["forbidden"],
                                   _scalar(doc["eps"]), tol)[0]
    doc["checks"] = _entries(checks)


def _lineability_to_3(doc):
    data = doc["data"]
    comb = GeometricCombination(tuple(Fraction(r) for r in data["ratios"]),
                                tuple(Fraction(c) for c in data["coeffs"]))
    doc["checks"] = _entries(lineability_checks(
        comb, data["zero_set"], data["certified_bound"], data["rank"],
        doc["params"]["scan_upto"]), int_sides=True)


def _witness_to_3(doc):
    even = [Seq.from_json(o) for o in doc["even_family"]]
    doc["checks"] = _entries(witness_checks(
        even, doc["forbidden"], len(doc["s"]),
        zero_tol(even[0].exact))[0])


_TO_3 = {"mazur": _mazur_to_3, "sup_zeroing": _sup_zeroing_to_3,
         "dominance": _dominance_to_3, "zeroing": _zeroing_to_3,
         "density": _density_to_3, "lineability": _lineability_to_3,
         "witness": _witness_to_3}


def _schema_4_to_3(doc):
    """The schema-3 form: each ledger summary replaced by the entries of
    the ledger its public function recomputes, and the sup-norm eta put
    back.  A Mazur certificate body, which has no kind, maps too."""
    if "schema_version" in doc:
        assert doc.pop("schema_version") == SCHEMA_VERSION == 4
        doc["schema_version"] = 3
    _TO_3[doc.get("kind", "mazur")](doc)
    return doc


def _schema_3_to_2(doc):
    """The schema-2 form: the dropped copies re-inserted, rebuilt."""
    assert doc.pop("schema_version") == 3
    doc["schema_version"] = 2
    if doc["kind"] == "dominance":
        _restore_blocks(doc)
    zeroing = doc if doc["kind"] == "zeroing" else doc.get("zeroing")
    if zeroing is not None:
        _restore_blocks(zeroing["dominance"])
        zeroing["q_op"].update(
            vectors=zeroing["dominance"]["f"],
            norm_upper=zeroing["perturbation"]["q_norm_bound"])
    return doc


def _schema_2_to_1(doc):
    doc["schema_version"] = 1
    if doc["kind"] == "zeroing":
        doc["seed"] = 11  # the sampling seed schema 1 recorded
        for check in doc["checks"]:
            if check["key"] == "q_norm_certified_le_bound":
                check["key"] = "q_norm_sampled_le_bound"
    return doc


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_certificate_bytes_pinned(name, tmp_path):
    doc, code = run_scenario(_scenario(name, tmp_path))
    assert code == 0
    assert _digest(doc) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_SCHEMA_3))
def test_schema_4_maps_back_to_schema_3_bytes(name, tmp_path):
    doc, _ = run_scenario(_scenario(name, tmp_path))
    assert _digest(_schema_4_to_3(doc)) == GOLDEN_SCHEMA_3[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_SCHEMA_2))
def test_schema_3_maps_back_to_schema_2_bytes(name, tmp_path):
    doc, _ = run_scenario(_scenario(name, tmp_path))
    assert _digest(_schema_3_to_2(_schema_4_to_3(doc))) \
        == GOLDEN_SCHEMA_2[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_SCHEMA_1))
def test_schema_2_maps_back_to_schema_1_bytes(name, tmp_path):
    doc, _ = run_scenario(_scenario(name, tmp_path))
    assert _digest(_schema_2_to_1(_schema_3_to_2(_schema_4_to_3(doc)))) \
        == GOLDEN_SCHEMA_1[name]


def _survey_fixture(seed):
    """A dense survey fixture: T, the generator count, the entries
    (each set with probability 1/2 to k/b, k in -8..8, b in 1, 2, 4, 8),
    the space and the depth, drawn in that order."""
    rng = random.Random(seed)
    t = rng.randint(40, 80)
    gens = []
    for _ in range(rng.randint(12, 24)):
        coords = [str(Fraction(rng.randint(-8, 8), rng.choice([1, 2, 4, 8])))
                  if rng.random() < 0.5 else "0" for _ in range(t)]
        gens.append({"kind": "dense", "coords": coords})
    space = "linf" if rng.random() < 0.5 else "c0"
    depth = rng.randint(3, 8)
    return {"space": {"kind": space}, "truncation": t,
            "generators": gens}, depth


@pytest.mark.parametrize("seed, mode", sorted(GOLDEN_NET))
def test_net_adding_constraints_bytes_pinned(seed, mode):
    obj, depth = _survey_fixture(seed)
    space, t, want_depth, added = NET_FIXTURES[seed]
    assert (obj["space"]["kind"], obj["truncation"], depth) == \
        (space, t, want_depth)
    sub = subspace_from_json(obj, mode=mode)
    cert = mazur_basic_sequence(sub, default_eps_seq(depth), depth,
                                seed=0, samples=60)
    assert len(cert.zeroed_coords) - len(cert.n) == added
    doc = cert.as_json()
    assert _digest(doc) == GOLDEN_NET[(seed, mode)]
    assert _digest(_schema_4_to_3(doc)) == GOLDEN_NET_SCHEMA_3[(seed, mode)]


def _tailed_fixture(seed):
    """A tailed fixture: T, the space, the generator count, then per
    generator u = rng.random() selects a geometric generator (u < 0.45:
    a ratio, then a scale a/b), a unit (u < 0.7: its index) or a dense
    one (each entry set with probability 0.4 to k/b, k in -4..4, b in
    1..9), and last the depth, drawn in that order."""
    rng = random.Random(seed)
    t = rng.randint(20, 60)
    space = rng.choice(["linf", "c0"])
    gens = []
    for _ in range(rng.randint(4, 16)):
        u = rng.random()
        if u < 0.45:
            ratio = rng.choice(["1/2", "1/3", "3/5", "7/8", "9/10", "2/7"])
            scale = Fraction(rng.choice([1, -1, 2, 3, -5]),
                             rng.choice([1, 2, 7]))
            gens.append({"kind": "geometric", "ratio": ratio,
                         "scale": str(scale)})
        elif u < 0.7:
            gens.append({"kind": "unit", "index": rng.randint(1, t)})
        else:
            coords = [str(Fraction(rng.randint(-4, 4), rng.randint(1, 9)))
                      if rng.random() < 0.4 else "0" for _ in range(t)]
            gens.append({"kind": "dense", "coords": coords})
    depth = rng.randint(2, 7)
    return {"space": {"kind": space}, "truncation": t,
            "generators": gens}, depth


@pytest.mark.parametrize("seed", sorted(GOLDEN_TAILED))
def test_tailed_mazur_bytes_pinned(seed):
    obj, depth = _tailed_fixture(seed)
    assert (obj["space"]["kind"], obj["truncation"], depth) == \
        TAILED_FIXTURES[seed]
    sub = subspace_from_json(obj, mode="exact")
    assert any(b.tail_bound for b in sub.reduced_basis)
    cert = mazur_basic_sequence(sub, default_eps_seq(depth), depth,
                                seed=0, samples=60)
    doc = cert.as_json()
    assert _digest(doc) == GOLDEN_TAILED[seed]
    assert _digest(_schema_4_to_3(doc)) == GOLDEN_TAILED_SCHEMA_3[seed]
    for f in doc["f"]:
        del f["tail_bound"]
    assert _digest(doc) == GOLDEN_TAILED_UNTAILED[seed]


#: one digest of the 60-fixture survey (seeds 2000-2059, ``_survey_fixture``)
#: through exact ``mazur_basic_sequence`` with samples=60: per fixture
#: (n, f coords, zeroed_coords), or the class name of the error it raises.
#: Computed while float mode still covered the sup-norm spaces, on the
#: exact half of the survey that the digest before it pinned.  It pins
#: bytes, not soundness: a certified Mazur step will change it on purpose.
GOLDEN_SURVEY = "7237c3eead1b19dfa61f26b19cc3776975d5dd27b098e1bab2d5df98905be27b"


def _survey_outcomes():
    out = []
    for seed in range(2000, 2060):
        obj, depth = _survey_fixture(seed)
        sub = subspace_from_json(obj, mode="exact")
        try:
            cert = mazur_basic_sequence(sub, default_eps_seq(depth),
                                        depth, samples=60)
        except SeqLabError as exc:  # the error class is the outcome
            out.append([seed, type(exc).__name__])
            continue
        out.append([seed, list(cert.n),
                    [v.as_json()["coords"] for v in cert.f],
                    list(cert.zeroed_coords)])
    return out


def test_survey_outcomes_pinned():
    assert _digest(_survey_outcomes()) == GOLDEN_SURVEY
