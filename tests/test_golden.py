"""Certificate bytes are the contract: these sha256 digests pin the
canonical bytes of three sup-norm certificates (the acceptance suite's
test_11 sup_zeroing and c0 density scenarios, and the same sup_zeroing
in float mode), of four lp and lineability certificates (the l2
zeroing scenario of test_11, a dominance certificate at eps = 1/100, an
lp density repair and the test_11 lineability certificate) and of the
test_11 witness.  GOLDEN_NET pins four Mazur certificates on dense
fixtures, GOLDEN_TAILED two on fixtures with generator tails, and
GOLDEN_SURVEY the Mazur outcomes of the whole 60-fixture survey.  A
refactor that changes a digest changed what seqlab emits; it must say
so and update the digest deliberately.

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
from seqlab.core import AmbientSpace, Seq, subspace_from_json
from seqlab.errors import SeqLabError
from seqlab.linf_construction import default_eps_seq, mazur_basic_sequence
from seqlab.lp_construction import window_blocks

GOLDEN = {
    "sup_zeroing": "6c11d615c26e33aa3c076f045459bf3742068f9e919c69d17f02962420b6f985",
    "sup_zeroing_float": "ec9a991c4d0da8b116c1bc61a44d7483bd5e542327e5992f3134538ce0101396",
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
    "sup_zeroing_float": "5df17f24cbbe83d3fb776a521946cfc67f89d75e4b4386a5e9d2700f2e12ece9",
    "density": "72654df0dd27ac8c9acc93633474bd8bdca4cdb620149bae1eaa216db8b7c416",
    "zeroing": "aeafc600603ecdebbb43d5c05ca34c1443928482863e8d064136876626c81f81",
    "dominance": "50f7487e175166059daf11321535392c279c2f345903447cf8295c8a2f394998",
    "density_lp": "6fef30027b063d733c86b3753c833375c997cab874708a0c28fbcaf72942057b",
    "lineability": "7b82cf8daf1a9af6a9916d9d144b2ff528daaa3ef159e4cc7ec79ac52288b094",
}

#: the schema-1 digests, computed before the schema-2 change
GOLDEN_SCHEMA_1 = {
    "sup_zeroing": "f010bafbfcd19e87d6f09cc022c7b0c68398cd5568257f4fb2a1356ecf9f0a0d",
    "sup_zeroing_float": "02aabeb0d39711fc52348f016943df26bf50e9f9aa1eee8f74aa45dd6d032595",
    "density": "022a344be53351993f9647ddab27118399a857bf56156b28e6b6ec7f61d03143",
    "zeroing": "4ebbd743219fe323b9177293c67b8dc5deb76f94453209459473b4e89396a535",
    "dominance": "a69c906dabcf55303f54be909b7dfa9b7b49a693e126c48dbb57f40ee760a31d",
    "lineability": "6fb15d5674fe7753e2e6537cb70186a2756f728e4a156eb1b8718e60b7715f68",
}

#: Mazur certificates on two dense survey fixtures where the net adds
#: zeroed coordinates beyond the n_k, which no certificate above does,
#: computed before the net was evaluated from its point structure:
#: (seed, mode) -> digest.  They pin bytes, not soundness: the sampled
#: basis inequality these certificates pass is not a proof, and a
#: certified Mazur step (exact norming sets instead of the net) will
#: change them on purpose.
GOLDEN_NET = {
    (2032, "exact"): "fde1e2262a14988a34626a24fe03ff9e7c42330f5b9f01807d3ba2e7ad6da69c",
    (2032, "float"): "9ab66ff9d78bbb19b4c185d268fce72343d485cc97502e48ed26e6452f8b723a",
    (2002, "exact"): "6776366dba67c5f70449431007ecdc34a7fa045cd331e6da4a64c4878e9fa789",
    (2002, "float"): "675ca4a6e97ee359cb7cc366f7b581671a49d33d7b094155612aefe5fc665d42",
}

#: seed -> (space, truncation, depth, zero constraints the net adds)
NET_FIXTURES = {2032: ("linf", 42, 4, 17), 2002: ("c0", 40, 5, 16)}

#: exact Mazur certificates on two fixtures of the tailed recipe, whose
#: geometric generators give the reduced basis nonzero tail bounds: the
#: only sup-norm pins with generator tails.  Computed while every step
#: still rebuilt its working subspace from the reduced basis; a working
#: subspace updated one constraint at a time has the same coordinates
#: but other tail bounds here, so these digests fail under it.
GOLDEN_TAILED = {
    7: "665d3441f8b3fd6b237a9125025bd853781cfdfae5fd9109af30b2354e063cfe",
    12: "cbe97f7497fce949e1cc1288f011fdbc268b3bfda3b813722c970752c6aac1a6",
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
    mode = "float" if name == "sup_zeroing_float" else "auto"
    return Scenario(name="s", pipeline="linf", fixture=str(fix),
                    params=dict(LINF_PARAMS, mode=mode))


def _digest(doc) -> str:
    return hashlib.sha256(dumps_canonical(doc).encode("utf-8")).hexdigest()


def _restore_blocks(dom):
    f = [Seq.from_json(o) for o in dom["f"]]
    sigma, f_tilde, g = window_blocks(f, dom["n_cut"],
                                      AmbientSpace.from_json(dom["space"]))
    dom.update(sigma=[list(w) for w in sigma],
               f_tilde=[v.as_json() for v in f_tilde],
               g=[v.as_json() for v in g])


def _schema_3_to_2(doc):
    """The schema-2 form: the dropped copies re-inserted, rebuilt."""
    assert doc.pop("schema_version") == SCHEMA_VERSION == 3
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


@pytest.mark.parametrize("name", sorted(GOLDEN_SCHEMA_2))
def test_schema_3_maps_back_to_schema_2_bytes(name, tmp_path):
    doc, _ = run_scenario(_scenario(name, tmp_path))
    assert _digest(_schema_3_to_2(doc)) == GOLDEN_SCHEMA_2[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_SCHEMA_1))
def test_schema_2_maps_back_to_schema_1_bytes(name, tmp_path):
    doc, _ = run_scenario(_scenario(name, tmp_path))
    assert _digest(_schema_2_to_1(_schema_3_to_2(doc))) \
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
    exact = mode == "exact"
    sub = subspace_from_json(obj, mode=mode)
    cert = mazur_basic_sequence(sub, default_eps_seq(depth, exact), depth,
                                seed=0, samples=60)
    assert len(cert.zeroed_coords) - len(cert.n) == added
    assert _digest(cert.as_json()) == GOLDEN_NET[(seed, mode)]


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
    cert = mazur_basic_sequence(sub, default_eps_seq(depth, True), depth,
                                seed=0, samples=60)
    assert _digest(cert.as_json()) == GOLDEN_TAILED[seed]


#: one digest of the 60-fixture survey (seeds 2000-2059, ``_survey_fixture``)
#: through ``mazur_basic_sequence`` with samples=60, in exact and float
#: mode: per fixture (n, f coords, zeroed_coords), or the class name of
#: the error it raises.  Computed before the Mazur step search read one
#: scan frame per step.  It pins bytes, not soundness: a certified Mazur
#: step will change it on purpose.
GOLDEN_SURVEY = "6987423de941e3c8128991a429bad88ab70a51ee37bc0581cc038db79cb33f59"


def _survey_outcomes():
    out = []
    for seed in range(2000, 2060):
        obj, depth = _survey_fixture(seed)
        for mode in ("exact", "float"):
            exact = mode == "exact"
            sub = subspace_from_json(obj, mode=mode)
            try:
                cert = mazur_basic_sequence(
                    sub, default_eps_seq(depth, exact), depth, samples=60)
            except SeqLabError as exc:  # the error class is the outcome
                out.append([seed, mode, type(exc).__name__])
                continue
            out.append([seed, mode, list(cert.n),
                        [v.as_json()["coords"] for v in cert.f],
                        list(cert.zeroed_coords)])
    return out


def test_survey_outcomes_pinned():
    assert _digest(_survey_outcomes()) == GOLDEN_SURVEY
