"""Certificate bytes are the contract: these sha256 digests pin the
canonical bytes of three sup-norm certificates (the acceptance suite's
test_11 sup_zeroing and c0 density scenarios, and the same sup_zeroing
in float mode) and of four lp and lineability certificates (the l2
zeroing scenario of test_11, a dominance certificate at eps = 1/100, an
lp density repair and the test_11 lineability certificate).  A refactor
that changes a digest changed what seqlab emits; it must say so and
update the digest deliberately.

Schema 2 changed only the lp zeroing certificate: its Q ledger entry
q_norm_sampled_le_bound became q_norm_certified_le_bound, the Q values
became certified bounds, and the unread "seed" field went.  So every
certificate but the lp density repair, whose Q values moved, maps back
to the schema-1 bytes pinned before that change."""
import hashlib
import json
from fractions import Fraction

import pytest

from seqlab.certificates import SCHEMA_VERSION, dumps_canonical
from seqlab.cli import Scenario, run_scenario

GOLDEN = {
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

LINF_PARAMS = {"depth": 4, "stab_tol": Fraction(1, 10 ** 6),
               "net_resolution": Fraction(1, 4), "k_est": None,
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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_certificate_bytes_pinned(name, tmp_path):
    doc, code = run_scenario(_scenario(name, tmp_path))
    assert code == 0
    assert _digest(doc) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_SCHEMA_1))
def test_schema_2_maps_back_to_schema_1_bytes(name, tmp_path):
    doc, _ = run_scenario(_scenario(name, tmp_path))
    assert doc.pop("schema_version") == SCHEMA_VERSION == 2
    doc["schema_version"] = 1
    if doc["kind"] == "zeroing":
        doc["seed"] = 11  # the sampling seed schema 1 recorded
        for check in doc["checks"]:
            if check["key"] == "q_norm_certified_le_bound":
                check["key"] = "q_norm_sampled_le_bound"
    assert _digest(doc) == GOLDEN_SCHEMA_1[name]
