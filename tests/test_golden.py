"""Certificate bytes are the contract: these sha256 digests pin the
canonical bytes of three sup-norm certificates (the acceptance suite's
test_11 sup_zeroing and c0 density scenarios, and the same sup_zeroing
in float mode) and of four lp and lineability certificates (the l2
zeroing scenario of test_11, a dominance certificate at eps = 1/100, an
lp density repair and the test_11 lineability certificate).  A refactor
that changes a digest changed what seqlab emits; it must say so and
update the digest deliberately."""
import hashlib
import json
from fractions import Fraction

import pytest

from seqlab.certificates import dumps_canonical
from seqlab.cli import Scenario, run_scenario

GOLDEN = {
    "sup_zeroing": "f010bafbfcd19e87d6f09cc022c7b0c68398cd5568257f4fb2a1356ecf9f0a0d",
    "sup_zeroing_float": "02aabeb0d39711fc52348f016943df26bf50e9f9aa1eee8f74aa45dd6d032595",
    "density": "022a344be53351993f9647ddab27118399a857bf56156b28e6b6ec7f61d03143",
    "zeroing": "4ebbd743219fe323b9177293c67b8dc5deb76f94453209459473b4e89396a535",
    "dominance": "a69c906dabcf55303f54be909b7dfa9b7b49a693e126c48dbb57f40ee760a31d",
    "density_lp": "9977348330cdf8da9eff1190d98fa61e8d929483bacac61de3704e588fdc317e",
    "lineability": "6fb15d5674fe7753e2e6537cb70186a2756f728e4a156eb1b8718e60b7715f68",
}

LINF_PARAMS = {"depth": 4, "stab_tol": Fraction(1, 10 ** 6),
               "net_resolution": Fraction(1, 4), "k_est": None,
               "samples": 60, "mode": "auto", "seed": 11}


LP_PARAMS = {"eps": Fraction(1, 600), "depth": 4, "mode": "auto",
             "seed": 11, "space": None, "p": None}


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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_certificate_bytes_pinned(name, tmp_path):
    doc, code = run_scenario(_scenario(name, tmp_path))
    assert code == 0
    payload = dumps_canonical(doc).encode("utf-8")
    assert hashlib.sha256(payload).hexdigest() == GOLDEN[name]
