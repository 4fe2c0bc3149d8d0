"""verify on sup-norm certificates: the ledger it recomputes is the
stored one, and tampers inside nested levels, with the stored ledger or
with the lengths of the stored lists are all rejected."""
import copy
import json
from fractions import Fraction

import pytest

from seqlab.certificates import dumps_canonical
from seqlab.cli import Scenario, main, run_scenario
from seqlab.errors import MalformedCertificate
from seqlab.verify import _Ctx, verify_certificate


def _linf_doc(tmp_path, mode):
    fix = tmp_path / "linf.json"
    fix.write_text(json.dumps({
        "space": {"kind": "linf"}, "truncation": 120,
        "generators": [{"kind": "unit", "index": j} for j in range(1, 25)]}))
    doc, code = run_scenario(Scenario(
        name="linf", pipeline="linf", fixture=str(fix),
        params={"depth": 4, "stab_tol": Fraction(1, 10 ** 6),
                "net_resolution": Fraction(1, 4), "k_est": None,
                "samples": 60, "mode": mode, "seed": 11}))
    assert code == 0
    return json.loads(dumps_canonical(doc))


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("ledger")
    out = {"exact": _linf_doc(tmp_path, "auto"),
           "float": _linf_doc(tmp_path, "float")}
    fix = tmp_path / "l2.json"
    fix.write_text(json.dumps({
        "space": {"kind": "lp", "p": 2}, "truncation": 200,
        "generators": [{"kind": "unit", "index": j} for j in range(1, 21)]}))
    doc, code = run_scenario(Scenario(
        name="l2", pipeline="lp", fixture=str(fix),
        params={"eps": Fraction(1, 600), "depth": 4, "mode": "auto",
                "seed": 11, "space": None, "p": None}))
    assert code == 0
    out["zeroing"] = json.loads(dumps_canonical(doc))
    return out


def _verify_cli(tmp_path, doc):
    path = tmp_path / "cert.json"
    path.write_text(dumps_canonical(doc))
    return main(["verify", str(path)])


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_recomputed_ledger_equals_stored(docs, mode, monkeypatch):
    doc = docs[mode]
    runs = {}
    real_run = _Ctx.run

    def spy(self, checks):
        runs[self.prefix] = list(checks)
        real_run(self, checks)

    monkeypatch.setattr(_Ctx, "run", spy)
    assert verify_certificate(doc).ok
    levels = {"": doc, "cascade.": doc["cascade"],
              "cascade.mazur.": doc["cascade"]["source"]}
    assert set(runs) == set(levels)
    for prefix, level in levels.items():
        fields = ("key", "where", "passed", "lhs")
        recomputed = [{f: c.as_json()[f] for f in fields}
                      for c in runs[prefix]]
        stored = [{f: c[f] for f in fields} for c in level["checks"]]
        assert recomputed == stored, prefix


def _tamper_mazur_f(doc):
    mazur = doc["cascade"]["source"]
    n2 = mazur["n"][1]
    mazur["f"][1]["coords"][n2 - 1] = "2/1"


def _tamper_cascade_h(doc):
    cascade = doc["cascade"]
    t1 = cascade["t"][0]
    cascade["h"][0]["coords"][t1 - 1] = "3/2"


def _tamper_l(doc):
    s1 = doc["s"][0]
    doc["l"][1]["coords"][s1 - 1] = "1/10"


@pytest.mark.parametrize("tamper", [_tamper_mazur_f, _tamper_cascade_h,
                                    _tamper_l])
def test_nested_tamper_detected(docs, tamper):
    doc = copy.deepcopy(docs["exact"])
    tamper(doc)
    report = verify_certificate(doc)
    assert not report.ok
    if tamper is _tamper_l:
        assert report.first_failure().startswith("zero_pattern[2,1]")
        failed = {f.split(":")[0].split("[")[0] for f in report.failures}
        assert failed == {"zero_pattern", "l_matches_recursion",
                          "stored_ledger_matches"}


def test_stored_ledger_all_failed_is_rejected(docs):
    doc = copy.deepcopy(docs["exact"])
    for level in (doc, doc["cascade"], doc["cascade"]["source"]):
        for check in level["checks"]:
            check["passed"] = False
    report = verify_certificate(doc)
    assert not report.ok
    assert [f.split(":")[0] for f in report.failures] == [
        "cascade.mazur.stored_ledger_matches",
        "cascade.stored_ledger_matches", "stored_ledger_matches"]


@pytest.mark.parametrize("kind", ["exact", "zeroing"])
def test_lowered_depth_is_rejected(docs, kind, tmp_path):
    # the vectors beyond the stored depth are still read: l_4 is
    # nonzero at s_1 and the depth no longer matches s and l
    doc = copy.deepcopy(docs[kind])
    assert doc["depth"] == len(doc["s"]) == 4
    doc["depth"] = 3
    doc["l"][3]["coords"][doc["s"][0] - 1] = (
        "5/1" if kind == "exact" else 5.0)
    report = verify_certificate(doc)
    assert not report.ok
    assert "depth_matches" in report.first_failure()
    assert any(f.startswith("zero_pattern[4,1]") for f in report.failures)
    assert _verify_cli(tmp_path, doc) == 1


@pytest.mark.parametrize("path", [
    ("cascade", "h"),
    ("cascade", "t"),
    ("cascade", "case_trace"),
    ("cascade", "source", "f"),
    ("l",),
])
def test_length_mismatch_is_malformed(docs, path, tmp_path):
    doc = copy.deepcopy(docs["exact"])
    node = doc
    for part in path[:-1]:
        node = node[part]
    node[path[-1]].pop()
    with pytest.raises(MalformedCertificate):
        verify_certificate(doc)
    assert _verify_cli(tmp_path, doc) == 1
