"""verify on sup-norm, lp, density, lineability and witness
certificates: the ledgers it recomputes are the ones the emitter
summarised, and tampers inside nested levels, with a stored ledger
summary (a count, a failed entry or a key), the derived fields, the
top-level status or the lengths of the stored lists are all
rejected.  A sup-norm certificate holding floats is malformed, since the
sup-norm spaces are exact only.  ``evaluate`` skips a zero tolerance
only where the sum is provably the right-hand side, so it must agree
with a verbatim copy of the evaluator that always added it."""
import copy
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlab import lineability, linf_construction, lp_construction, witnesses
from seqlab.certificates import dumps_canonical, evaluate, ledger_summary
from seqlab.cli import Scenario, main, run_scenario
from seqlab.core import Seq
from seqlab.errors import MalformedCertificate
from seqlab.linf_construction import mazur_checks
from seqlab.verify import _Ctx, verify_certificate


def _scenarios(tmp_path) -> dict:
    """The scenarios of the certificates under test, by kind; the
    witness is emitted from the zeroing certificate."""
    linf = tmp_path / "linf.json"
    linf.write_text(json.dumps({
        "space": {"kind": "linf"}, "truncation": 120,
        "generators": [{"kind": "unit", "index": j} for j in range(1, 25)]}))
    l2 = tmp_path / "l2.json"
    l2.write_text(json.dumps({
        "space": {"kind": "lp", "p": 2}, "truncation": 200,
        "generators": [{"kind": "unit", "index": j} for j in range(1, 21)]}))
    lp = {"eps": Fraction(1, 100), "depth": 4, "mode": "auto", "seed": 11,
          "stab_tol": Fraction(1, 10 ** 6)}
    return {
        "exact": Scenario(name="linf", pipeline="linf", fixture=str(linf),
                          params={"depth": 4, "stab_tol": Fraction(1, 10 ** 6),
                                  "samples": 60, "mode": "auto", "seed": 11}),
        "zeroing": Scenario(name="l2", pipeline="lp", fixture=str(l2),
                            params={"eps": Fraction(1, 600), "depth": 4,
                                    "mode": "auto", "space": None,
                                    "p": None}),
        "dominance": Scenario(name="l2", pipeline="lp", fixture=str(l2),
                              params=dict(lp, space=None, p=None)),
        "density_lp": Scenario(name="l2", pipeline="density", fixture=str(l2),
                               params=dict(lp, coeffs=[Fraction(1)] + [
                                   Fraction((-1) ** j, 10000 * 2 ** j)
                                   for j in range(1, 20)])),
        "density_c0": Scenario(name="c0", pipeline="density",
                               fixture=_c0_fixture(tmp_path),
                               params=dict(lp, eps=Fraction(1, 20),
                                           coeffs=None)),
        "lineability": Scenario(name="lin", pipeline="lineability", params={
            "ratios": [Fraction(1, 4), Fraction(1, 2)],
            "coeffs": [Fraction(-2), Fraction(1)],
            "truncation": 256, "scan": 500}),
    }


def _emit(scenario) -> dict:
    doc, code = run_scenario(scenario)
    assert code == 0, scenario
    return json.loads(dumps_canonical(doc))


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("ledger")
    out = {kind: _emit(scenario)
           for kind, scenario in _scenarios(tmp_path).items()}
    src = tmp_path / "zeroing.json"
    src.write_text(dumps_canonical(out["zeroing"]))
    out["witness"] = _emit(Scenario(name="w", pipeline="witness",
                                    params={"cert": str(src)}))
    return out


def _c0_fixture(tmp_path):
    gens = []
    for i in range(1, 37):
        coords = ["0/1"] * 96
        coords[i - 1] = f"1/{2 ** i}"
        gens.append({"kind": "dense", "coords": coords})
    fix = tmp_path / "c0.json"
    fix.write_text(json.dumps({"space": {"kind": "c0"}, "truncation": 96,
                               "generators": gens}))
    return str(fix)


def _verify_cli(tmp_path, doc):
    path = tmp_path / "cert.json"
    path.write_text(dumps_canonical(doc))
    return main(["verify", str(path)])


def _emit_spied(monkeypatch, tmp_path, kind):
    """docs[kind] emitted again, and every check list the emitter
    summarised, in the order it summarised them."""
    emitted = []

    def spy(checks):
        emitted.append(list(checks))
        return ledger_summary(checks)

    with monkeypatch.context() as patch:
        for module in (lineability, linf_construction, lp_construction,
                       witnesses):
            patch.setattr(module, "ledger_summary", spy)
        doc = _emit(_scenarios(tmp_path)[kind])
    return doc, emitted


def _spy_runs(monkeypatch):
    """verify's recomputed ledgers, in the order it runs them: (prefix,
    checks)."""
    runs = []
    real_run = _Ctx.run

    def spy(self, checks):
        runs.append((self.prefix, list(checks)))
        real_run(self, checks)

    monkeypatch.setattr(_Ctx, "run", spy)
    return runs


@pytest.mark.parametrize("kind", ["exact", "density_c0"])
def test_recomputed_ledger_equals_stored(docs, kind, monkeypatch,
                                          tmp_path):
    # every check verify recomputes is the emitter's, field by field
    # (key, where, lhs, rel, rhs, tol, passed), and each stored summary
    # is the summary of that list
    doc, emitted = _emit_spied(monkeypatch, tmp_path, kind)
    assert doc == docs[kind]
    runs = _spy_runs(monkeypatch)
    assert verify_certificate(doc).ok
    sup = doc if kind == "exact" else doc["sup_zeroing"]
    levels = [sup["cascade"]["source"], sup["cascade"], sup]
    prefixes = ["cascade.mazur.", "cascade.", ""]
    if kind == "density_c0":
        levels.append(doc)
        prefixes = ["sup_zeroing." + p for p in prefixes] + [""]
    assert [prefix for prefix, _ in runs] == prefixes
    assert [checks for _, checks in runs] == emitted
    for level, (prefix, checks) in zip(levels, runs):
        assert level["checks"] == ledger_summary(checks), prefix


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


def _fail_every_key(ledger):
    """The stored summary claims a failed check under every key."""
    ledger["failed"] = [[key, []] for key in sorted(ledger["counts"])]


def test_stored_ledger_all_failed_is_rejected(docs):
    doc = copy.deepcopy(docs["exact"])
    for level in (doc, doc["cascade"], doc["cascade"]["source"]):
        _fail_every_key(level["checks"])
    report = verify_certificate(doc)
    assert not report.ok
    assert [f.split(":")[0] for f in report.failures] == [
        "cascade.mazur.stored_ledger_matches",
        "cascade.stored_ledger_matches", "stored_ledger_matches"]


def _bump_count(ledger):
    key = sorted(ledger["counts"])[0]
    ledger["counts"][key] += 1


def _add_failed(ledger):
    ledger["failed"].append([sorted(ledger["counts"])[-1], [1]])


def _drop_key(ledger):
    del ledger["counts"][sorted(ledger["counts"])[0]]


def _add_key(ledger):
    ledger["counts"]["not_a_check"] = 1


@pytest.mark.parametrize("tamper", [_bump_count, _add_failed, _drop_key,
                                    _add_key])
@pytest.mark.parametrize("kind,path,prefix", [
    ("exact", (), ""),
    ("exact", ("cascade",), "cascade."),
    ("exact", ("cascade", "source"), "cascade.mazur."),
    ("zeroing", ("perturbation",), "perturbation."),
    ("density_lp", (), ""),
    ("density_c0", ("sup_zeroing",), "sup_zeroing."),
    ("lineability", (), ""),
    ("witness", (), ""),
], ids=["sup_zeroing", "cascade", "mazur", "perturbation", "density_lp",
        "density_c0", "lineability", "witness"])
def test_tampered_summary_is_rejected(docs, tamper, kind, path, prefix,
                                      tmp_path):
    doc = copy.deepcopy(docs[kind])
    node = doc
    for part in path:
        node = node[part]
    tamper(node["checks"])
    report = verify_certificate(doc)
    assert [f.split(":")[0] for f in report.failures] == [
        prefix + "stored_ledger_matches"]
    assert _verify_cli(tmp_path, doc) == 1


@pytest.fixture
def failing_exact(docs, monkeypatch):
    """docs["exact"] with l_2(s_1) = 1/10, which really fails a
    zero_pattern check, and stores that faithfully: the summary of the
    recomputed ledger and a "fail" status."""
    doc = copy.deepcopy(docs["exact"])
    _tamper_l(doc)
    with monkeypatch.context() as patch:
        runs = _spy_runs(patch)
        verify_certificate(doc)
    [checks] = [checks for prefix, checks in runs if prefix == ""]
    doc.update(checks=ledger_summary(checks), status="fail")
    return doc


def test_really_failing_check_is_named_first(failing_exact, tmp_path):
    assert failing_exact["checks"]["failed"] == [["zero_pattern", [2, 1]]]
    report = verify_certificate(failing_exact)
    assert [f.split(":")[0] for f in report.failures] == [
        "zero_pattern[2,1]", "l_matches_recursion[2]"]
    assert _verify_cli(tmp_path, failing_exact) == 1


def test_failed_entry_removed_is_rejected(failing_exact, tmp_path):
    failing_exact["checks"]["failed"].clear()
    report = verify_certificate(failing_exact)
    assert [f.split(":")[0] for f in report.failures] == [
        "zero_pattern[2,1]", "stored_ledger_matches",
        "l_matches_recursion[2]"]
    assert _verify_cli(tmp_path, failing_exact) == 1


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


def test_lp_recomputed_ledger_equals_stored(docs, monkeypatch, tmp_path):
    # verify's lp norms are exact p-th-power sums on the lifted vectors,
    # so lhs may differ from the emitter's float values in the last bits;
    # key, where and passed may not
    doc, emitted = _emit_spied(monkeypatch, tmp_path, "zeroing")
    assert doc == docs["zeroing"]
    runs = _spy_runs(monkeypatch)
    assert verify_certificate(doc).ok
    levels = {"": doc, "dominance.": doc["dominance"],
              "perturbation.": doc["perturbation"]}
    assert [prefix for prefix, _ in runs] == [
        "dominance.", "perturbation.", ""]
    fields = ("key", "where", "passed")
    for (prefix, checks), want in zip(runs, emitted, strict=True):
        assert [[getattr(c, f) for f in fields] for c in checks] == \
            [[getattr(c, f) for f in fields] for c in want], prefix
        assert levels[prefix]["checks"] == ledger_summary(checks), prefix


def test_lp_stored_ledger_all_failed_is_rejected(docs):
    doc = copy.deepcopy(docs["zeroing"])
    for level in (doc, doc["dominance"], doc["perturbation"]):
        _fail_every_key(level["checks"])
    report = verify_certificate(doc)
    assert [f.split(":")[0] for f in report.failures] == [
        "dominance.stored_ledger_matches",
        "perturbation.stored_ledger_matches", "stored_ledger_matches"]


def test_lp_flipped_transfer_bound_is_rejected(docs, tmp_path):
    doc = copy.deepcopy(docs["zeroing"])
    ledger = doc["perturbation"]["checks"]
    assert ledger["counts"]["transfer_bound_le_2"] == 1
    assert ledger["failed"] == []
    ledger["failed"].append(["transfer_bound_le_2", []])
    report = verify_certificate(doc)
    assert [f.split(":")[0] for f in report.failures] == [
        "perturbation.stored_ledger_matches"]
    assert _verify_cli(tmp_path, doc) == 1


def _set(path, value):
    def tamper(doc):
        node = doc
        for part in path[:-1]:
            node = node[part]
        node[path[-1]] = value
    return tamper


@pytest.mark.parametrize("kind,path,value,key", [
    ("exact", ("residuals", 0), 7, "residuals_matches"),
    ("exact", ("cascade", "case_trace", 0, "L1"), 7, "cascade.trace_matches[1]"),
    ("exact", ("cascade", "case_trace", 0, "bound"), 99,
     "cascade.trace_matches[1]"),
    ("exact", ("cascade", "final_pool"), [1], "cascade.final_pool_matches"),
    ("zeroing", ("residuals", 1), 0.5, "residuals_matches"),
    ("density_c0", ("selected",), [1, 2, 3, 4], "selected_matches"),
    ("density_c0", ("distance",), 9, "distance_matches"),
    ("density_c0", ("series_sum",), "1/3", "series_sum_matches"),
    ("density_lp", ("distance",), 9, "distance_matches"),
    ("density_lp", ("forbidden", 0), 1, "forbidden_matches"),
    ("density_lp", ("eps_inner",), "1/512", "eps_inner_matches"),
])
def test_derived_field_tamper_is_rejected(docs, kind, path, value, key):
    doc = copy.deepcopy(docs[kind])
    _set(path, value)(doc)
    report = verify_certificate(doc)
    assert [f.split(":")[0] for f in report.failures] == [key]


def test_c0_density_selected_and_distance_tamper_fails(docs, tmp_path):
    doc = copy.deepcopy(docs["density_c0"])
    doc["selected"] = [1, 2, 3, 4]
    doc["distance"] = 9
    assert not verify_certificate(doc).ok
    assert _verify_cli(tmp_path, doc) == 1


@pytest.mark.parametrize("kind", ["exact", "zeroing", "dominance",
                                  "density_lp", "density_c0", "lineability",
                                  "witness"])
def test_flipped_status_is_rejected(docs, kind, tmp_path):
    doc = copy.deepcopy(docs[kind])
    assert doc["status"] == "pass" and verify_certificate(doc).ok
    doc["status"] = "fail"
    report = verify_certificate(doc)
    assert [f.split(":")[0] for f in report.failures] == ["status_matches"]
    assert _verify_cli(tmp_path, doc) == 1


@pytest.mark.parametrize("kind,path,value,key", [
    ("zeroing", ("dominance", "depth"), 99, "dominance.depth_matches"),
    ("dominance", ("depth",), 99, "depth_matches"),
    ("zeroing", ("iteration_depth",), [9, 9, 9, 9],
     "iteration_depth_matches"),
])
def test_stored_depth_tamper_is_rejected(docs, kind, path, value, key,
                                         tmp_path):
    doc = copy.deepcopy(docs[kind])
    _set(path, value)(doc)
    report = verify_certificate(doc)
    assert [f.split(":")[0] for f in report.failures] == [key]
    assert _verify_cli(tmp_path, doc) == 1


def _tamper_psi_coordinate(doc):
    # psi_2 at f_2's marker: G_22 = psi_2(f_2) is no longer 1
    doc["q_op"]["functionals"][1]["coords"][doc["s"][1] - 1] += 0.5


def _tamper_psi_scale(doc):
    for psi in doc["q_op"]["functionals"]:
        psi["coords"] = [3 * v for v in psi["coords"]]


@pytest.mark.parametrize("tamper,key", [
    (_tamper_psi_coordinate, "q_fixes_family"),
    (_tamper_psi_scale, "q_norm_certified_le_bound"),
])
def test_q_op_tamper_is_rejected(docs, tamper, key, tmp_path):
    doc = copy.deepcopy(docs["zeroing"])
    tamper(doc)
    report = verify_certificate(doc)
    assert key in {f.split(":")[0].split("[")[0] for f in report.failures}
    assert _verify_cli(tmp_path, doc) == 1


def _flip_first_witness_check(doc):
    """The stored summary marks the forbidden-coordinate check failed."""
    doc["checks"]["failed"].append(
        ["forbidden_coordinate_max", [1, doc["forbidden"][0]]])


@pytest.mark.parametrize("tamper,keys", [
    # the exact max over no markers is 0, and passes: the summary stores
    # no where of a passing check, so only the derived fields differ
    (_set(("forbidden",), []), ["forbidden_matches",
                                "samples_checked_matches"]),
    (_set(("s",), [1, 2]), ["even_rank_half_depth", "stored_ledger_matches",
                            "forbidden_matches"]),
    (_flip_first_witness_check, ["stored_ledger_matches"]),
    (_set(("samples_checked",), 500), ["samples_checked_matches"]),
    (_set(("rank",), 3), ["rank_matches"]),
], ids=["forbidden", "s", "passed", "samples_checked", "rank"])
def test_witness_tamper_is_rejected(docs, tamper, keys, tmp_path):
    doc = copy.deepcopy(docs["witness"])
    tamper(doc)
    report = verify_certificate(doc)
    assert [f.split(":")[0] for f in report.failures] == keys
    assert _verify_cli(tmp_path, doc) == 1


def test_mazur_eps_seq_out_of_range_is_rejected(docs, tmp_path):
    # eps_i = 7 for i >= 2, with a ledger rewritten on that eps: the basis
    # inequality then holds only up to a constant 8^k
    doc = copy.deepcopy(docs["exact"])
    mazur = doc["cascade"]["source"]
    mazur["eps_seq"] = mazur["eps_seq"][:1] + ["7/1"] * (len(
        mazur["eps_seq"]) - 1)
    checks = mazur_checks([Seq.from_json(o) for o in mazur["f"]], mazur["n"],
                          [Fraction(e) for e in mazur["eps_seq"]],
                          mazur["seed"], mazur["samples"])
    mazur["checks"] = ledger_summary(checks)
    report = verify_certificate(doc)
    assert [f.split(":")[0] for f in report.failures] == [
        "cascade.mazur.eps_seq_range"]
    assert _verify_cli(tmp_path, doc) == 1


def _set_every_eta(node, value):
    """Store value as eta at every level of a certificate."""
    if isinstance(node, dict):
        if "eta" in node:
            node["eta"] = value
        for child in node.values():
            _set_every_eta(child, value)
    elif isinstance(node, list):
        for child in node:
            _set_every_eta(child, value)


def _raise_l1_at_s2(by):
    def tamper(doc):
        doc["l"][0]["coords"][doc["s"][1] - 1] += by
    return tamper


def _set_l1_at_s2_with_eta(doc):
    """The sup-norm levels store no eta: put one back at each, as schema 3
    stored it, then break l_1's zero at s_2."""
    for level in (doc, doc["cascade"], doc["cascade"]["source"]):
        assert "eta" not in level
        level["eta"] = 0.6
    doc["l"][0]["coords"][doc["s"][1] - 1] = "3/10"


def _set_even_1_at_s1(doc):
    doc["even_family"][0]["coords"][doc["forbidden"][0] - 1] = 0.5


@pytest.mark.parametrize("kind,tamper,eta_levels,zero_check", [
    ("zeroing", _raise_l1_at_s2(0.5), ["dominance.", ""], "zero_pattern[1,2]"),
    # verify reads no sup-norm eta, so there is no eta_matches to fail
    ("exact", _set_l1_at_s2_with_eta, [], "zero_pattern[1,2]"),
    ("witness", _set_even_1_at_s1, [""], "forbidden_coordinate_max[1,"),
], ids=["zeroing", "sup_zeroing", "witness"])
def test_stored_eta_does_not_loosen_zero_checks(docs, kind, tamper,
                                                eta_levels, zero_check,
                                                tmp_path):
    # a nonzero entry where the family must vanish, with eta = 0.6 stored
    # at every level: were the zero tolerance read from the certificate,
    # every check would pass
    doc = copy.deepcopy(docs[kind])
    _set_every_eta(doc, 0.6)
    tamper(doc)
    labels = [f.split(":")[0] for f in verify_certificate(doc).failures]
    assert [label for label in labels if label.endswith("eta_matches")] == [
        prefix + "eta_matches" for prefix in eta_levels]
    assert any(label.startswith(zero_check) for label in labels), labels
    assert _verify_cli(tmp_path, doc) == 1


def _to_floats(node):
    """The certificate with every exact vector and every eps_seq entry
    turned into floats, as a float-mode run wrote them."""
    if isinstance(node, list):
        return [_to_floats(child) for child in node]
    if not isinstance(node, dict):
        return node
    if node.get("exact") is True and "coords" in node:
        return {"coords": [float(Fraction(v)) for v in node["coords"]],
                "exact": False,
                "tail_bound": float(Fraction(node["tail_bound"]))}
    out = {key: _to_floats(child) for key, child in node.items()}
    if "eps_seq" in out:
        out["eps_seq"] = [float(Fraction(e)) for e in out["eps_seq"]]
    return out


def _float_f(doc):
    """Only the Mazur family as floats."""
    mazur = doc["cascade"]["source"]
    mazur["f"] = _to_floats(mazur["f"])


def _float_eps(doc):
    """Only the Mazur eps sequence as floats."""
    mazur = doc["cascade"]["source"]
    mazur["eps_seq"] = [float(Fraction(e)) for e in mazur["eps_seq"]]


def _float_h(doc):
    """Only the cascade h as floats."""
    doc["cascade"]["h"] = _to_floats(doc["cascade"]["h"])


def _float_l(doc):
    """Only the final family l as floats."""
    doc["l"] = _to_floats(doc["l"])


def _float_result(doc):
    """Only the c0 density result as floats."""
    doc["result"] = _to_floats(doc["result"])


@pytest.mark.parametrize("kind,float_part", [
    ("exact", None), ("exact", _float_f), ("exact", _float_eps),
    ("exact", _float_h), ("exact", _float_l), ("density_c0", None),
    ("density_c0", _float_result)],
    ids=["sup_zeroing", "mazur_f", "mazur_eps_seq", "cascade_h",
         "sup_zeroing_l", "density_c0", "density_c0_result"])
def test_float_sup_norm_certificate_is_refused(docs, kind, float_part,
                                               tmp_path):
    doc = copy.deepcopy(docs[kind])
    if float_part is None:
        doc = _to_floats(doc)
    else:
        float_part(doc)
    with pytest.raises(MalformedCertificate, match="exact only"):
        verify_certificate(doc)
    assert _verify_cli(tmp_path, doc) == 1


def old_evaluate(lhs, rel, rhs, tol):
    """Verbatim copy of evaluate before a zero tolerance skipped the sum."""
    if rel == "lt":
        return lhs < rhs + tol
    if rel == "le":
        return lhs <= rhs + tol
    if rel == "abs_le":
        return abs(lhs) <= rhs + tol
    if rel == "abs_gt":
        return abs(lhs) > rhs
    if rel == "eq":
        return abs(lhs - rhs) <= tol
    if rel == "ge":
        return lhs >= rhs - tol
    raise MalformedCertificate(f"unknown check relation {rel!r}")


RELATIONS = ("lt", "le", "abs_le", "abs_gt", "eq", "ge")
SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan, 0, Fraction(0),
           2 ** 53 + 1, 10 ** 400, Fraction(2 ** 53 + 1, 3))
SCALARS = st.one_of(
    st.sampled_from(SPECIAL),
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    st.floats(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True))
TOLS = st.one_of(st.sampled_from((0, Fraction(0), 0.0, -0.0, False)), SCALARS)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the exception class is the outcome
        return type(exc)


@settings(max_examples=800, deadline=None)
@given(SCALARS, st.sampled_from(RELATIONS), SCALARS, TOLS)
def test_evaluate_matches_the_always_summing_copy(lhs, rel, rhs, tol):
    assert _outcome(evaluate, lhs, rel, rhs, tol) == \
        _outcome(old_evaluate, lhs, rel, rhs, tol)


@pytest.mark.parametrize("lhs, rel, rhs", [
    (Fraction(1, 3), "le", Fraction(1, 3)),
    (Fraction(1, 3), "abs_le", Fraction(1, 3)),
    (Fraction(-1, 3), "ge", Fraction(-1, 3)),
    (2 ** 53 + 1, "le", 2 ** 53 + 1),
    (2 ** 53, "lt", 2 ** 53 + 1)])
@pytest.mark.parametrize("tol", [0.0, -0.0])
def test_evaluate_keeps_the_rounding_of_a_float_zero_tol(lhs, rel, rhs, tol):
    """An exact rhs plus a float zero is rounded, and the rounding decides."""
    assert evaluate(lhs, rel, rhs, tol) is old_evaluate(lhs, rel, rhs, tol) \
        is False
    assert evaluate(lhs, rel, rhs, 0) is evaluate(lhs, rel, rhs, Fraction(0))\
        is True


@pytest.mark.parametrize("tol", [0, Fraction(0), 0.0, Fraction(1, 3)])
def test_evaluate_unknown_relation_raises(tol):
    with pytest.raises(MalformedCertificate, match="unknown check relation"):
        evaluate(Fraction(1), "gt", Fraction(0), tol)
