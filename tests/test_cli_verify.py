import copy
import gc
import json
import multiprocessing
import os
import random
import shlex

import pytest

from seqlab import cli
from seqlab.certificates import dumps_canonical, load_certificate
from seqlab.cli import main, worker_count
from seqlab.errors import ConfigError, MalformedCertificate
from seqlab.verify import verify_certificate
from test_acceptance import _random_linf_fixture


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def l2_fixture(tmp_path, dim=20, t=200):
    return write(tmp_path, "l2.json", {
        "space": {"kind": "lp", "p": 2}, "truncation": t,
        "generators": [{"kind": "unit", "index": j}
                       for j in range(1, dim + 1)]})


def linf_fixture(tmp_path, dim=24, t=120):
    return write(tmp_path, "linf.json", {
        "space": {"kind": "linf"}, "truncation": t,
        "generators": [{"kind": "unit", "index": j}
                       for j in range(1, dim + 1)]})


def c0_fixture(tmp_path, dim=36, t=96):
    gens = []
    for i in range(1, dim + 1):
        coords = ["0/1"] * t
        coords[i - 1] = f"1/{2 ** i}"
        gens.append({"kind": "dense", "coords": coords})
    return write(tmp_path, "c0.json", {
        "space": {"kind": "c0"}, "truncation": t, "generators": gens})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_dir(path):
    return {name: open(os.path.join(path, name), "rb").read()
            for name in sorted(os.listdir(path))}


def _die(scenario):
    """Stands in for run_scenario: the worker process ends abruptly."""
    os._exit(3)


def _pid_doc(scenario):
    """Stands in for run_scenario: a document naming the running process."""
    return {"pid": os.getpid(), "status": "pass"}, 0


def _coded_doc(scenario):
    """Stands in for run_scenario: fixture ``code<n>`` exits with n."""
    return {"status": "pass"}, int(scenario.name[-1])


class TestLineabilityCommand:
    def test_basic_run_and_verify(self, tmp_path, capsys):
        out = str(tmp_path / "lin.json")
        code, _, _ = run(capsys, "lineability", "--ratios", "1/2,1/3",
                         "--out", out)
        assert code == 0
        doc = load_certificate(out)
        assert doc["data"]["rank"] == 2
        assert doc["data"]["certified_bound"] >= 0
        assert verify_certificate(doc).ok

    def test_out_file_has_umask_default_mode(self, tmp_path, capsys):
        # a umask that leaves group and other read bits, which mkstemp's
        # 0o600 would drop
        out = tmp_path / "lin.json"
        plain = tmp_path / "plain.json"
        old_mask = os.umask(0o022)
        try:
            with open(plain, "w"):
                pass
            code, _, _ = run(capsys, "lineability", "--ratios", "1/2,1/3",
                             "--out", str(out))
        finally:
            os.umask(old_mask)
        assert code == 0
        assert os.stat(out).st_mode == os.stat(plain).st_mode
        assert os.stat(out).st_mode & 0o777 == 0o644

    def test_bad_ratio_named(self, capsys):
        code, _, err = run(capsys, "lineability", "--ratios", "3/2")
        assert code == 1
        assert "0, 1" in err or "(0, 1)" in err


class TestConstructLp:
    def test_eps_names_dominance_bound(self, tmp_path, capsys):
        code, _, err = run(capsys, "construct-lp", "--fixture",
                           l2_fixture(tmp_path), "--eps", "1/8",
                           "--depth", "3")
        assert code == 1
        assert "4/33" in err

    def test_model_limit_exit_two(self, tmp_path, capsys):
        fix = write(tmp_path, "small.json", {
            "space": {"kind": "lp", "p": 2}, "truncation": 64,
            "generators": [{"kind": "unit", "index": 1},
                           {"kind": "unit", "index": 2}]})
        code, out, _ = run(capsys, "construct-lp", "--fixture", fix,
                           "--eps", "1/600", "--depth", "5")
        assert code == 2
        doc = json.loads(out)
        assert doc["kind"] == "error"
        assert doc["error"] == "DimensionExhausted"

    def test_dominance_band_emits_dominance_cert(self, tmp_path, capsys):
        code, out, _ = run(capsys, "construct-lp", "--fixture",
                           l2_fixture(tmp_path), "--eps", "1/10",
                           "--depth", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "dominance"
        assert verify_certificate(doc).ok

    def test_round_trip_and_determinism(self, tmp_path, capsys):
        fix = l2_fixture(tmp_path)
        out1 = str(tmp_path / "a.json")
        out2 = str(tmp_path / "b.json")
        assert run(capsys, "construct-lp", "--fixture", fix, "--eps",
                   "1/600", "--depth", "4", "--out", out1)[0] == 0
        assert run(capsys, "construct-lp", "--fixture", fix, "--eps",
                   "1/600", "--depth", "4", "--out", out2)[0] == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()
        code, out, _ = run(capsys, "verify", out1)
        assert code == 0 and "all pass" in out

    def test_space_override(self, tmp_path, capsys):
        code, out, _ = run(capsys, "construct-lp", "--fixture",
                           l2_fixture(tmp_path), "--space", "lp", "--p", "3",
                           "--eps", "1/600", "--depth", "3")
        assert code == 0
        assert json.loads(out)["space"] == {"kind": "lp", "p": "3/1"}

    def test_space_override_serves_float_mode_on_a_sup_norm_fixture(
            self, tmp_path, capsys):
        """A linf fixture run as l2 is built in l2, so float mode, refused
        for linf itself, serves it."""
        fix, out_path = linf_fixture(tmp_path), str(tmp_path / "l2.json")
        code, _, err = run(capsys, "construct-lp", "--fixture", fix,
                           "--space", "lp", "--p", "2", "--eps", "1/600",
                           "--depth", "3", "--mode", "float", "--out",
                           out_path)
        assert code == 0, err
        doc = json.load(open(out_path))
        assert doc["space"] == {"kind": "lp", "p": "2/1"}
        assert doc["mode"] == "float"
        assert run(capsys, "verify", out_path)[0] == 0

    def test_jobs_multi_fixture(self, tmp_path, capsys):
        f1 = l2_fixture(tmp_path)
        f2 = write(tmp_path, "l2b.json", json.load(open(f1)))
        written = []
        for jobs in ("2", "1"):
            outdir = str(tmp_path / f"certs{jobs}")
            code, _, _ = run(capsys, "construct-lp", "--fixture", f1,
                             "--fixture", f2, "--eps", "1/600", "--depth",
                             "3", "--out", outdir, "--jobs", jobs)
            assert code == 0
            assert sorted(os.listdir(outdir)) == ["l2.json", "l2b.json"]
            written.append(read_dir(outdir))
        assert written[0] == written[1]
        assert multiprocessing.active_children() == []


class TestJobs:
    def test_fleet_in_workers_matches_in_process(self, tmp_path, capsys):
        # two test_08-style fixtures and one too small for depth 3: the
        # model limit gives exit 2 and its error document
        rng = random.Random(808)
        fixtures = [_random_linf_fixture(rng, tmp_path, idx)
                    for idx in range(2)]
        fixtures.append(write(tmp_path, "small.json", {
            "space": {"kind": "linf"}, "truncation": 40,
            "generators": [{"kind": "unit", "index": j} for j in (1, 2)]}))
        written = []
        for jobs in ("2", "1"):
            outdir = str(tmp_path / f"fleet{jobs}")
            argv = ["construct-linf", "--depth", "3", "--samples", "60",
                    "--jobs", jobs, "--out", outdir]
            for fix in fixtures:
                argv += ["--fixture", fix]
            code, _, err = run(capsys, *argv)
            assert code == 2, err
            assert multiprocessing.active_children() == []
            written.append(read_dir(outdir))
        assert written[0] == written[1]
        assert sorted(written[0]) == ["linf_0.json", "linf_1.json",
                                      "small.json"]
        error = json.loads(written[0]["small.json"])
        assert error["kind"] == "error"
        assert error["error"] == "DimensionExhausted"
        assert json.loads(written[0]["linf_0.json"])["status"] == "pass"

    def test_hard_error_names_its_fixture(self, tmp_path, capsys):
        good = linf_fixture(tmp_path)
        bad = write(tmp_path, "bad.json", {
            "space": {"kind": "linf"}, "truncation": 10,
            "generators": [{"kind": "unit", "index": 11}]})
        code, _, err = run(capsys, "construct-linf", "--fixture", bad,
                           "--depth", "3")
        assert code == 1
        assert err == "config error: unit index 11 outside [1, 10]\n"
        for jobs in ("2", "1"):
            code, _, err = run(capsys, "construct-linf", "--fixture", good,
                               "--fixture", bad, "--depth", "3",
                               "--samples", "60", "--jobs", jobs,
                               "--out", str(tmp_path / f"out{jobs}"))
            assert code == 1
            assert err == ("config error: bad: unit index 11 outside "
                           "[1, 10]\n")
            assert multiprocessing.active_children() == []

    def test_dead_worker_is_a_one_line_error(self, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.setattr(cli, "run_scenario", _die)
        fix = linf_fixture(tmp_path)
        twin = write(tmp_path, "twin.json", json.load(open(fix)))
        code, _, err = run(capsys, "construct-linf", "--fixture", fix,
                           "--fixture", twin, "--depth", "3", "--jobs", "2",
                           "--out", str(tmp_path / "out"))
        assert code == 1
        assert err.startswith("error: a worker process died")
        assert err.count("\n") == 1
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        fix = linf_fixture(tmp_path)
        code, _, err = run(capsys, "construct-linf", "--fixture", fix,
                           "--fixture", fix, "--depth", "3", "--jobs", jobs,
                           "--out", str(tmp_path / "out"))
        assert code == 1
        assert err == f"config error: --jobs must be at least 1, got {jobs}\n"
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_fixtures_sharing_a_stem_rejected(self, tmp_path, capsys, jobs):
        # a/linf.json and b/linf.json would both write out/linf.json
        argv = ["construct-linf", "--depth", "3", "--jobs", jobs,
                "--out", str(tmp_path / "out")]
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            argv += ["--fixture", linf_fixture(tmp_path / name)]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == ("config error: several fixtures have the file stem "
                       "'linf', so they would all write linf.json\n")
        assert not os.path.exists(tmp_path / "out")
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("codes,expected", [
        ("00", 0), ("20", 2), ("201", 1), ("12", 1)])
    def test_exit_code_of_several_fixtures(self, tmp_path, capsys,
                                           monkeypatch, codes, expected):
        monkeypatch.setattr(cli, "run_scenario", _coded_doc)
        argv = ["construct-linf", "--depth", "3", "--jobs", "2",
                "--out", str(tmp_path / "out")]
        for idx, code in enumerate(codes):
            argv += ["--fixture", str(tmp_path / f"f{idx}code{code}.json")]
        assert run(capsys, *argv)[0] == expected

    def test_worker_count(self):
        assert worker_count(10 ** 6, 3) == 3
        assert worker_count(2, 3) == 2
        assert worker_count(1, 3) == 1
        with pytest.raises(ConfigError):
            worker_count(0, 3)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs,fork,in_workers", [
        ("2", True, True), ("1", True, False), ("2", False, False)])
    def test_fixtures_run_in_workers_only_with_fork(self, tmp_path, capsys,
                                                    monkeypatch, jobs, fork,
                                                    in_workers):
        monkeypatch.setattr(cli, "run_scenario", _pid_doc)
        if not fork:
            monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                                lambda: ["spawn"])
        fix = linf_fixture(tmp_path)
        twin = write(tmp_path, "twin.json", json.load(open(fix)))
        outdir = str(tmp_path / "out")
        code, _, _ = run(capsys, "construct-linf", "--fixture", fix,
                         "--fixture", twin, "--depth", "3", "--jobs", jobs,
                         "--out", outdir)
        assert code == 0
        pids = {json.loads(data)["pid"] for data in read_dir(outdir).values()}
        assert (os.getpid() not in pids) == in_workers
        assert multiprocessing.active_children() == []


class TestConstructLinfAndWitness:
    def test_linf_pipeline_witness_density_round_trip(self, tmp_path, capsys):
        fix = linf_fixture(tmp_path)
        cert_path = str(tmp_path / "linf_cert.json")
        code, _, _ = run(capsys, "construct-linf", "--fixture", fix,
                         "--depth", "4", "--samples", "60",
                         "--out", cert_path)
        assert code == 0
        assert run(capsys, "verify", cert_path)[0] == 0
        wit_path = str(tmp_path / "wit.json")
        code, _, _ = run(capsys, "witness", "--cert", cert_path,
                         "--out", wit_path)
        assert code == 0
        assert run(capsys, "verify", wit_path)[0] == 0

    def test_density_c0(self, tmp_path, capsys):
        fix = c0_fixture(tmp_path)
        out = str(tmp_path / "den.json")
        code, _, _ = run(capsys, "density", "--fixture", fix, "--eps",
                         "1/20", "--depth", "4", "--seed", "3",
                         "--out", out)
        assert code == 0
        assert run(capsys, "verify", out)[0] == 0

    def test_density_lp_with_decaying_combination(self, tmp_path, capsys):
        fix = l2_fixture(tmp_path)
        coeffs = ",".join(["1"] + [f"{(-1) ** j}/{10000 * 2 ** j}"
                                   for j in range(1, 20)])
        out = str(tmp_path / "den_lp.json")
        code, _, _ = run(capsys, "density", "--fixture", fix, "--eps",
                         "1/100", "--depth", "4", "--coeffs", coeffs,
                         "--out", out)
        assert code == 0
        doc = load_certificate(out)
        assert doc["path"] == "lp"
        assert run(capsys, "verify", out)[0] == 0

    def test_density_lp_dense_combination_is_model_limit(self, tmp_path,
                                                         capsys):
        # an O(1)-dense span element exhausts the finite model's prefix
        # budget: a model-limit exit, not a crash
        fix = l2_fixture(tmp_path)
        code, out, _ = run(capsys, "density", "--fixture", fix, "--eps",
                           "1/100", "--depth", "4", "--seed", "1")
        assert code == 2
        assert json.loads(out)["kind"] == "error"

    def test_exact_mode_rejected_for_general_p(self, tmp_path, capsys):
        code, _, err = run(capsys, "construct-lp", "--fixture",
                           l2_fixture(tmp_path), "--eps", "1/600",
                           "--depth", "3", "--mode", "exact")
        assert code == 1
        assert "exact mode" in err

    @pytest.mark.parametrize("command,fixture,space", [
        ("construct-linf", linf_fixture, "linf"),
        ("density", c0_fixture, "c0")])
    def test_float_mode_rejected_for_sup_norm(self, tmp_path, capsys,
                                              command, fixture, space):
        args = ["--fixture", fixture(tmp_path), "--depth", "4"]
        if command == "density":
            args += ["--eps", "1/20"]
        code, out, err = run(capsys, command, *args, "--mode", "float")
        assert code == 1 and out == ""
        assert err == (f"config error: {space} spaces are exact only: float "
                       "generators are refused (use mode exact or auto)\n")
        assert run(capsys, command, *args, "--mode", "exact")[0] == 0


@pytest.fixture(scope="module")
def certs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("certs")
    import io
    from contextlib import redirect_stderr, redirect_stdout
    paths = {}

    def quiet(*argv):
        buf = io.StringIO()
        with redirect_stdout(buf), redirect_stderr(buf):
            code = main(list(argv))
        assert code == 0, buf.getvalue()

    lp_fix = l2_fixture(tmp_path)
    paths["lineability"] = str(tmp_path / "lin.json")
    quiet("lineability", "--ratios", "1/4,1/2", "--coeffs=-2,1",
          "--out", paths["lineability"])
    paths["zeroing"] = str(tmp_path / "lp.json")
    quiet("construct-lp", "--fixture", lp_fix, "--eps", "1/600",
          "--depth", "4", "--out", paths["zeroing"])
    linf_fix = linf_fixture(tmp_path)
    paths["sup_zeroing"] = str(tmp_path / "linf.json")
    quiet("construct-linf", "--fixture", linf_fix, "--depth", "4",
          "--samples", "60", "--out", paths["sup_zeroing"])
    paths["witness"] = str(tmp_path / "wit.json")
    quiet("witness", "--cert", paths["zeroing"], "--out", paths["witness"])
    c0_fix = c0_fixture(tmp_path)
    paths["density"] = str(tmp_path / "den.json")
    quiet("density", "--fixture", c0_fix, "--eps", "1/20", "--depth",
          "4", "--seed", "3", "--out", paths["density"])
    return paths


class TestTamperDetection:
    def _tamper(self, doc):
        doc = copy.deepcopy(doc)
        kind = doc["kind"]
        if kind == "lineability":
            doc["data"]["certified_bound"] += 3
        elif kind == "zeroing":
            s1 = doc["s"][0]
            doc["l"][1]["coords"][s1 - 1] = 0.1
        elif kind == "sup_zeroing":
            s1 = doc["s"][0]
            doc["l"][1]["coords"][s1 - 1] = "1/10"
        elif kind == "witness":
            s_bad = doc["forbidden"][0]
            doc["even_family"][0]["coords"][s_bad - 1] = "1/10"
        elif kind == "density":
            s_bad = doc["selected"][0]
            doc["result"]["coords"][s_bad - 1] = "1/10"
        return doc

    @pytest.mark.parametrize("kind", ["lineability", "zeroing",
                                      "sup_zeroing", "witness", "density"])
    def test_single_tamper_detected(self, certs, kind):
        doc = load_certificate(certs[kind])
        assert verify_certificate(doc).ok
        report = verify_certificate(self._tamper(doc))
        assert not report.ok
        if kind in ("zeroing", "sup_zeroing"):
            assert "zero_pattern" in report.first_failure()

    def test_truncated_json(self, certs, tmp_path):
        payload = open(certs["zeroing"]).read()
        bad = tmp_path / "broken.json"
        bad.write_text(payload[: len(payload) // 2])
        with pytest.raises(MalformedCertificate):
            verify_certificate(str(bad))


class TestCanonicalJson:
    def test_dumps_canonical_stable(self):
        doc = {"b": 1, "a": [1.5, "2/3"], "nested": {"y": 2, "x": 1}}
        assert dumps_canonical(doc) == dumps_canonical(copy.deepcopy(doc))
        assert dumps_canonical(doc).endswith("\n")


class TestParser:
    def test_second_verify_leaves_no_cyclic_garbage(self, certs, capsys):
        # the parser is built once; a new one per call is cyclic garbage
        # (357 objects per call), which makes peak RSS depend on when the
        # cyclic collector runs
        gc.collect()
        gc.disable()
        try:
            assert main(["verify", certs["zeroing"]]) == 0
            gc.collect()
            assert main(["verify", certs["zeroing"]]) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_consecutive_mains_do_not_share_fixture_lists(self, tmp_path,
                                                          capsys):
        fix = json.load(open(l2_fixture(tmp_path)))
        paths = [write(tmp_path, f"{name}.json", fix) for name in "abcd"]
        for pair in (paths[:2], paths[2:]):
            out = str(tmp_path / "out" / os.path.basename(pair[0]))
            argv = ["construct-lp", "--eps", "1/600", "--depth", "3",
                    "--out", out]
            for path in pair:
                argv += ["--fixture", path]
            assert run(capsys, *argv)[0] == 0
            assert sorted(os.listdir(out)) == [os.path.basename(p)
                                               for p in pair]

    @pytest.mark.parametrize("option", ["--samples", "--seed"])
    def test_witness_has_no_sampling_options(self, certs, capsys, option):
        code, _, err = run(capsys, "witness", "--cert", certs["zeroing"],
                           option, "3")
        assert code == 1 and "unrecognized arguments" in err

    @pytest.mark.parametrize("option,value", [("--net-resolution", "1/8"),
                                              ("--k-est", "2")])
    def test_linf_has_no_net_or_k_est_options(self, tmp_path, capsys,
                                              option, value):
        code, _, err = run(capsys, "construct-linf", "--fixture",
                           linf_fixture(tmp_path), "--depth", "4", option,
                           value, "--out", str(tmp_path / "linf_cert.json"))
        assert code == 1 and "unrecognized arguments" in err
        assert not os.path.exists(tmp_path / "linf_cert.json")

    def test_readme_cli_commands_parse(self):
        # every command the README's CLI block shows, continuation lines
        # joined, must parse: an option the docs keep after it is removed
        # fails here
        readme = open(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "README.md"), encoding="utf-8").read()
        block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
        block = block.split("```", 1)[0].replace("\\\n", " ")
        commands = [shlex.split(line)[1:] for line in block.splitlines()
                    if line.startswith("seqlab ")]
        assert len(commands) == 6
        for argv in commands:
            cli.build_parser().parse_args(argv)
