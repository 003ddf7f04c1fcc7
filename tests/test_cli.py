import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import drgcert
from drgcert import cli, ekr_search, graphs
from drgcert.cli import main
from drgcert.graphs import build_twisted_grassmann
from drgcert.exact import canonical_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


def strip_time(doc):
    doc = dict(doc)
    doc.pop("seconds", None)
    return doc


def test_build_johnson(tmp_path, capsys):
    code, doc = run(
        capsys, "build", "johnson", "-v", "7", "-d", "3", "--cache", str(tmp_path)
    )
    assert code == 0
    assert doc["vertices"] == 35 and doc["valency"] == 12 and doc["diameter"] == 3
    assert doc["intersection_array"] == {"b": [12, 6, 2], "c": [1, 4, 9]}
    assert doc["config"]["command"] == "build"
    cache = tmp_path / doc["cache_file"].rsplit("/", 1)[-1]
    text = cache.read_text()
    assert text.startswith("DRGCACHE 1\n")
    # second run must agree byte for byte with the cached file
    code2, doc2 = run(
        capsys, "build", "johnson", "-v", "7", "-d", "3", "--cache", str(tmp_path)
    )
    assert code2 == 0 and cache.read_text() == text


def test_interrupted_cache_write_leaves_no_file(tmp_path, capsys, monkeypatch):
    real_write_text = Path.write_text

    def fail_halfway(self, data, *args, **kwargs):
        real_write_text(self, data[: len(data) // 2], *args, **kwargs)
        raise OSError("no space left on device")

    argv = ("build", "johnson", "-v", "7", "-d", "3", "--cache", str(tmp_path))
    monkeypatch.setattr(Path, "write_text", fail_halfway)
    code, doc = run(capsys, *argv)
    assert code == 1 and doc is None
    assert list(tmp_path.iterdir()) == []
    monkeypatch.undo()
    code, doc = run(capsys, *argv)
    assert code == 0
    assert [p.name for p in tmp_path.iterdir()] == [Path(doc["cache_file"]).name]


def test_non_ascii_cache_file_differs(tmp_path, capsys):
    argv = ("build", "johnson", "-v", "5", "-d", "2", "--cache", str(tmp_path))
    code, doc = run(capsys, *argv)
    assert code == 0
    cache = Path(doc["cache_file"])
    cache.write_bytes(cache.read_bytes() + b"\xff")
    assert main(list(argv)) == 2
    assert "differs from a fresh computation" in capsys.readouterr().err


def test_non_ascii_subset_file_is_a_usage_error(tmp_path, capsys):
    subset = tmp_path / "subset.json"
    subset.write_bytes(b"[[1, 2], [1, 3]]\xff")
    code = main(["widths", "johnson", "-v", "5", "-d", "2",
                 "--subset", str(subset), "--cache", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


def test_widths_needs_a_subset(tmp_path, capsys, monkeypatch):
    # refused as a usage error before any graph is built
    def refuse(*args, **kwargs):
        raise AssertionError("widths built a graph without a subset")

    monkeypatch.setattr(cli, "_eigensystem_for", refuse)
    code = main(["widths", "johnson", "-v", "6", "-d", "3", "--cache", str(tmp_path)])
    assert (code, *capsys.readouterr()) == (1, "", "error: widths needs --subset\n")
    assert list(tmp_path.iterdir()) == []


def test_unhashable_subset_label_is_a_usage_error(tmp_path, capsys):
    subset = tmp_path / "subset.json"
    subset.write_text('[{"a": 1}]', encoding="ascii")
    code = main(["widths", "johnson", "-v", "5", "-d", "2",
                 "--subset", str(subset), "--cache", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 1 and not out
    assert err.startswith("error: ") and "is not a vertex" in err


def test_cli_import_leaves_numpy_unloaded():
    # no drgcert module imports numpy
    src = str(Path(drgcert.__file__).resolve().parents[1])
    script = "import sys, drgcert.cli; sys.exit('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], env=env, timeout=60)
    assert proc.returncode == 0


def test_build_twisted_and_grassmann(tmp_path, capsys):
    code, doc = run(capsys, "build", "twisted", "-q", "2", "-d", "2", "--cache", str(tmp_path))
    assert code == 0 and doc["vertices"] == 155 and doc["diameter"] == 2
    code, doc = run(
        capsys, "build", "grassmann", "-q", "2", "-v", "5", "-d", "2", "--cache", str(tmp_path)
    )
    assert code == 0 and doc["vertices"] == 155


def test_build_family_flag_form(tmp_path, capsys):
    code, doc = run(
        capsys, "build", "--family", "hamming", "-d", "2", "-q", "2", "--cache", str(tmp_path)
    )
    assert code == 0 and doc["vertices"] == 4


def test_eigensystem_output(tmp_path, capsys):
    code, doc = run(
        capsys, "eigensystem", "johnson", "-v", "7", "-d", "3", "--cache", str(tmp_path)
    )
    assert code == 0
    assert doc["eigenvalues"] == [12, 5, 0, -3]
    assert doc["m"] == ["1/1", "6/1", "14/1", "14/1"]
    assert doc["Q"][1] == ["1/1", "5/2", "0/1", "-7/2"]
    code2, doc2 = run(
        capsys, "eigensystem", "johnson", "-v", "7", "-d", "3", "--cache", str(tmp_path)
    )
    assert strip_time(doc) == strip_time(doc2)


def test_certify_johnson(tmp_path, capsys):
    code, doc = run(
        capsys, "certify", "johnson", "-v", "7", "-d", "3", "-t", "1", "--cache", str(tmp_path)
    )
    assert code == 0
    assert doc["feasible"] is True
    assert doc["bound"] == "15/1" and doc["table_value"] == "15/1" and doc["match"] is True
    assert doc["f"] == ["1/1", "0/1", "5/7", "2/7"]
    assert doc["hypothesis_met"] is True


def test_certify_hamming_infeasible(tmp_path, capsys):
    code, doc = run(
        capsys, "certify", "hamming", "-d", "3", "-q", "2", "-t", "1", "--cache", str(tmp_path)
    )
    assert code == 0  # reported, not raised
    assert doc["feasible"] is False
    assert doc["hypothesis_met"] is False
    assert doc["mds_route_agrees"] is True
    assert doc["f"] == ["1/1", "0/1", "1/1", "0/1"]


def test_certify_with_subset_tight(tmp_path, capsys):
    g = build_twisted_grassmann(2, 2)
    labels = [[p, [list(r) for r in rows]] for p, rows in g.vertices if p == "X2"]
    subset_file = tmp_path / "x2.json"
    subset_file.write_text(json.dumps(labels))
    code, doc = run(
        capsys,
        "certify", "twisted", "-q", "2", "-d", "2", "-t", "1",
        "--subset", str(subset_file), "--cache", str(tmp_path),
    )
    assert code == 0
    assert doc["subset_report"]["verdict"] == "tight"
    assert doc["subset_report"]["size"] == "15/1"


def _certify_subset(tmp_path, capsys, argv, labels):
    subset_file = tmp_path / "subset.json"
    subset_file.write_text(json.dumps(labels))
    code = main([*argv, "--subset", str(subset_file), "--cache", str(tmp_path)])
    out, err = capsys.readouterr()
    return code, out, err


def test_certify_subset_against_an_infeasible_certificate_exits_1(tmp_path, capsys):
    # the tail of f is (5/12, -5/12): no subset can be judged, and nothing
    # failed to verify
    code, out, err = _certify_subset(
        tmp_path, capsys, ["certify", "johnson", "-v", "10", "-d", "5", "-t", "3"],
        [[1, 2, 3, 4, 5]])
    assert (code, out) == (1, "")
    assert err.startswith("error: certificate tail is not strictly positive")


def test_certify_subset_wider_than_d_minus_t_exits_1(tmp_path, capsys):
    # two disjoint 4-sets of J(10,4) lie at distance 4 > d - t = 3
    code, out, err = _certify_subset(
        tmp_path, capsys, ["certify", "johnson", "-v", "10", "-d", "4", "-t", "1"],
        [[1, 2, 3, 4], [5, 6, 7, 8]])
    assert (code, out, err) == (1, "", "error: subset width 4 exceeds d - t = 3\n")


def test_widths_star(tmp_path, capsys):
    star = [[1, a, b] for a in range(2, 8) for b in range(a + 1, 8)]
    subset_file = tmp_path / "star.json"
    subset_file.write_text(json.dumps(star))
    code, doc = run(
        capsys,
        "widths", "johnson", "-v", "7", "-d", "3",
        "--subset", str(subset_file), "--cache", str(tmp_path),
    )
    assert code == 0
    assert doc["size"] == 15
    assert doc["width"] == 2 and doc["dual_width"] == 1 and doc["descendent"] is True
    assert doc["e"] == ["1/1", "8/1", "6/1", "0/1"]


def test_search_johnson(tmp_path, capsys):
    code, doc = run(
        capsys, "search", "johnson", "-v", "7", "-d", "3", "-t", "1", "--cache", str(tmp_path)
    )
    assert code == 0
    assert doc["optimum"] == 15 and doc["tight"] is True and doc["truncated"] is False
    assert doc["threshold"] == 2
    assert len(doc["maximizers"]) == 7
    code2, doc2 = run(
        capsys, "search", "johnson", "-v", "7", "-d", "3", "-t", "1", "--cache", str(tmp_path)
    )
    assert strip_time(doc) == strip_time(doc2)


def test_search_twisted_unique_maximizer(tmp_path, capsys):
    code, doc = run(
        capsys, "search", "twisted", "-q", "2", "-d", "2", "-t", "1", "--cache", str(tmp_path)
    )
    assert code == 0
    assert doc["optimum"] == 15 and len(doc["maximizers"]) == 1
    assert all(lab[0] == "X2" for lab in doc["maximizers"][0])


def test_verify_theorem_cli(tmp_path, capsys):
    code, doc = run(capsys, "verify-theorem", "-q", "2", "-d", "2", "-t", "1")
    assert code == 0 and doc["verdict"] == "PASS" and doc["passed"] is True

    assert main(["verify-theorem", "-q", "2", "-d", "2", "-t", "0"]) == 1
    capsys.readouterr()
    assert main(["verify-theorem", "-q", "2", "-d", "5", "-t", "2"]) == 3
    capsys.readouterr()
    assert main(["verify-theorem", "-q", "2", "-d", "3", "-t", "1"]) == 3
    capsys.readouterr()


def test_verify_theorem_q3_cli(tmp_path, capsys):
    code, doc = run(capsys, "verify-theorem", "-q", "3", "-d", "2", "-t", "1",
                    "--vertex-cap", "2000", "--cache", str(tmp_path))
    assert code == 0 and doc["verdict"] == "PASS" and doc["n"] == 1210


@pytest.mark.parametrize("q, cap, optimum, nodes", [(2, [], 15, 18),
                                                     (3, ["--vertex-cap", "2000"], 40, 45)])
def test_search_twisted_agrees_with_verify_theorem(tmp_path, capsys, monkeypatch,
                                                   q, cap, optimum, nodes):
    # both commands run one search: same optimum, nodes and maximizer sets
    results = []
    max_clique = ekr_search.max_clique

    def spy(*args, **kwargs):
        results.append(max_clique(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(ekr_search, "max_clique", spy)
    flags = ["-q", str(q), "-d", "2", "-t", "1", *cap, "--cache", str(tmp_path)]
    code, found = run(capsys, "search", "twisted", *flags)
    assert code == 0
    code, verified = run(capsys, "verify-theorem", *flags)
    assert code == 0 and verified["verdict"] == "PASS"
    for doc in (found, verified):
        assert (doc["optimum"], doc["nodes"]) == (optimum, nodes)
    assert len(found["maximizers"]) == verified["n_maximizers"]
    first, second = results
    assert first.families == second.families and first.nodes == second.nodes == nodes


def test_selftest(tmp_path, capsys):
    code, doc = run(capsys, "selftest", "--seed", "1", "--cache", str(tmp_path))
    assert code == 0
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])


def test_selftest_forms_each_clique_incidence_once(tmp_path, capsys, monkeypatch):
    # selftest builds six graphs (J(5,2), H(3,2), K5, J(5,2), H(3,2) and
    # J(7,3)), and the ball rounds of its 400 random subsets read the clique
    # incidence each graph keeps: one `_through` a graph, not one a subset
    graphs_made, formed = [], []
    real_init, real_through = graphs.Graph.__init__, graphs._through
    monkeypatch.setattr(graphs.Graph, "__init__",
                        lambda self, *a, **k: graphs_made.append(1) or real_init(self, *a, **k))
    monkeypatch.setattr(graphs, "_through", lambda *a: formed.append(1) or real_through(*a))
    code, doc = run(capsys, "selftest", "--cache", str(tmp_path))
    assert code == 0 and doc["passed"] is True
    assert len(formed) == len(graphs_made) == 6


def test_usage_errors(capsys):
    assert main([]) == 1
    capsys.readouterr()
    assert main(["build"]) == 1  # missing family
    capsys.readouterr()
    assert main(["build", "johnson", "-v", "7"]) == 1  # missing -d
    capsys.readouterr()
    assert main(["certify", "johnson", "-v", "7", "-d", "3"]) == 1  # missing -t
    capsys.readouterr()
    assert main(["build", "nonsense"]) == 1
    capsys.readouterr()


def test_tier_exit_code(tmp_path, capsys):
    code = main(
        ["build", "johnson", "-v", "7", "-d", "3", "--vertex-cap", "10", "--cache", str(tmp_path)]
    )
    assert code == 3
    capsys.readouterr()


def test_search_above_vertex_cap_exits_3_before_the_build(capsys, monkeypatch):
    # the cap is checked where vertices are made: no graph reaches the
    # distance census, and the search never starts
    def unreachable(*args, **kwargs):
        raise AssertionError("a graph above the vertex cap was built")

    monkeypatch.setattr(cli, "distance_census", unreachable)
    monkeypatch.setattr(ekr_search, "max_clique", unreachable)
    argv = ["search", "johnson", "-v", "12", "-d", "4", "-t", "1", "--vertex-cap", "100"]
    assert main(argv) == 3
    assert capsys.readouterr().err == "tier exceeded: J(12,4) has 495 vertices; cap is 100\n"


def _forbid_builds(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a graph was built")

    for family in cli.BUILDERS:
        monkeypatch.setitem(cli.BUILDERS, family, unreachable)


@pytest.mark.parametrize("argv", [
    ["johnson", "-v", "200", "-d", "8"],
    ["hamming", "-d", "12", "-q", "9"],
    ["hamming", "-d", "40", "-q", "2"],
    ["hamming", "-d", "3000000", "-q", "9"],
    ["twisted", "-q", "2", "-d", "3000"],
    ["grassmann", "-q", "2305843009213693951", "-v", "4", "-d", "2"],
])
def test_oversized_build_exits_3(tmp_path, capsys, monkeypatch, argv):
    assert main(["build", *argv, "--cache", str(tmp_path)]) == 3
    out, err = capsys.readouterr()
    assert "tier exceeded" in err
    # the closed-form array keeps the cap, with the same text and no build
    _forbid_builds(monkeypatch)
    for command, extra in (("eigensystem", []), ("certify", ["-t", "1"])):
        assert main([command, *argv, *extra, "--cache", str(tmp_path)]) == 3
        assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize("argv", [
    ["johnson", "-v", "5", "-d", "0"],
    ["johnson", "-v", "5", "-d", "5"],
    ["hamming", "-d", "3", "-q", "1"],
    ["bilinear", "-q", "2", "-d", "3", "-e", "2"],
    ["twisted", "-q", "2", "-d", "1"],
    ["grassmann", "-q", "4", "-v", "4", "-d", "2"],
    ["bilinear", "-q", "4", "-d", "1", "-e", "2"],
    ["twisted", "-q", "4", "-d", "2"],
    ["johnson", "-v", "12", "-d", "4", "--vertex-cap", "100"],
])
def test_closed_form_array_refuses_what_the_builder_refuses(tmp_path, capsys, monkeypatch,
                                                            argv):
    # eigensystem and plain certify take the array with no graph built, and
    # refuse each input with the builder's exit code and text
    def outcome(*command):
        code = main([*command, "--cache", str(tmp_path)])
        return (code, *capsys.readouterr())

    built = outcome("build", *argv)
    assert built[0] in (1, 3) and built[1] == "" and built[2]
    _forbid_builds(monkeypatch)
    assert outcome("eigensystem", *argv) == built
    assert outcome("certify", *argv, "-t", "1") == built


def test_verify_theorem_huge_q_exits_3_at_once(capsys):
    # refused by the count-free bound, before trial division of q
    start = time.perf_counter()
    assert main(["verify-theorem", "-q", "2305843009213693951", "-d", "2", "-t", "1"]) == 3
    assert time.perf_counter() - start < 1
    assert "tier exceeded" in capsys.readouterr().err


def test_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, doc = run(
        capsys,
        "certify", "johnson", "-v", "7", "-d", "3", "-t", "1",
        "--cache", str(tmp_path), "--out", str(out),
    )
    assert code == 0
    assert json.loads(out.read_text()) == doc


def test_unwritable_out_file_prints_nothing(tmp_path, capsys):
    # --out is written before the report is printed, so exit 1 leaves stdout empty
    out = tmp_path / "missing" / "report.json"
    code = main(["build", "johnson", "-v", "5", "-d", "2",
                 "--cache", str(tmp_path), "--out", str(out)])
    stdout, err = capsys.readouterr()
    assert (code, stdout) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_no_floats_in_reports(tmp_path, capsys):
    # every numeric leaf is an int, a bool, or an exact num/den string;
    # the only floats allowed are wall-time fields
    def walk(x, path=""):
        if isinstance(x, float):
            assert path.endswith("seconds"), path
        elif isinstance(x, dict):
            for k, v in x.items():
                walk(v, f"{path}.{k}")
        elif isinstance(x, list):
            for i, v in enumerate(x):
                walk(v, f"{path}[{i}]")

    for argv in (
        ["eigensystem", "hamming", "-d", "3", "-q", "3", "--cache", str(tmp_path)],
        ["certify", "hamming", "-d", "3", "-q", "3", "-t", "2", "--cache", str(tmp_path)],
        ["search", "bilinear", "-q", "2", "-d", "2", "-e", "2", "-t", "1", "--cache", str(tmp_path)],
    ):
        code, doc = run(capsys, *argv)
        assert code == 0
        walk(doc)


# sha256 of each report (`seconds` removed, re-serialised as the CLI does) and
# of each cache file, run from a fresh directory with `--cache cache`; they pin
# the report and cache bytes across changes that should not alter them
GOLDEN = [
    (("certify", "hamming", "-d", "5", "-q", "5", "-t", "2"),
     "3c286674f91c5830d022cdad5a2da6de2267183262360004ef3774b7ae82c8bc"),
    (("certify", "hamming", "-d", "3", "-q", "2", "-t", "1"),
     "d5cd080bad046745c5b55f19d91ad0d3addeeb12dc000c6816c7a332e4b526f0"),
    (("certify", "hamming", "-d", "4", "-q", "4", "-t", "2"),
     "da3c9da74bad29b81e6dea661423749b7393eccad90e199269c629726fd3c4e4"),
    (("eigensystem", "hamming", "-d", "4", "-q", "4"),
     "c0fc462a4f4849fb6c4304a5ede2fcd3220e59cd677fc6aeeafc65965172f303"),
    (("certify", "johnson", "-v", "10", "-d", "4", "-t", "1"),
     "931b499444622561c3eb8ee40c71fb6cbf03cfe714c7e1e0bb62792de8fb14d3"),
    (("verify-theorem", "-q", "2", "-d", "2", "-t", "1"),
     "ec98d4d1ef979525c76ae7c3c98ee162b08b6c85ed11267d66bfb6b9654cccfd"),
    # the subset files are named by relative path, as `config.subset` is in
    # the report; star.json is 60 of the 84 sets of the star of 1
    (("widths", "johnson", "-v", "10", "-d", "4", "--subset", "star.json"),
     "4897aaee28627e078d8da0c8ae1c51714e90b9a94ebe7f670c6eb47aef074e89"),
    (("certify", "johnson", "-v", "10", "-d", "4", "-t", "1", "--subset", "star.json"),
     "44d724164f0894a1355b5b32fa083038afc20f0613b0c08a10841c0689ff9b3d"),  # strict
    (("certify", "twisted", "-q", "2", "-d", "2", "-t", "1", "--subset", "x2.json"),
     "577fe483c64b94bd0299fd0b65243514e9c1ee06614507abcca5a4cfaa19339f"),  # tight
    (("search", "hamming", "-d", "5", "-q", "3", "-t", "2"),
     "79f218e1412119288822921c4a0b76c923f2da5819c5ee271ba9d119ea783efa"),  # bound null
    (("search", "johnson", "-v", "10", "-d", "5", "-t", "3"),
     "824c016b04af2e173f96092da285bbf6aee214587a18f124f6dd1d5dbc5badd6"),  # bound null
    (("selftest",),
     "991b5c766cf843d7a4407f9fc8aeee13d8b4b8b901ab5cc435addd68afae047a"),
]
GOLDEN_CACHE = {
    "hamming-6e47d5805e35a24f.eig.json":
        "deddfcc868a4837b68daa00cecb1254a5be42c5d75a76ed262e8a8b450ca62ff",
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_reports_and_caches_are_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    star = [[1, *c] for c in itertools.combinations(range(2, 11), 3)][:60]
    Path("star.json").write_text(json.dumps(star))
    (fam,) = ekr_search.enumerate_descendent_families(2, 2, 1)
    Path("x2.json").write_text(json.dumps(fam.labels()))
    for argv, digest in GOLDEN:
        code, doc = run(capsys, *argv, "--cache", "cache")
        assert code == 0
        text = json.dumps(strip_time(doc), sort_keys=True, separators=(",", ":"))
        assert _sha(text) == digest, argv
    cache = {p.name: _sha(p.read_text()) for p in (tmp_path / "cache").iterdir()}
    assert cache == GOLDEN_CACHE


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_enumeration_cap_below_one_is_a_usage_error(tmp_path, capsys, cap):
    code = main(["search", "johnson", "-v", "7", "-d", "3", "-t", "2",
                 "--enum-cap", cap, "--cache", str(tmp_path)])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == f"error: need enum_cap >= 1, got {cap}\n"


@pytest.mark.parametrize("argv", [
    ["verify-theorem", "-q", "5", "-d", "2", "-t", "1", "--vertex-cap", "25000"],
    ["search", "twisted", "-q", "2", "-d", "3", "-t", "2", "--vertex-cap", "20000"],
])
def test_enumeration_cap_below_one_is_refused_before_any_build(tmp_path, capsys, monkeypatch,
                                                               argv):
    def unreachable(*args, **kwargs):
        raise AssertionError("a graph was built")

    for family in cli.BUILDERS:
        monkeypatch.setitem(cli.BUILDERS, family, unreachable)
    monkeypatch.setattr(ekr_search, "build_twisted_grassmann", unreachable)
    code = main([*argv, "--enum-cap", "0", "--cache", str(tmp_path)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", "error: need enum_cap >= 1, got 0\n")


def test_enumeration_cap_below_the_descendent_families_is_a_tier_limit(tmp_path, capsys,
                                                                      monkeypatch):
    # twisted(2,3) has 63 descendent families at t = 2: a maximizer list cut
    # at 62 cannot be compared with them, so the run is refused as a tier
    # limit (exit 3) before the 11,811-vertex build, not judged a failed
    # theorem (exit 2)
    def unreachable(*args, **kwargs):
        raise AssertionError("a graph was built")

    for family in cli.BUILDERS:
        monkeypatch.setitem(cli.BUILDERS, family, unreachable)
    monkeypatch.setattr(ekr_search, "build_twisted_grassmann", unreachable)
    code = main(["verify-theorem", "-q", "2", "-d", "3", "-t", "2", "--vertex-cap", "20000",
                 "--enum-cap", "62", "--cache", str(tmp_path)])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err == "tier exceeded: twisted(2,3) at t=2 has 63 descendent families; cap is 62\n"


@pytest.mark.parametrize("argv,t,d", [
    (["certify", "twisted", "-q", "2", "-d", "3"], 3, 3),
    (["search", "twisted", "-q", "2", "-d", "3"], 0, 3),
    (["certify", "twisted", "-q", "5", "-d", "2"], 2, 2),
    (["search", "johnson", "-v", "10", "-d", "7"], 3, 3),
])
def test_threshold_outside_the_diameter_is_refused_before_any_build(tmp_path, capsys,
                                                                    monkeypatch, argv, t, d):
    # the twisted builds take seconds before the eigensystem refused t; J(10,7)
    # is built as J(10,3), so its t is checked against d = 3
    def unreachable(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(cli, "_build", unreachable)
    code = main([*argv, "-t", str(t), "--vertex-cap", "25000", "--cache", str(tmp_path)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", f"error: need 0 < t < d, got t={t}, d={d}\n")


def test_threshold_is_checked_against_the_built_diameter(tmp_path, capsys):
    # J(10,7) is J(10,3), where t = 2 runs; parameters with no diameter of at
    # least 1 keep the builder's own refusal
    code, doc = run(capsys, "search", "johnson", "-v", "10", "-d", "7", "-t", "2",
                    "--cache", str(tmp_path))
    assert (code, doc["threshold"], doc["optimum"]) == (0, 1, 8)
    code = main(["certify", "johnson", "-v", "5", "-d", "0", "-t", "1", "--cache", str(tmp_path)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", "error: J(5,0) needs 0 < d <= v\n")


@pytest.mark.parametrize("argv,message", [
    (["certify", "bilinear", "-q", "2", "-d", "3", "-e", "2"], "Bil_q(3,2) needs 1 <= d <= e"),
    (["search", "hamming", "-d", "3", "-q", "1"], "H(3,1) needs d >= 1 and q >= 2"),
])
def test_family_refusals_come_before_the_threshold_check(tmp_path, capsys, argv, message):
    # t = 3 is outside 0 < t < 3 too, but the parameters are refused first,
    # in the builder's own words
    code = main([*argv, "-t", "3", "--cache", str(tmp_path)])
    assert (code, *capsys.readouterr()) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["build", "johnson", "-v", "5", "-d", "2"],
    ["search", "johnson", "-v", "5", "-d", "2", "-t", "1"],
    ["verify-theorem", "-q", "2", "-d", "2", "-t", "1"],
    ["selftest"],
])
def test_vertex_cap_below_one_is_a_usage_error(tmp_path, capsys, monkeypatch, argv, cap):
    # refused before any build, where a graph's size is first compared with
    # the cap: exit 1, not the tier exit 3
    def unreachable(*args, **kwargs):
        raise AssertionError("a graph was built")

    for family in cli.BUILDERS:
        monkeypatch.setitem(cli.BUILDERS, family, unreachable)
    monkeypatch.setattr(ekr_search, "build_twisted_grassmann", unreachable)
    code = main([*argv, "--vertex-cap", cap, "--cache", str(tmp_path)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", f"error: need vertex_cap >= 1, got {cap}\n")


@pytest.mark.parametrize("argv", [
    ["certify", "twisted", "-q", "2", "-d", "3", "-t", "2"],
    ["widths", "twisted", "-q", "2", "-d", "3"],
])
@pytest.mark.parametrize("content,message", [
    (None, "No such file"),
    ('["X2", "\u00e9"]'.encode(), "not an ASCII file"),
    (b'[["X2", [[1, 0, 0, 0, 0]]]', "not valid JSON"),
    (b"[]", "expected a nonempty JSON list of labels"),
    (b'{"X2": [[1, 0, 0, 0, 0]]}', "expected a nonempty JSON list of labels"),
])
def test_subset_file_is_refused_before_any_build(tmp_path, capsys, monkeypatch, argv, content,
                                                 message):
    # the 11,811-vertex build would take most of a second before the file
    # was opened
    def unreachable(*args, **kwargs):
        raise AssertionError("a graph was built")

    for family in cli.BUILDERS:
        monkeypatch.setitem(cli.BUILDERS, family, unreachable)
    path = tmp_path / "subset.json"
    if content is not None:
        path.write_bytes(content)
    code = main([*argv, "--subset", str(path), "--vertex-cap", "20000",
                 "--cache", str(tmp_path / "cache")])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and message in err


def test_every_command_takes_one_source_per_orbit(tmp_path, capsys, monkeypatch):
    # the distance-regularity check and the threshold graphs read the rows
    # of the orbit representatives alone, and a subset's histogram reads no
    # census: no command takes one from every vertex
    class EverySource(Exception):
        pass

    real = graphs.distance_census
    seen = []

    def sources_only(G, sources=None):
        if sources is None:
            raise EverySource(G.family)
        seen.append(len(sources))
        return real(G, sources)

    for module in (graphs, cli, ekr_search):
        monkeypatch.setattr(module, "distance_census", sources_only)
    subset = tmp_path / "subset.json"
    subset.write_text("[[1, 2, 3]]")
    cache = ["--cache", str(tmp_path / "cache")]
    for argv in (
        ["build", "twisted", "-q", "2", "-d", "2"],
        ["eigensystem", "johnson", "-v", "7", "-d", "3"],
        ["certify", "hamming", "-d", "4", "-q", "3", "-t", "2"],
        ["search", "johnson", "-v", "7", "-d", "3", "-t", "1"],
        ["verify-theorem", "-q", "2", "-d", "2", "-t", "1"],
        ["widths", "johnson", "-v", "7", "-d", "3", "--subset", str(subset)],
        ["certify", "johnson", "-v", "7", "-d", "3", "-t", "1", "--subset", str(subset)],
        ["selftest"],
    ):
        assert main([*argv, *cache]) == 0, argv
        capsys.readouterr()
    # plain eigensystem and certify build no graph and take no census;
    # selftest builds J(5,2), H(3,2), K5, J(5,2), H(3,2) and J(7,3)
    assert seen == [2, 1, 2, 1, 1] + [1] * 6


@pytest.mark.parametrize("argv", [
    ["certify", "johnson", "-v", "5", "-d", "2", "-t", "1", "--subset", ""],
    ["widths", "johnson", "-v", "5", "-d", "2", "--subset", ""],
    ["build", "johnson", "-v", "5", "-d", "2", "--out", ""],
])
def test_an_empty_path_is_refused(tmp_path, capsys, argv):
    # an empty path names no file, so the subset check or the --out copy is
    # not silently dropped: exit 1 with stdout empty
    code = main([*argv, "--cache", str(tmp_path)])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_conflicting_family_flags_are_a_usage_error(tmp_path, capsys):
    code = main(["build", "johnson", "--family", "hamming", "-d", "2", "-q", "2", "-v", "5",
                 "--cache", str(tmp_path)])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == "error: family 'johnson' conflicts with --family 'hamming'\n"
    assert not any(tmp_path.iterdir())
    code, doc = run(capsys, "build", "hamming", "--family", "hamming", "-d", "2", "-q", "2",
                    "--cache", str(tmp_path))
    assert code == 0 and doc["vertices"] == 4


def test_shared_parser_gives_fresh_process_reports(tmp_path, capsys, monkeypatch):
    # main() reuses one parser per process; a sequence of calls in one
    # process, with a usage error between two good ones, prints the same
    # reports as each call run alone in a new interpreter
    from drgcert.cli import build_parser

    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    shared.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(shared)
    build_parser.cache_clear()
    calls = [
        ("eigensystem", "hamming", "-d", "3", "-q", "3"),
        ("certify", "johnson", "-v", "7", "-d", "3"),  # missing -t
        ("certify", "johnson", "-v", "7", "-d", "3", "-t", "1"),
        ("build", "--family", "hamming", "-d", "2", "-q", "2"),
        ("selftest", "--seed", "4"),
        # selftest alone takes --seed
        ("certify", "johnson", "-v", "7", "-d", "3", "-t", "1", "--seed", "4"),
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(drgcert.__file__).resolve().parents[1])}
    codes = []
    for argv in calls:
        argv = (*argv, "--cache", "cache")
        code = main(list(argv))
        out, err = capsys.readouterr()
        alone = subprocess.run([sys.executable, "-m", "drgcert.cli", *argv], cwd=fresh,
                               env=env, capture_output=True, text=True, timeout=120)
        assert (code, err) == (alone.returncode, alone.stderr), argv
        codes.append(code)
        if code:
            assert not out and not alone.stdout
        else:
            assert strip_time(json.loads(out)) == strip_time(json.loads(alone.stdout)), argv
    assert codes == [0, 1, 0, 0, 0, 1]
    assert build_parser.cache_info().misses == 1


@pytest.mark.parametrize("argv", [
    ["build", "johnson", "-v", "7", "-d", "3"],
    ["search", "johnson", "-v", "7", "-d", "3", "-t", "1"],
    ["widths", "johnson", "-v", "7", "-d", "3", "--subset", "SUBSET"],
    ["certify", "johnson", "-v", "7", "-d", "3", "-t", "1", "--subset", "SUBSET"],
])
def test_graph_route_checks_its_bfs_array_against_the_closed_form(tmp_path, capsys,
                                                                  monkeypatch, argv):
    # a closed-form array that is not the built graph's is a verification
    # failure naming both arrays, not an eigensystem of the wrong graph
    subset = tmp_path / "subset.json"
    subset.write_text("[[1, 2, 3]]")
    argv = [str(subset) if a == "SUBSET" else a for a in argv]
    real = cli.family_array
    _, other = real("hamming", {"d": 3, "q": 2})
    monkeypatch.setattr(cli, "family_array", lambda *a: (real(*a)[0], other))
    code = main([*argv, "--cache", str(tmp_path / "cache")])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("verification failure: ") and err.count("\n") == 1
    assert "{(12, 6, 2); (1, 4, 9)}" in err and "{(3, 2, 1); (1, 2, 3)}" in err
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("argv", [
    ("hamming", "-d", "5", "-q", "3", "-t", "2"),
    ("johnson", "-v", "10", "-d", "5", "-t", "3"),
    ("twisted", "-q", "2", "-d", "2", "-t", "1"),  # labels with str tags
    ("bilinear", "-q", "2", "-d", "2", "-e", "4", "-t", "1"),  # matrix labels
    ("johnson", "-v", "8", "-d", "4", "-t", "1", "--enum-cap", "7"),  # truncated
])
def test_search_prints_the_bytes_of_the_report_encoded_whole(tmp_path, capsys, monkeypatch,
                                                              argv):
    # the maximizer list is joined from each label's own text; the printed
    # line, and the --out file, must be canonical_json of the report with
    # the maximizers as lists of labels.  GOLDEN re-serialises the parsed
    # report, so it cannot see these bytes.
    runs = []
    real = ekr_search.search

    def spy(G, census, sys_, t, enum_cap):
        runs.append((G, census, real(G, census, sys_, t, enum_cap)))
        return runs[-1][2]

    monkeypatch.setattr(ekr_search, "search", spy)
    out = tmp_path / "report.json"
    full = ["search", *argv, "--cache", str(tmp_path / "cache"), "--out", str(out)]
    assert main(full) == 0
    line = capsys.readouterr().out
    ((G, census, (cert, _, result)),) = runs
    args = cli.build_parser().parse_args(full)
    family = argv[0]
    report = {
        "graph": {"family": family, "params": G.params},
        "t": args.t,
        "threshold": census.diameter - args.t,
        "optimum": result.optimum,
        "bound": cert.bound if cert.feasible else None,
        "tight": cert.feasible and cert.bound == result.optimum,
        "maximizers": [[G.vertices[i] for i in fam] for fam in result.families],
        "truncated": result.truncated,
        "nodes": result.nodes,
        "seconds": json.loads(line)["seconds"],
        "config": cli._config(args, family, G.params),
    }
    text = canonical_json(report)
    assert line == text + "\n"
    assert out.read_text(encoding="ascii") == text + "\n"


def test_search_encodes_each_vertex_label_once(tmp_path, capsys, monkeypatch):
    # H(5,3) at t=2: 13,365 label occurrences in the maxima, over all 243
    # vertices, each encoded once
    labels = []
    real = cli.canonical_json

    def counting(doc):
        if isinstance(doc, tuple):
            labels.append(doc)
        return real(doc)

    monkeypatch.setattr(cli, "canonical_json", counting)
    code, doc = run(capsys, "search", "hamming", "-d", "5", "-q", "3", "-t", "2",
                    "--cache", str(tmp_path))
    assert code == 0
    assert sum(map(len, doc["maximizers"])) == 13365
    assert len(labels) == 243
    assert set(labels) == set(graphs.build_hamming(5, 3).vertices)
