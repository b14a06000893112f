"""File formats, canonical JSON reports, and the command-line surface."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import fig1_k4
from shadowlab import cli
from shadowlab.errors import ValidationError
from shadowlab.formats import (
    distribution_from_obj,
    distribution_to_obj,
    dumps_canonical,
    hypergraph_from_obj,
    hypergraph_from_text,
    hypergraph_to_obj,
    hypergraph_to_text,
    set_family_from_obj,
    set_family_to_obj,
    subspace_family_from_obj,
    subspace_family_to_obj,
)
from shadowlab.hypergraph import SetFamily
from shadowlab.qlinalg import enumerate_subspaces
from shadowlab.reports import upper_report


class TestHypergraphJson:
    def test_roundtrip(self):
        h = fig1_k4()
        assert hypergraph_from_obj(hypergraph_to_obj(h)) == h

    def test_weights_roundtrip(self):
        obj = {"vertices": 3, "edges": [{"v": [0, 1], "color": "plain", "weight": 4}]}
        h = hypergraph_from_obj(obj)
        assert h.edges[0].weight == 4
        assert hypergraph_to_obj(h) == obj

    def test_unknown_field_rejected(self):
        with pytest.raises(ValidationError):
            hypergraph_from_obj({"vertices": 2, "edges": [], "extra": 1})

    def test_missing_field_rejected(self):
        with pytest.raises(ValidationError):
            hypergraph_from_obj({"vertices": 2})

    def test_non_integer_vertex_rejected(self):
        with pytest.raises(ValidationError):
            hypergraph_from_obj({"vertices": 2, "edges": [{"v": [0.5], "color": "x"}]})


class TestHypergraphText:
    def test_roundtrip(self):
        h = fig1_k4()
        assert hypergraph_from_text(hypergraph_to_text(h)) == h

    def test_comments_and_header(self):
        text = """
        # a triangle
        vertices 5
        red 0 1
        green 1 2   # trailing comment
        blue 0 2
        """
        h = hypergraph_from_text(text)
        assert h.n == 5
        assert len(h.edges) == 3

    def test_vertex_count_inferred(self):
        h = hypergraph_from_text("red 0 7\n")
        assert h.n == 8

    def test_bad_line_rejected(self):
        with pytest.raises(ValidationError):
            hypergraph_from_text("red\n")


class TestFamilyJson:
    def test_set_family_roundtrip(self):
        fam = SetFamily.make(5, [(0, 1, 2), (1, 2, 4)])
        assert set_family_from_obj(set_family_to_obj(fam)) == fam

    def test_subspace_family_roundtrip(self):
        fam = enumerate_subspaces(2, 3, 2)
        assert subspace_family_from_obj(subspace_family_to_obj(fam)) == fam

    def test_distribution_roundtrip(self):
        obj = {
            "arity": 2,
            "support": [
                {"values": [0, 1], "p": "1/3"},
                {"values": [1, 0], "p": "2/3"},
            ],
        }
        dist = distribution_from_obj(obj)
        assert distribution_to_obj(dist) == obj


class TestCanonicalJson:
    def test_byte_identical_roundtrip(self):
        report, status = cli.run(["search", "rainbow-triangle", "--max-vertices", "3"])
        text = dumps_canonical(report)
        assert json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) == text

    def test_big_integers_as_strings(self):
        text = dumps_canonical({"value": 2**80})
        assert str(2**80) in text

    def test_float_formatting(self):
        assert dumps_canonical({"x": 2.0}) == '{"x":"2"}'
        assert dumps_canonical({"x": 1 / 3}) == '{"x":"0.333333333333"}'

    def test_bound_beyond_float_range(self):
        rep = upper_report("x", 10**400, Fraction(2 * 10**400), "s")
        assert rep.satisfied
        assert dumps_canonical({"bound": rep.bound, "ratio": rep.ratio}) == '{"bound":"inf","ratio":"0.5"}'


class TestCli:
    def run_ok(self, argv):
        report, status = cli.run(argv)
        assert status == 0
        return report

    def test_construct_then_kappa(self, tmp_path):
        out = str(tmp_path / "g.json")
        self.run_ok(["construct", "k4-blowup", "--n", "2", "--out", out])
        report = self.run_ok(["kappa", "--input", out, "--d", "3"])
        assert report["quantities"]["ratio"].numerator == 2
        assert all(b["satisfied"] for b in report["bounds"])

    def test_kk_command(self, tmp_path):
        fam = str(tmp_path / "fam.json")
        with open(fam, "w") as fh:
            json.dump({"n": 4, "d": 3, "sets": [[0, 1, 2], [0, 1, 3]]}, fh)
        report = self.run_ok(["kk", "--family", fam])
        assert report["quantities"]["shadow_size"] == 5
        assert report["quantities"]["t"] == pytest.approx(3.434841368, abs=1e-6)

    def test_key_tight_family_prints_zero(self, tmp_path):
        fam = str(tmp_path / "fam.json")
        with open(fam, "w") as fh:
            json.dump({"n": 9, "d": 5, "sets": [list(s) for s in combinations(range(9), 5)]}, fh)
        report = self.run_ok(["entropy", "--key", "--family", fam, "--json"])
        assert min(report["quantities"]["gaps"]) == 0.0
        # the largest violation, when the smallest gap is exactly 0, is +0, not -0
        assert '"computed":"0"' in dumps_canonical(report)

    def test_good6_probe_on_23_vertices_answers(self):
        # a random 4-graph with about 4,400 edges: its good 6-sets come from edge links, not from ~10^7 edge pairs
        report = self.run_ok(["search", "probe", "--problem", "good6", "--vertices", "23", "--trials", "1"])
        assert report["quantities"]["explored"] == 1

    def test_search_json_deterministic(self):
        a, _ = cli.run(["search", "probe", "--problem", "rainbow_d", "--vertices", "6",
                        "--trials", "50", "--seed", "9", "--json"])
        b, _ = cli.run(["search", "probe", "--problem", "rainbow_d", "--vertices", "6",
                        "--trials", "50", "--seed", "9", "--json"])
        assert dumps_canonical(a) == dumps_canonical(b)

    def test_validate_command(self, tmp_path):
        good = str(tmp_path / "good.json")
        with open(good, "w") as fh:
            json.dump({"vertices": 3, "edges": [{"v": [0, 1], "color": "red"}]}, fh)
        report = self.run_ok(["validate", "--input", good])
        assert report["quantities"]["valid"] is True

    def test_invalid_input_exit_code(self, tmp_path, capsys):
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as fh:
            json.dump({"vertices": 1, "edges": [{"v": [0, 5], "color": "red"}]}, fh)
        assert cli.main(["validate", "--input", bad]) == 3

    def test_capacity_exit_code(self):
        assert cli.main(["search", "rainbow-triangle", "--max-vertices", "9"]) == 4

    def test_usage_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bogus-command"])
        assert exc.value.code == 2

    def test_weighted_spectral(self, tmp_path):
        g = str(tmp_path / "w.json")
        with open(g, "w") as fh:
            json.dump(
                {
                    "vertices": 4,
                    "edges": [
                        {"v": [a, b], "color": "plain", "weight": 1}
                        for a in range(4)
                        for b in range(a + 1, 4)
                    ],
                },
                fh,
            )
        report = self.run_ok(["weighted", "--input", g, "--d", "3", "--spectral"])
        assert report["quantities"]["sum"] == pytest.approx(4.0)
        assert report["quantities"]["trace_m2"] == pytest.approx(12.0)

    def test_weighted_spectral_large_weights(self, tmp_path, capsys):
        # K12 with weights near 10^15: an absolute 10^-6 slack on the trace identities called this a violation
        g = tmp_path / "w.json"
        g.write_text(json.dumps({"vertices": 12, "edges": [
            {"v": [i, j], "color": "plain", "weight": 10**15 + 7 * i + j}
            for i, j in combinations(range(12), 2)
        ]}))
        assert cli.main(["weighted", "--input", str(g), "--spectral"]) == 0
        assert "VIOLATED" not in capsys.readouterr().out

    def test_partial_shadow_command(self, tmp_path):
        g = str(tmp_path / "star.txt")
        with open(g, "w") as fh:
            fh.write("plain 0 1\nplain 0 2\nplain 0 3\n")
        report = self.run_ok(["partial-shadow", "--input", g, "--r", "3", "--k", "1"])
        assert report["quantities"]["m"] == 3
        assert report["bounds"][0]["satisfied"]

    def test_count_covering(self, tmp_path):
        g = str(tmp_path / "c.txt")
        with open(g, "w") as fh:
            fh.write("red 0 1 2\ngreen 0 1 3\nblue 0 2 3\n")
        report = self.run_ok(["count", "covering", "--input", g, "--delta", "1"])
        assert report["quantities"]["J"] == 1
        assert any(b["conjecture"] for b in report["bounds"])

    def test_forbidding_qlinear_gkk(self, tmp_path):
        subs = str(tmp_path / "subs.json")
        fam = enumerate_subspaces(2, 4, 2)
        with open(subs, "w") as fh:
            json.dump(subspace_family_to_obj(fam), fh)
        report = self.run_ok(
            ["forbidding", "gkk", "--system", "qlinear:2,4", "--d", "2", "--subspaces", subs]
        )
        assert report["quantities"]["family_size"] == 210
        assert report["quantities"]["shadow_size"] == 15

    def test_forbidding_caps_exit_code(self, tmp_path, capsys):
        everything = ",".join(str(i) for i in range(30))
        assert cli.main(["forbidding", "sd", "--system", "repeats", "--universe-size", "30",
                         "--d", "6", "--set", everything]) == 4
        fam = str(tmp_path / "one.json")
        with open(fam, "w") as fh:
            json.dump({"n": 30, "d": 30, "sets": [list(range(30))]}, fh)
        assert cli.main(["forbidding", "gkk", "--system", "repeats", "--universe-size", "30",
                         "--d", "6", "--family", fam]) == 4

    def test_forbidding_desk_scale_within_caps(self, tmp_path):
        # 924 sets: the walk's lookups repeat across sets and hit the shared memo
        fam = str(tmp_path / "sixes.json")
        with open(fam, "w") as fh:
            json.dump({"n": 12, "d": 6, "sets": [list(s) for s in combinations(range(12), 6)]}, fh)
        report = self.run_ok(["forbidding", "gkk", "--system", "repeats", "--universe-size", "12",
                              "--d", "6", "--family", fam])
        assert report["quantities"]["family_size"] == 924 * 720
        # counted from 38,760 good 6-multisets, not built as tuples
        report = self.run_ok(["forbidding", "sd", "--system", "repeats", "--universe-size", "40",
                              "--d", "6", "--set", ",".join(str(i) for i in range(20))])
        assert report["quantities"]["tuples"] == 20 * 19 * 18 * 17 * 16 * 15
        # decided by the walk's level counts; no outside element is classified
        report = self.run_ok(["forbidding", "compatible", "--system", "repeats",
                              "--universe-size", "65536", "--d", "2", "--set", "0,1,2,3,4,5,6,7"])
        assert report["quantities"]["compatible"] is True

    def test_forbidding_verify_spot_check_cap(self, capsys):
        # C(65538, 2) - 1 multisets are too many to classify, and a spot-check of 2000 trials
        # x 65,536 elements too many lookups; each trial classifies every extension of its multiset
        assert cli.main(["forbidding", "verify", "--system", "repeats", "--universe-size", "65536",
                         "--d", "2"]) == 4
        assert "spot-check lookups" in capsys.readouterr().err
        # 100 elements at d = 60: 2000 x 100 memoized multisets of up to 60 elements each
        assert cli.main(["forbidding", "verify", "--system", "repeats", "--universe-size", "100",
                         "--d", "60"]) == 4
        assert "spot-check memo elements" in capsys.readouterr().err
        # one element at d = 8000: no good multiset has more than one element, so S^(d) is empty
        assert cli.main(["forbidding", "verify", "--system", "repeats", "--universe-size", "1",
                         "--d", "8000"]) == 4
        assert "depth d (largest good multiset + 1) = 8000 exceeds cap 2" in capsys.readouterr().err
        # C(244, 2) - 1 = 29,645 multisets of size 1..2 over 242 vectors: classified exhaustively
        report = self.run_ok(["forbidding", "verify", "--system", "qlinear:3,5", "--d", "2"])
        assert report["quantities"]["ok"] is True
        assert report["quantities"]["exhaustive"] is True

    @pytest.mark.parametrize("system", [["repeats", "--universe-size", "3"], ["qlinear:2,3"]])
    @pytest.mark.parametrize("action", ["verify", "gkk"])
    def test_forbidding_depth_past_largest_good_multiset_refused(self, capsys, system, action):
        # d = 10^8 once built a 10^8-entry c-vector (MemoryError) or q^k - 1 for every k < d (no answer in 20 s)
        start = time.perf_counter()
        assert cli.main(["forbidding", action, "--system", *system, "--d", "100000000"]) == 4
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("capacity error: depth d") and "Traceback" not in err

    def test_forbidding_compatible_large_universe(self, capsys):
        # 91,390 good 4-multisets of the set, and none of the 65,496 elements outside is classified
        assert cli.main(["forbidding", "compatible", "--system", "repeats", "--universe-size", "65536",
                         "--d", "4", "--set", ",".join(str(i) for i in range(40))]) == 0
        assert "compatible = True" in capsys.readouterr().out

    def test_malformed_integer_lists_exit_3(self, tmp_path, capsys):
        dist = str(tmp_path / "dist.json")
        with open(dist, "w") as fh:
            json.dump({"arity": 2, "support": [{"values": [0, 1], "p": "1"}]}, fh)
        for argv in (["forbidding", "compatible", "--system", "repeats", "--universe-size", "5",
                      "--d", "2", "--set", "a"],
                     ["entropy", "--dist", dist, "--coords", "0,x"],
                     ["entropy", "--dist", dist, "--shearer", "0;1,y"]):
            assert cli.main(argv) == 3
            assert "expected comma-separated integers" in capsys.readouterr().err

    @pytest.mark.parametrize("command, name, content", [
        (["validate", "--input"], "header.txt", "vertices abc\nred 0 1\n"),
        (["validate", "--input"], "edges.json", {"vertices": 3, "edges": 5}),
        (["validate", "--input"], "vertices.json", {"vertices": 3, "edges": [{"v": 7, "color": "red"}]}),
        (["kk", "--family"], "sets.json", {"n": 4, "d": 2, "sets": [1, 2]}),
        (["entropy", "--dist"], "support.json", {"arity": 1, "support": 5}),
        (["entropy", "--dist"], "values.json", {"arity": 1, "support": [{"values": 3, "p": "1"}]}),
        (["qkk", "--family"], "members.json", {"q": 2, "n": 2, "d": 1, "members": [5]}),
        (["qkk", "--family"], "letter.json", {"q": 2, "n": 2, "d": 1, "members": [[["a", 0]]]}),
        (["qkk", "--family"], "float.json", {"q": 2, "n": 2, "d": 1, "members": [[[1.7, 0]]]}),
        (["qkk", "--family"], "bool.json", {"q": 2, "n": 2, "d": 1, "members": [[[True, 0]]]}),
    ])
    def test_malformed_file_exits_3(self, tmp_path, capsys, command, name, content):
        path = tmp_path / name
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        assert cli.main([*command, str(path)]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_json_flag_read_from_parsed_arguments(self, tmp_path, capsys):
        # argparse accepts the unambiguous prefix --js for --json
        fam = str(tmp_path / "fam.json")
        with open(fam, "w") as fh:
            json.dump({"n": 4, "d": 3, "sets": [[0, 1, 2], [0, 1, 3]]}, fh)
        assert cli.main(["kk", "--family", fam, "--js"]) == 0
        assert json.loads(capsys.readouterr().out)["quantities"]["shadow_size"] == "5"

    def test_kk_target_beyond_float_range(self, tmp_path):
        # one 180-set: binom(t, 180) = 1 puts 180! into the inversion
        fam = str(tmp_path / "big.json")
        with open(fam, "w") as fh:
            json.dump({"n": 200, "d": 180, "sets": [list(range(180))]}, fh)
        report = self.run_ok(["kk", "--family", fam, "--json"])
        assert report["quantities"]["shadow_size"] == 180
        assert report["quantities"]["t"] == pytest.approx(180.0, abs=1e-6)
        assert report["bounds"][0]["satisfied"]

    def test_kappa_bound_beyond_float_range(self, tmp_path, capsys):
        # d = 40 puts the shearer bound (39!)^40 past the float range
        g = str(tmp_path / "g.json")
        with open(g, "w") as fh:
            json.dump({"vertices": 64, "edges": [
                {"v": sorted((i + j) % 64 for j in range(39)), "color": f"c{i}"} for i in range(40)
            ]}, fh)
        assert cli.main(["kappa", "--input", g, "--d", "40", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        shearer = report["bounds"][0]
        assert shearer["source"].startswith("shearer")
        assert (shearer["bound"], shearer["ratio"], shearer["satisfied"]) == ("inf", "0", True)

    def test_import_leaves_numpy_out(self):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = "import sys, shadowlab.cli; print('numpy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_import_set(self):
        # Every layer loads with the cli: the benchmark's trace launcher wraps each layer
        # it finds in sys.modules after `import shadowlab.cli`, so none of them is lazy.
        # The records build without `dataclasses`, which alone pulls in inspect, ast and dis.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        layers = ("cli", "formats", "hypergraph", "entropy", "qlinalg", "forbidding", "numkit", "reports",
                  "search", "constructions")
        code = "import json, sys, shadowlab.cli; print(json.dumps(list(sys.modules)))"
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True)
        loaded = set(json.loads(out.stdout))
        assert not {"dataclasses", "inspect", "ast", "dis"} & loaded
        assert {f"shadowlab.{m}" for m in layers} <= loaded

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_stdout_exits_quietly(self, tmp_path, unbuffered):
        fam = str(tmp_path / "fam.json")
        with open(fam, "w") as fh:
            json.dump({"n": 8, "d": 3, "sets": [list(c) for c in combinations(range(8), 3)]}, fh)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the command writes, as under `| head -c 0`
        try:
            out = subprocess.run([sys.executable, "-m", "shadowlab.cli", "kk", "--family", fam, "--json"],
                                 env={**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered},
                                 stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
        finally:
            os.close(write_end)
        assert out.returncode == 0
        assert "Traceback" not in out.stderr and "Exception ignored" not in out.stderr

    def test_shadow_out(self, tmp_path):
        fam = str(tmp_path / "fam.json")
        out = str(tmp_path / "sh.json")
        with open(fam, "w") as fh:
            json.dump({"n": 3, "d": 3, "sets": [[0, 1, 2]]}, fh)
        report = self.run_ok(["shadow", "--family", fam, "--out", out])
        assert report["quantities"]["shadow_size"] == 3
        written = set_family_from_obj(json.load(open(out)))
        assert len(written) == 3
