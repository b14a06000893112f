"""File formats, canonical JSON reports, and the command-line surface."""

import json
import os
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import SRC, fig1_k4, random_set_family, run_program
from golden import INPUTS, write_input
from shadowlab import cli, forbidding, search
from shadowlab.cli import dumps_canonical
from shadowlab.errors import ValidationError
from shadowlab.entropy import distribution_from_obj
from shadowlab.formats import hypergraph_from_obj, hypergraph_from_text
from shadowlab.hypergraph import SetFamily, hypergraph_to_obj, set_family_from_obj, set_family_to_obj, shadow
from shadowlab.problems import RGB
from shadowlab.qlinalg import enumerate_subspaces, subspace_family_from_obj
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
    def test_reads_edge_list(self):
        text = "vertices 4\nred 0 1\nred 2 3\nblue 0 3\nblue 1 2\ngreen 0 2\ngreen 1 3\n"
        assert hypergraph_from_text(text) == fig1_k4()

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
        assert set_family_from_obj(json.loads(json.dumps(set_family_to_obj(fam)))) == fam

    @pytest.mark.parametrize("m, d", [(4, 0), (5, 1), (7, 3), (9, 5), (12, 12)])
    def test_out_writes_the_list_form(self, tmp_path, m, d):
        # the writers dump the members as the family holds them, tuples, which encode as the lists would
        lists = {"n": m, "d": d, "sets": [list(s) for s in combinations(range(m), d)]}
        out, shadow_out = tmp_path / "fam.json", tmp_path / "shadow.json"
        assert cli.run(["construct", "complete-family", "--m", str(m), "--d", str(d), "--out", str(out)])[1] == 0
        assert out.read_text() == json.dumps(lists)
        if d:
            assert cli.run(["kk", "--family", str(out), "--out", str(shadow_out)])[1] == 0
            shadow = {"n": m, "d": d - 1, "sets": [list(s) for s in combinations(range(m), d - 1)]}
            assert shadow_out.read_text() == json.dumps(shadow)

    def test_subspace_family_reads_enumeration(self):
        fam = enumerate_subspaces(2, 3, 2)
        obj = {"q": 2, "n": 3, "d": 2, "members": [[list(row) for row in m] for m in fam.members]}
        assert subspace_family_from_obj(obj) == fam

    def test_distribution_reads_exact_probabilities(self):
        obj = {
            "arity": 2,
            "support": [
                {"values": [0, 1], "p": "1/3"},
                {"values": [1, 0], "p": "2/3"},
            ],
        }
        dist = distribution_from_obj(obj)
        assert dist.arity == 2
        assert dist.support == (((0, 1), Fraction(1, 3)), ((1, 0), Fraction(2, 3)))


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

    def test_one_rule_for_reals(self):
        """A float prints with the same 12 significant digits in the text report and in its JSON."""
        rep = upper_report("t", 1 / 7, Fraction(1, 6), "s")
        report = {"command": ["kk"], "input_digest": "sha256:0", "notes": [], "status": 0,
                  "quantities": {"t": 1 / 7, "size": 2**70, "ratio": Fraction(2, 3), "members": [(1, 0), (0, 1)]},
                  "bounds": [cli._bound_obj(rep)]}
        text = cli._render_text(report).splitlines()
        assert text[2:6] == ["t       = 0.142857142857", f"size    = {2**70}", "ratio   = 2/3", "members = 1,0;0,1"]
        assert text[6] == "check: t = 0.142857142857 <= 0.166666666667  [s]  ok"
        obj = json.loads(dumps_canonical(report))
        assert obj["quantities"] == {"t": "0.142857142857", "size": str(2**70), "ratio": "2/3",
                                     "members": [["1", "0"], ["0", "1"]]}
        assert (obj["bounds"][0]["computed"], obj["bounds"][0]["bound"]) == ("0.142857142857", "0.166666666667")


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
        fam = write_input(tmp_path, "fam.json", {"n": 4, "d": 3, "sets": [[0, 1, 2], [0, 1, 3]]})
        report = self.run_ok(["kk", "--family", fam])
        assert report["quantities"]["shadow_size"] == 5
        assert report["quantities"]["t"] == pytest.approx(3.434841368, abs=1e-6)

    def test_key_tight_family_prints_zero(self, tmp_path):
        fam = write_input(tmp_path, "fam.json", {"n": 9, "d": 5, "sets": [list(s) for s in combinations(range(9), 5)]})
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
        good = write_input(tmp_path, "good.json", {"vertices": 3, "edges": [{"v": [0, 1], "color": "red"}]})
        report = self.run_ok(["validate", "--input", good])
        assert report["quantities"]["valid"] is True

    def test_invalid_input_exit_code(self, tmp_path, capsys):
        bad = write_input(tmp_path, "bad.json", {"vertices": 1, "edges": [{"v": [0, 5], "color": "red"}]})
        assert cli.main(["validate", "--input", bad]) == 3

    def test_capacity_exit_code(self):
        assert cli.main(["search", "rainbow-triangle", "--max-vertices", "9"]) == 4

    @pytest.mark.parametrize("mode, option", [
        *[(scan, option) for scan in ("rainbow-triangle", "mixed4")
          for option in ("--problem good6", "--vertices 8", "--trials 1000", "--d 3", "--delta 0", "--seed 0")],
        ("probe", "--max-vertices 4"),
    ])
    def test_search_modes_refuse_each_others_options(self, monkeypatch, capsys, mode, option):
        # refused before any scan or draw, even at the value the other mode would default to
        for name in ("search_rainbow_triangle", "search_mixed_4subsets", "random_probe"):
            monkeypatch.setattr(search, name, None)
        assert cli.main(["search", mode, *option.split()]) == 3
        assert capsys.readouterr().err == f"error: {option.split()[0]} does not apply to search {mode}\n"

    @pytest.mark.parametrize("argv", [
        "bogus-command",
        # count reads only the registry: kappa counts rainbow cliques, partial-shadow the partial-shadow targets
        "count rainbow --input k4.json",
        "count partial --input star.txt --r 3 --k 1",
        "count good6 --input flats.txt --d 3",
        "count covering --input cover.txt --d 1",
        "count mixed4 --input mixed.txt --colors red,green,blue",
    ])
    def test_usage_exit_code(self, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv.split())
        assert exc.value.code == 2

    # each command's positional choices and options, in the order its help lists them
    HELP = {
        "validate": ([], ["--input"]),
        "count": (["{good6,mixed4,covering}"], ["--input", "--delta"]),
        "kappa": ([], ["--input", "--d", "--colors"]),
        "kk": ([], ["--family", "--out"]),
        "qkk": ([], ["--family"]),
        "entropy": ([], ["--dist", "--coords", "--shearer", "--key", "--family"]),
        "forbidding": (["{verify,compatible,sd,gkk}"],
                       ["--system", "--d", "--universe-size", "--set", "--family", "--subspaces"]),
        "construct": (["{k4-blowup,rainbow-tripartite,matching,lift,tetrahedra8,flats,tripartite-mixed,"
                       "complete-family}"], ["--n", "--a", "--b", "--c", "--d", "--m", "--input", "--out"]),
        "search": (["{rainbow-triangle,mixed4,probe}"],
                   ["--max-vertices", "--problem", "--vertices", "--trials", "--d", "--delta", "--out", "--seed"]),
        "weighted": ([], ["--input", "--d"]),
        "partial-shadow": ([], ["--input", "--r", "--k"]),
    }

    @staticmethod
    def _help(argv, capsys, monkeypatch) -> dict[str, list[str]]:
        """The lines of `argv`'s help, by section ("usage" for the lines before the first heading)."""
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        sections, name = {}, "usage"
        for line in capsys.readouterr().out.splitlines():
            if line and not line[0].isspace() and line.endswith(":"):
                name = line[:-1]
            elif line:
                sections.setdefault(name, []).append(line)
        return sections

    def test_help_lists_every_command(self, capsys, monkeypatch):
        commands = self._help(["--help"], capsys, monkeypatch)["positional arguments"]
        assert [line.split()[0] for line in commands if line.startswith("    ") and line[4] != " "] == list(self.HELP)

    @pytest.mark.parametrize("columns", ["40", "80", "200"])
    def test_program_usage_is_one_line(self, monkeypatch, columns):
        # argparse lays a generated usage out differently from Python 3.13 on; the given one it prints as is
        monkeypatch.setenv("COLUMNS", columns)
        assert cli.build_parser().format_usage() == (
            "usage: shadowlab [-h] {validate,count,kappa,kk,qkk,entropy,forbidding,construct,search,weighted,"
            "partial-shadow} ...\n")

    def test_unknown_command_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "frobnicate" in err and all(command in err for command in self.HELP)

    # options are built only when their command parses, so each command's help is its own check
    @pytest.mark.parametrize("command", list(HELP))
    def test_command_help_lists_every_option(self, capsys, monkeypatch, command):
        positionals, options = self.HELP[command]
        sections = self._help([command, "--help"], capsys, monkeypatch)
        assert [line.split()[0] for line in sections.get("positional arguments", [])] == positionals
        listed = [word.rstrip(",") for line in sections["options"] if line.startswith("  -")
                  for word in line.split("  ")[1].split() if word.startswith("-")]
        assert listed == ["-h", "--help", *options, "--json"]

    def test_partial_shadow_command(self, tmp_path):
        g = write_input(tmp_path, "star.txt", "plain 0 1\nplain 0 2\nplain 0 3\n")
        report = self.run_ok(["partial-shadow", "--input", g, "--r", "3", "--k", "1"])
        assert report["quantities"]["m"] == 3
        assert report["bounds"][0]["satisfied"]

    def test_count_covering(self, tmp_path):
        g = write_input(tmp_path, "c.txt", "red 0 1 2\ngreen 0 1 3\nblue 0 2 3\n")
        report = self.run_ok(["count", "covering", "--input", g, "--delta", "1"])
        assert report["quantities"]["J"] == 1
        assert any(b["conjecture"] for b in report["bounds"])

    def test_count_delta_only_for_covering(self, tmp_path, capsys):
        g = write_input(tmp_path, "c.txt", "red 0 1\ngreen 0 2\nblue 1 2\n")
        assert self.run_ok(["count", "covering", "--input", g])["quantities"]["delta"] == 0
        for kind in ("good6", "mixed4"):
            for delta in ("0", "1"):
                assert cli.main(["count", kind, "--input", g, "--delta", delta]) == 3
                assert capsys.readouterr().err == f"error: --delta does not apply to count {kind}\n"

    def test_forbidding_qlinear_gkk(self, tmp_path):
        fam = enumerate_subspaces(2, 4, 2)
        subs = write_input(tmp_path, "subs.json", {"q": 2, "n": 4, "d": 2, "members": fam.members})
        report = self.run_ok(
            ["forbidding", "gkk", "--system", "qlinear:2,4", "--d", "2", "--subspaces", subs]
        )
        assert report["quantities"]["family_size"] == 210
        assert report["quantities"]["shadow_size"] == 15

    def test_forbidding_caps_exit_code(self, tmp_path, capsys):
        everything = ",".join(str(i) for i in range(30))
        assert cli.main(["forbidding", "sd", "--system", "repeats", "--universe-size", "30",
                         "--d", "6", "--set", everything]) == 4
        fam = write_input(tmp_path, "one.json", {"n": 30, "d": 30, "sets": [list(range(30))]})
        assert cli.main(["forbidding", "gkk", "--system", "repeats", "--universe-size", "30",
                         "--d", "6", "--family", fam]) == 4

    def test_forbidding_desk_scale_within_caps(self, tmp_path):
        # 924 sets: the walk's lookups repeat across sets and hit the shared memo
        fam = write_input(tmp_path, "sixes.json", {"n": 12, "d": 6, "sets": list(combinations(range(12), 6))})
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

    def test_forbidding_verify_cap(self, capsys, monkeypatch):
        # C(244, 2) - 1 = 29,645 multisets of size 1..2 over 242 vectors: classified exhaustively
        report = self.run_ok(["forbidding", "verify", "--system", "qlinear:3,5", "--d", "2"])
        assert report["quantities"]["ok"] is True
        assert report["quantities"]["exhaustive"] is True
        # one element at d = 8000: no good multiset has more than one element, so S^(d) is empty
        assert cli.main(["forbidding", "verify", "--system", "repeats", "--universe-size", "1",
                         "--d", "8000"]) == 4
        assert "depth d (largest good multiset + 1) = 8000 exceeds cap 2" in capsys.readouterr().err
        # C(65538, 2) - 1 multisets of size 1..2 are too many to classify: refused before any is
        calls = []
        monkeypatch.setattr(forbidding.ForbiddingSystem, "_good", lambda system, key: calls.append(key))
        assert cli.main(["forbidding", "verify", "--system", "repeats", "--universe-size", "65536",
                         "--d", "2"]) == 4
        assert "multisets of size 1..d = 2147581952 exceeds cap 1000000\n" in capsys.readouterr().err
        assert calls == []

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

    def test_forbidding_witness_vectors_render_in_set_syntax(self, capsys):
        # a multiset of vectors prints as --set reads it; the vector extending it, flat
        argv = ["forbidding", "compatible", "--system", "qlinear:2,3", "--d", "3", "--set", "1,0,0;0,1,0"]
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "witness_multiset  = 0,1,0;1,0,0" in lines and "witness_extension = 1 1 0" in lines

    def test_malformed_integer_lists_exit_3(self, tmp_path, capsys):
        dist = write_input(tmp_path, "dist.json", {"arity": 2, "support": [{"values": [0, 1], "p": "1"}]})
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
        # a probability that is no number, true, or a JSON number past the float range
        (["entropy", "--dist"], "null.json", {"arity": 1, "support": [{"values": [0], "p": None}]}),
        (["entropy", "--dist"], "list.json", {"arity": 1, "support": [{"values": [0], "p": [1]}]}),
        (["entropy", "--dist"], "true.json", {"arity": 1, "support": [{"values": [0], "p": True}]}),
        (["entropy", "--dist"], "inf.json", '{"arity": 1, "support": [{"values": [0], "p": 1e400}]}'),
        # a JSON integer past the 4300 digits that int() converts
        pytest.param(["kk", "--family"], "digits.json", '{"n": 4, "d": 2, "sets": [[0, 1' + "0" * 4301 + ']]}',
                     id="kk-digits"),
        pytest.param(["entropy", "--dist"], "digits.json",
                     '{"arity": 1, "support": [{"values": [0], "p": 1' + "0" * 4301 + '}]}', id="entropy-digits"),
        pytest.param(["validate", "--input"], "digits.json", '{"vertices": 1' + "0" * 4301 + ', "edges": []}',
                     id="validate-digits"),
        # lists nested past the recursion limit
        pytest.param(["kk", "--family"], "deep.json", '{"n": 4, "d": 2, "sets": ' + "[" * 10**5 + "]" * 10**5 + "}",
                     id="kk-nesting"),
    ])
    def test_malformed_file_exits_3(self, tmp_path, capsys, command, name, content):
        assert cli.main([*command, write_input(tmp_path, name, content)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if name == "digits.json":  # the limit is stated, without advice that a file cannot follow
            assert "limit (4300" in err and "set_int_max_str_digits" not in err

    def test_kk_on_a_family_of_empty_sets_exits_3(self, tmp_path, capsys):
        # d = 0: the family is in form, with no column for the bulk range test to read, and the shadow refuses it
        path = write_input(tmp_path, "empty.json", {"n": 3, "d": 0, "sets": [[]]})
        assert cli.main(["kk", "--family", path]) == 3
        assert capsys.readouterr().err == "error: shadow needs d >= 1\n"

    @pytest.mark.parametrize("arity, values", [(0, []), (-1, [0])])
    def test_distribution_of_arity_below_one_exits_3(self, tmp_path, capsys, arity, values):
        # arity 0 is in form, one empty tuple of probability 1, and refused by the reader, not by a later mode
        path = write_input(tmp_path, "a.json", {"arity": arity, "support": [{"values": values, "p": "1"}]})
        for argv in (["--dist", path], ["--dist", path, "--shearer", ";"], ["--dist", path, "--coords", "0"]):
            assert cli.main(["entropy", *argv]) == 3
            assert capsys.readouterr().err == f"error: arity must be positive, got {arity}\n"

    def test_json_flag_read_from_parsed_arguments(self, tmp_path, capsys):
        # argparse accepts the unambiguous prefix --js for --json
        fam = write_input(tmp_path, "fam.json", {"n": 4, "d": 3, "sets": [[0, 1, 2], [0, 1, 3]]})
        assert cli.main(["kk", "--family", fam, "--js"]) == 0
        assert json.loads(capsys.readouterr().out)["quantities"]["shadow_size"] == "5"

    def test_kk_target_beyond_float_range(self, tmp_path):
        # one 180-set: binom(t, 180) = 1 puts 180! into the inversion
        fam = write_input(tmp_path, "big.json", {"n": 200, "d": 180, "sets": [list(range(180))]})
        report = self.run_ok(["kk", "--family", fam, "--json"])
        assert report["quantities"]["shadow_size"] == 180
        assert report["quantities"]["t"] == pytest.approx(180.0, abs=1e-6)
        assert report["bounds"][0]["satisfied"]

    def test_kappa_bound_beyond_float_range(self, tmp_path, capsys):
        # d = 40 puts the shearer bound (39!)^40 past the float range
        g = write_input(tmp_path, "g.json", {"vertices": 64, "edges": [
            {"v": sorted((i + j) % 64 for j in range(39)), "color": f"c{i}"} for i in range(40)]})
        assert cli.main(["kappa", "--input", g, "--d", "40", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        shearer = report["bounds"][0]
        assert shearer["source"].startswith("shearer")
        assert (shearer["bound"], shearer["ratio"], shearer["satisfied"]) == ("inf", "0", True)

    def test_import_leaves_numpy_out(self):
        code = "import sys, shadowlab.cli; print('numpy' in sys.modules)"
        done = run_program([], prefix=["-c", code], text=True).done
        assert (done.returncode, done.stdout.strip()) == (0, "False"), done.stderr

    def test_import_set(self):
        # Every module of the package is in sys.modules after `import shadowlab.cli`, where the benchmark's trace
        # launcher finds and wraps it; the package registers most of them lazily, compiled on first use.
        # The records build without `dataclasses`, which alone pulls in inspect, ast and dis.  Under `-S` no
        # site-packages hook imports any of them first.
        modules = {f"shadowlab.{path.stem}" for path in (SRC / "shadowlab").glob("*.py") if path.stem != "__init__"}
        code = "import json, sys, shadowlab.cli; print(json.dumps(list(sys.modules)))"
        done = run_program([], prefix=["-S", "-c", code], text=True).done
        assert done.returncode == 0, done.stderr
        loaded = set(json.loads(done.stdout))
        assert not {"dataclasses", "inspect", "ast", "dis"} & loaded
        assert modules and modules <= loaded

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_stdout_exits_quietly(self, tmp_path, unbuffered):
        fam = write_input(tmp_path, "fam.json", {"n": 8, "d": 3, "sets": [list(c) for c in combinations(range(8), 3)]})
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the command writes, as under `| head -c 0`
        try:
            out = run_program(["kk", "--family", fam, "--json"], env={"PYTHONUNBUFFERED": unbuffered},
                              stdout=write_end, text=True).done
        finally:
            os.close(write_end)
        assert out.returncode == 0
        assert "Traceback" not in out.stderr and "Exception ignored" not in out.stderr

    def test_kk_out(self, tmp_path):
        fam, out = write_input(tmp_path, "fam.json", {"n": 3, "d": 3, "sets": [[0, 1, 2]]}), str(tmp_path / "sh.json")
        report = self.run_ok(["kk", "--family", fam, "--out", out])
        assert report["quantities"]["shadow_size"] == 3
        with open(out) as fh:
            written = set_family_from_obj(json.load(fh))
        assert len(written) == 3

    def test_kk_out_writes_the_shadow_of_the_library(self, tmp_path):
        # the file is `shadow(fam)` as its family file, from the one shadow that kk also counts
        rng = random.Random(46)
        fam_path, out = tmp_path / "fam.json", tmp_path / "sh.json"
        for _ in range(20):
            n = rng.randint(2, 8)
            fam = random_set_family(rng, n, rng.randint(1, n), 12)
            fam_path.write_text(json.dumps({"n": fam.n, "d": fam.d, "sets": [list(reversed(s)) for s in fam.sets]}))
            report = self.run_ok(["kk", "--family", str(fam_path), "--out", str(out)])
            assert out.read_text() == json.dumps(set_family_to_obj(shadow(fam)))
            assert report["quantities"]["shadow_size"] == len(shadow(fam))

    def test_kk_out_refuses_an_empty_family_and_writes_nothing(self, tmp_path, capsys):
        fam, out = tmp_path / "fam.json", tmp_path / "sh.json"
        fam.write_text(json.dumps({"n": 4, "d": 2, "sets": []}))
        assert cli.main(["kk", "--family", str(fam), "--out", str(out)]) == 3
        assert "family must be nonempty" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sets", [
        [[0, 1], [0, 5]],  # out of range
        [[0, 1], [2, 2]],  # a repeated element
        [[0, 1], [0, 1, 2]],  # a member of the wrong size
        [[0, 1], [1, 0]],  # the same member twice
    ])
    def test_kk_out_writes_nothing_for_a_refused_family(self, tmp_path, sets):
        fam, out = tmp_path / "fam.json", tmp_path / "sh.json"
        fam.write_text(json.dumps({"n": 4, "d": 2, "sets": sets}))
        assert cli.main(["kk", "--family", str(fam), "--out", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("spelling", ["fam.json", "./fam.json", "sub/../fam.json", "link.json"])
    def test_kk_out_refuses_to_overwrite_its_family(self, tmp_path, capsys, spelling):
        fam = tmp_path / "fam.json"
        text = json.dumps({"n": 3, "d": 2, "sets": [[0, 1], [1, 2]]})
        fam.write_text(text)
        (tmp_path / "link.json").symlink_to(fam)
        assert cli.main(["kk", "--family", str(fam), "--out", str(tmp_path / spelling)]) == 3
        assert "is an input file" in capsys.readouterr().err
        assert fam.read_text() == text

    @pytest.mark.parametrize("argv, message", [
        (["shadow", "--family", "fam.json", "--out", "sh.json"], "invalid choice"),
        (["weighted", "--input", "w.json", "--spectral"], "unrecognized arguments: --spectral"),
        # argparse reads the prefix --k as --key, which takes no value
        (["entropy", "--dist", "dist.json", "--shearer", "0;1", "--k", "1"], "unrecognized arguments: 1"),
        (["forbidding", "verify", "--system", "repeats", "--universe-size", "4", "--d", "3", "--seed", "0"],
         "unrecognized arguments: --seed 0"),
    ])
    def test_removed_command_and_option_are_usage_errors(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_weighted_large_weights(self, tmp_path, capsys):
        # K12 with weights near 10^15: the terms and N^{3/2} are floats far past 2^53
        assert cli.main(["weighted", "--input", write_input(tmp_path, "w.json", INPUTS["huge.json"])]) == 0
        assert "VIOLATED" not in capsys.readouterr().out


@pytest.mark.parametrize("vertices, edges, code", [
    # the vertex cap comes before the edge-size rule, whatever the edges' size
    (65, [[0, 1, 2], [1, 2, 3], [0, 2, 64]], 4),
    (65, [[0, 1], [1, 2], [0, 64]], 4),
    (4, [[0, 1], [1, 2, 3], [0, 3]], 3),
])
def test_lift_refusal_exit_codes(tmp_path, vertices, edges, code):
    g = write_input(tmp_path, "g.json", {"vertices": vertices,
                                         "edges": [{"v": v, "color": c} for v, c in zip(edges, RGB)]})
    assert cli.main(["construct", "lift", "--input", g]) == code
