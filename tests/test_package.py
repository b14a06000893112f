"""The package surface: its public names, and the layers each command loads.

Importing `shadowlab` registers every layer module in `sys.modules` and
compiles none of them; a layer runs on its first attribute access.
"""

import ast
import importlib
import json
import re
import sys
import types
from itertools import combinations
from pathlib import Path

import pytest

import shadowlab
from conftest import REFERENCE, run_program
from golden import INPUTS, write_inputs

ROOT = Path(__file__).resolve().parents[1]

# every name the package exported when each layer was imported eagerly, by the layer that now defines it
PUBLIC = {
    "entropy": ["ExactDistribution", "check_cregular_corollary", "check_key_inequality",
                "check_lemma_disjoint_support", "check_shearer", "conditional_entropy", "entropy"],
    "checks": ["check_partial_shadow_bound", "count_partial_shadow_targets", "weighted_joint_sum"],
    "errors": ["BoundViolationError", "CapacityError", "ValidationError"],
    "forbidding": ["ForbiddingSystem", "check_generalized_kk", "is_compatible", "qlinear_system", "repeats_system",
                   "verify_forbidding_axioms"],
    "hypergraph": ["ColoredHypergraph", "SetFamily", "check_kruskal_katona", "shadow", "validate"],
    "numkit": ["gaussian_binom", "product_falling", "shadow_bound"],
    "problems": ["PROBLEMS", "Problem", "rainbow_cliques"],
    "qlinalg": ["SubspaceFamily", "check_q_kruskal_katona", "enumerate_subspaces", "rref"],
    "reports": ["BoundReport", "ValidationReport"],
    "search": ["random_probe", "search_mixed_4subsets", "search_rainbow_triangle"],
}
NAMES = {name for names in PUBLIC.values() for name in names}


def test_public_names_resolve_to_their_layers():
    for layer, names in PUBLIC.items():
        module = importlib.import_module(f"shadowlab.{layer}")
        for name in names:
            assert getattr(shadowlab, name) is getattr(module, name), name
    # the package attribute `entropy` is the function, not the layer module
    assert shadowlab.entropy is sys.modules["shadowlab.entropy"].entropy
    assert not isinstance(shadowlab.entropy, types.ModuleType)
    assert shadowlab.hypergraph is sys.modules["shadowlab.hypergraph"]
    assert shadowlab.problems is sys.modules["shadowlab.problems"]
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        shadowlab.no_such_name


def test_star_import_binds_exactly_the_public_names():
    assert sorted(shadowlab.__all__) == sorted(NAMES)
    namespace: dict = {}
    exec("from shadowlab import *", namespace)
    del namespace["__builtins__"]
    assert namespace == {name: getattr(shadowlab, name) for name in NAMES}
    assert NAMES <= set(dir(shadowlab))


def _inputs(path: Path) -> None:
    members = [[[1, 0, 0, 0], [0, 1, 0, 0]], [[1, 0, 0, 0], [0, 0, 1, 0]], [[1, 0, 0, 1], [0, 1, 1, 0]]]
    support = [{"values": [0, 0], "p": "1/2"}, {"values": [1, 1], "p": "1/2"}]
    write_inputs(path, {"fam.json": {"n": 6, "d": 3, "sets": list(combinations(range(6), 3))},
                        "sub.json": {"q": 2, "n": 4, "d": 2, "members": members},
                        "graph.json": INPUTS["k4.json"],  # the K4 whose opposite edges share a colour
                        "dist.json": {"arity": 2, "support": support}})


# the parser, the digest, the report's writer and the exit rule: all that `import shadowlab.cli` runs
BASE_LAYERS = {"cli", "errors", "reports"}
READ_LAYERS = BASE_LAYERS | {"formats"}  # the file readers
GRAPH_LAYERS = READ_LAYERS | {"hypergraph"}  # a graph or a set family, read from a file
# the graph counts and the ratio-problem registry, with no file read; the set-family commands never load them
PROBLEM_LAYERS = BASE_LAYERS | {"hypergraph", "problems"}


# each command with the layers it compiles
LOADS = [
    ("kk --family fam.json", GRAPH_LAYERS | {"numkit"}),
    ("entropy --key --family fam.json", GRAPH_LAYERS | {"entropy"}),
    ("qkk --family sub.json", READ_LAYERS | {"numkit", "qlinalg"}),
    ("forbidding gkk --system repeats --universe-size 6 --d 3 --family fam.json",
     GRAPH_LAYERS | {"forbidding", "numkit"}),
    ("search probe --trials 5", PROBLEM_LAYERS | {"search"}),
    ("forbidding verify --system repeats --universe-size 4 --d 3", BASE_LAYERS | {"forbidding", "numkit"}),
    ("forbidding verify --system qlinear:2,4 --d 2", BASE_LAYERS | {"forbidding", "numkit", "qlinalg"}),
    ("forbidding gkk --system qlinear:2,4 --d 2 --subspaces sub.json",
     READ_LAYERS | {"forbidding", "numkit", "qlinalg"}),
    ("validate --input graph.json", GRAPH_LAYERS),
    ("kappa --input graph.json --d 3", GRAPH_LAYERS | {"problems"}),
    ("count covering --input graph.json", GRAPH_LAYERS | {"problems"}),
    ("construct k4-blowup --n 1", PROBLEM_LAYERS | {"constructions"}),
    ("", BASE_LAYERS),
    ("kk --family fam.json --out shadow.json", GRAPH_LAYERS | {"numkit"}),
    ("entropy --dist dist.json", READ_LAYERS | {"entropy"}),
    ("entropy --dist dist.json --shearer 0;1", READ_LAYERS | {"entropy"}),
    ("forbidding sd --system repeats --universe-size 4 --d 2 --set 0,1,2", BASE_LAYERS | {"forbidding", "numkit"}),
    ("forbidding compatible --system repeats --universe-size 4 --d 2 --set 0,1,2",
     BASE_LAYERS | {"forbidding", "numkit"}),
    ("weighted --input graph.json", GRAPH_LAYERS | {"checks"}),
    ("partial-shadow --input graph.json --r 3 --k 1", GRAPH_LAYERS | {"checks", "numkit"}),
    ("construct complete-family --m 4 --d 2 --out family.json", BASE_LAYERS | {"constructions", "hypergraph"}),
    ("search rainbow-triangle --max-vertices 4 --out witness.json", PROBLEM_LAYERS | {"search"}),
    ("search mixed4 --max-vertices 4 --out witness.json", PROBLEM_LAYERS | {"search"}),
]


@pytest.mark.parametrize("command, layers", LOADS)
def test_command_loads_only_the_layers_it_runs(tmp_path, command, layers):
    """The layers a command compiles; the empty command only imports `shadowlab.cli`."""
    _inputs(tmp_path)
    code = ("import json, sys, types, shadowlab.cli; status = shadowlab.cli.main(sys.argv[1:]) if sys.argv[1:] else 0; "
            "print(json.dumps([name for name, m in sys.modules.items() "
            "if name.startswith('shadowlab.') and type(m) is types.ModuleType])); sys.exit(status)")
    argv = [*command.split(), "--json"] if command else []
    out = run_program(argv, tmp_path, prefix=["-c", code], text=True).done
    assert out.returncode == 0, out.stderr
    assert {name.split(".", 1)[1] for name in json.loads(out.stdout.splitlines()[-1])} == layers


def test_readme_start_up_counts_the_lines_each_command_compiles():
    """README's "Start-up" counts of compiled source lines are the `wc -l` sums of the module files, the
    package's `__init__` included, that `search` and `kk` load by LOADS."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    found = re.search(r"A `search` job compiles ([\d,]+) source lines of `shadowlab` in (\d+) modules\s+"
                      r"\([^)]*\), `kk` ([\d,]+) \(", readme)
    assert found, "README's Start-up paragraph no longer states the counts"
    search_lines, modules, kk_lines = found.groups()
    loads = dict(LOADS)

    def compiled(layers: set[str]) -> tuple[int, int]:
        files = [ROOT / "src" / "shadowlab" / f"{name}.py" for name in {"__init__", *layers}]
        return sum(path.read_text(encoding="utf-8").count("\n") for path in files), len(files)

    assert compiled(loads["search probe --trials 5"]) == (int(search_lines.replace(",", "")), int(modules))
    assert compiled(loads["kk --family fam.json"])[0] == int(kk_lines.replace(",", ""))


def test_bench_reference_imports_nothing_of_shadowlab(tmp_path):
    """`ref`, the tests' and the benchmark's counts from the definitions, loaded as conftest loads it with
    `src` on the path, leaves no shadowlab module behind: it cannot count through the code it checks."""
    code = ("import importlib.util, json, sys; "
            "spec = importlib.util.spec_from_file_location('bench_reference', sys.argv[1]); "
            "ref = importlib.util.module_from_spec(spec); spec.loader.exec_module(ref); "
            "print(json.dumps([ref.rainbow_count(3, [((0, 1), 'r'), ((0, 2), 'g'), ((1, 2), 'b')], 'rgb', 3), "
            "sorted(name for name in sys.modules if name.split('.')[0] == 'shadowlab')]))")
    out = run_program([str(REFERENCE)], tmp_path, prefix=["-c", code], text=True).done
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [1, []]


@pytest.mark.parametrize("command, layer, counter", [
    ("qkk --family sub.json", "qlinalg", "qlinalg.members_in"),
    ("search probe --trials 5", "search", "search.explored"),
])
def test_trace_launcher_wraps_layers_that_load_late(tmp_path, command, layer, counter):
    _inputs(tmp_path)
    spans = tmp_path / "spans.json"
    out = run_program([str(spans), "job", "--", *command.split(), "--json"], tmp_path,
                      prefix=[str(ROOT / "bench" / "trace_launcher.py")], text=True).done
    assert out.returncode == 0, out.stderr
    trace = json.loads(spans.read_text())
    assert layer in {span[2] for span in trace["spans"]}
    assert trace["counters"][counter] > 0


def _shadowlab_imports(tree: ast.Module) -> set[str]:
    """The shadowlab modules a module's source imports, by their names in the package."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "shadowlab":
            names |= {node.module.partition(".")[2]} if "." in node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            names |= {alias.name.partition(".")[2] for alias in node.names if alias.name.startswith("shadowlab.")}
    return names


def test_formats_imports_only_hypergraph_and_errors():
    """Each family reader is beside its type, so `formats` imports no other layer, and no layer reads another
    out of `sys.modules`: only the package, which registers them, and `cli`, whose command table names them."""
    package = ROOT / "src" / "shadowlab"
    assert _shadowlab_imports(ast.parse((package / "formats.py").read_text())) == {"hypergraph", "errors"}
    for path in sorted(package.glob("*.py")):
        if path.stem not in {"__init__", "cli"}:
            tree = ast.parse(path.read_text())
            assert not [node for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "modules"
                        and isinstance(node.value, ast.Name) and node.value.id == "sys"], path.name


def test_kk_starts_without_openssl_or_typing(tmp_path):
    """Under `python -S`, where no site-packages hook imports them first, `kk` loads neither OpenSSL's
    `_hashlib` (the digest takes the built-in sha256) nor `typing`, and the help reads as with `site`."""
    _inputs(tmp_path)
    code = ("import json, sys, shadowlab.cli; status = shadowlab.cli.main(sys.argv[1:]); "
            "print(json.dumps(sorted(sys.modules))); sys.exit(status)")
    out = run_program(["kk", "--family", "fam.json", "--json"], tmp_path, prefix=["-S", "-c", code], text=True).done
    assert out.returncode == 0, out.stderr
    assert not {"_hashlib", "hashlib", "typing"} & set(json.loads(out.stdout.splitlines()[-1]))
    for argv in (["--help"], ["kk", "--help"]):
        helps = [run_program(argv, tmp_path, prefix=[*flags, "-m", "shadowlab.cli"], env={"COLUMNS": "80"}).done
                 for flags in (["-S"], [])]
        assert [h.returncode for h in helps] == [0, 0]
        assert helps[0].stdout == helps[1].stdout and b"usage: shadowlab" in helps[0].stdout
