"""End-to-end tests for the command line interface."""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import biqknot
from biqknot import bridge, cli, enhance
from biqknot.algebra import (
    AxiomError,
    GroupOrderCapExceeded,
    enumerate_endos,
    parse_biquandle,
    parse_tables,
    validate_axioms,
)
from biqknot.cli import main
from biqknot.diagram import ParseError, parse_pd
from biqknot.quiver import build_quiver

GOLDEN = json.loads((Path(__file__).parents[1] / "perfbench" / "cli_golden.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_color_count_t24_over_z(capsys):
    code, out, _ = run(capsys, "color", "count", "torus2:4", "linear:4,3,0,1,2")
    assert code == 0
    assert out.strip() == "16"


def test_color_count_builtin_knot(capsys):
    code, out, _ = run(capsys, "color", "count", "knot:9_24", "dihedral:9")
    assert code == 0
    assert out.strip() == "81"


def test_color_list_table(capsys):
    code, out, _ = run(capsys, "color", "list", "torus2:1", "dihedral:3", "--table")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "0\t1"
    assert lines[1:] == ["1\t1", "2\t2", "3\t3"]


def test_color_list_names_the_free_loop_factor(tmp_path, capsys):
    f = tmp_path / "t23_loop.pd"
    f.write_text("X+ 0 1 3 2\nX+ 2 3 5 4\nX+ 4 5 1 0\nL 1\n")
    code, out, _ = run(capsys, "color", "list", str(f), "dihedral:3")
    assert code == 0
    assert out.endswith("\n# free loops contribute a factor 3^1\n")
    code, out, _ = run(capsys, "--format", "json", "color", "list", str(f), "dihedral:3")
    assert code == 0
    assert json.loads(out)["free_loops"] == 1


def test_closed_pipe_exits_1_without_a_traceback():
    # the listing is 73 728 bytes, more than a pipe holds, so the writer is still
    # writing when the reader takes one line and closes its end
    env = dict(os.environ, PYTHONPATH=str(Path(biqknot.__file__).parents[1]))
    argv = [sys.executable, "-m", "biqknot.cli", "color", "list", "chain:9", "dihedral:4"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
                          env=env) as proc:
        assert proc.stdout.readline() == b" ".join([b"1"] * 36) + b"\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (1, b"")


def test_color_matrix(capsys):
    code, out, _ = run(capsys, "--format", "json", "color", "matrix", "torus2:4",
                       "4", "3", "0", "1", "2")
    assert code == 0
    data = json.loads(out)
    assert data["solutions"] == 16
    assert data["cols"] == 8
    assert len(data["rows"]) == 8


def test_color_matrix_gives_each_free_loop_a_zero_column(tmp_path, capsys):
    # the matrix count then agrees with `color count`, loops included
    _, t22, _ = run(capsys, "diagram", "gen", "torus2", "2")
    cases = {"loops.pd": ("L 2\n", 2, 16), "t22_loop.pd": (t22 + "L 1\n", 5, 32)}
    for name, (text, cols, solutions) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        code, out, _ = run(capsys, "--format", "json", "color", "matrix", str(path), "4", "3", "0", "1", "2")
        assert code == 0
        data = json.loads(out)
        assert (data["cols"], data["solutions"]) == (cols, solutions)
        assert all(len(row) == cols and row[-1] == 0 for row in data["rows"])
        _, human, _ = run(capsys, "color", "matrix", str(path), "4", "3", "0", "1", "2")
        assert human.splitlines()[-1] == f"# solutions mod 4: {solutions}"
        _, count, _ = run(capsys, "color", "count", str(path), "linear:4,3,0,1,2")
        assert int(count) == solutions


def test_color_usage_error(capsys):
    code, _, err = run(capsys, "color", "matrix", "torus2:4", "4")
    assert code == 2
    assert "usage error" in err


def test_algebra_dihedral_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "algebra", "dihedral", "9")
    assert code == 0
    f = tmp_path / "r9.biq"
    f.write_text(out)
    code, out2, _ = run(capsys, "algebra", "validate", str(f))
    assert code == 0
    assert "valid" in out2


def test_algebra_validate_bad_table(tmp_path, capsys):
    f = tmp_path / "bad.biq"
    f.write_text("2\n1 1\n2 2\n\n1 2\n2 1\n")
    code, out, _ = run(capsys, "algebra", "validate", str(f))
    assert code == 1
    assert "bijection" in out or "diagonal" in out


def test_algebra_validate_out_of_range_entry(tmp_path, capsys):
    f = tmp_path / "range.biq"
    f.write_text("2\n1 3\n2 2\n\n1 1\n2 2\n")
    shape = "shape: over table entry 3 at row 1 out of range 1..2"
    assert run(capsys, "algebra", "validate", str(f)) == (1, shape + "\n", "")


def test_ragged_table_prints_its_shape_without_an_empty_witness(tmp_path, capsys):
    f = tmp_path / "ragged.biq"
    f.write_text("2\n1 1\n2 2 2\n\n1 2\n2 1\n")
    shape = "shape: over table row 2 has 3 entries, expected 2"
    assert run(capsys, "algebra", "validate", str(f)) == (1, shape + "\n", "")
    code, out, _ = run(capsys, "--format", "json", "algebra", "validate", str(f))
    assert code == 1
    assert json.loads(out)["violations"] == [{"axiom": shape, "witness": []}]
    assert run(capsys, "color", "count", "torus2:3", str(f)) == (
        1, "", f"error: not a biquandle: {shape}\n")


def test_algebra_endos_count(tmp_path, capsys):
    code, out, _ = run(capsys, "algebra", "dihedral", "6")
    f = tmp_path / "r6.biq"
    f.write_text(out)
    code, out, _ = run(capsys, "algebra", "endos", str(f))
    assert code == 0
    assert len(out.strip().splitlines()) == 36


def test_diagram_gen_and_strands(capsys):
    code, out, _ = run(capsys, "diagram", "gen", "torus2", "3")
    assert code == 0
    assert out == "X+ 0 1 3 2\nX+ 2 3 5 4\nX+ 4 5 1 0\n"
    code, out, _ = run(capsys, "--format", "json", "diagram", "strands", "torus2:3")
    assert code == 0
    assert len(json.loads(out)["strands"]) == 3


# diagram files that the strand pins read: the virtual trefoil (two V records) and T(2,3)
# with two free loops
PIN_FILES = {"virtual.pd": "X+ 3 7 4 0\nX+ 5 1 6 2\nV 0 4 1 5\nV 2 6 3 7\n",
             "looped.pd": "X+ 0 1 3 2\nX+ 2 3 5 4\nX+ 4 5 1 0\nL 2\n"}
# spec -> (diagram strands, its --format json, bridge seeds, its --format json)
STRAND_PINS = {
    "torus2:3": (
        "strand 0: 5 0\nstrand 1: 1 2\nstrand 2: 3 4\ncrossing 0: under 0 -> 2, over 1\n"
        "crossing 1: under 1 -> 0, over 2\ncrossing 2: under 2 -> 1, over 0\n",
        '{"crossing_incidence": [[0, 2, 1], [1, 0, 2], [2, 1, 0]], '
        '"strands": [[5, 0], [1, 2], [3, 4]]}\n',
        "min seeds: 2\nwitness strands: 0 1\nmove: crossing 0 colors strand 2\n",
        '{"found": true, "min_seeds": 2, "sequence": [[0, 2]], "witness": [0, 1]}\n'),
    "pretzel:2,-3,5": (
        "strand 0: 19 0\nstrand 1: 1 2\nstrand 2: 3 4\nstrand 3: 5 6\nstrand 4: 7\n"
        "strand 5: 8 9\nstrand 6: 10\nstrand 7: 11 12 13\nstrand 8: 14 15 16\n"
        "strand 9: 17 18\ncrossing 0: under 0 -> 1, over 7\ncrossing 1: under 6 -> 7, over 1\n"
        "crossing 2: under 4 -> 5, over 7\ncrossing 3: under 7 -> 8, over 5\n"
        "crossing 4: under 5 -> 6, over 8\ncrossing 5: under 3 -> 4, over 0\n"
        "crossing 6: under 9 -> 0, over 3\ncrossing 7: under 2 -> 3, over 9\n"
        "crossing 8: under 8 -> 9, over 2\ncrossing 9: under 1 -> 2, over 8\n",
        '{"crossing_incidence": [[0, 1, 7], [6, 7, 1], [4, 5, 7], [7, 8, 5], [5, 6, 8], '
        '[3, 4, 0], [9, 0, 3], [2, 3, 9], [8, 9, 2], [1, 2, 8]], "strands": [[19, 0], [1, 2], '
        '[3, 4], [5, 6], [7], [8, 9], [10], [11, 12, 13], [14, 15, 16], [17, 18]]}\n',
        "min seeds: 3\nwitness strands: 0 3 5\nmove: crossing 5 colors strand 4\n"
        "move: crossing 6 colors strand 9\nmove: crossing 7 colors strand 2\n"
        "move: crossing 8 colors strand 8\nmove: crossing 3 colors strand 7\n"
        "move: crossing 0 colors strand 1\nmove: crossing 1 colors strand 6\n",
        '{"found": true, "min_seeds": 3, "sequence": [[5, 4], [6, 9], [7, 2], [8, 8], [3, 7], '
        '[0, 1], [1, 6]], "witness": [0, 3, 5]}\n'),
    "chain:3": (
        "strand 0: 0 1\nstrand 1: 2 3\nstrand 2: 4 5\nstrand 3: 6 7\nstrand 4: 8 9\n"
        "strand 5: 10 11\ncrossing 0: under 1 -> 0, over 4\ncrossing 1: under 4 -> 5, over 1\n"
        "crossing 2: under 3 -> 2, over 0\ncrossing 3: under 0 -> 1, over 3\n"
        "crossing 4: under 5 -> 4, over 2\ncrossing 5: under 2 -> 3, over 5\n",
        '{"crossing_incidence": [[1, 0, 4], [4, 5, 1], [3, 2, 0], [0, 1, 3], [5, 4, 2], '
        '[2, 3, 5]], "strands": [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9], [10, 11]]}\n',
        "min seeds: 3\nwitness strands: 0 2 4\nmove: crossing 0 colors strand 1\n"
        "move: crossing 1 colors strand 5\nmove: crossing 2 colors strand 3\n",
        '{"found": true, "min_seeds": 3, "sequence": [[0, 1], [1, 5], [2, 3]], '
        '"witness": [0, 2, 4]}\n'),
    "virtual.pd": (
        "strand 0: 3 0 1\nstrand 1: 2\ncrossing 0: under 0 -> 1, over 0\n"
        "crossing 1: under 1 -> 0, over 0\n",
        '{"crossing_incidence": [[0, 1, 0], [1, 0, 0]], "strands": [[3, 0, 1], [2]]}\n',
        "min seeds: 1\nwitness strands: 0\nmove: crossing 0 colors strand 1\n",
        '{"found": true, "min_seeds": 1, "sequence": [[0, 1]], "witness": [0]}\n'),
    "looped.pd": (
        "strand 0: 5 0\nstrand 1: 1 2\nstrand 2: 3 4\ncrossing 0: under 0 -> 2, over 1\n"
        "crossing 1: under 1 -> 0, over 2\ncrossing 2: under 2 -> 1, over 0\n",
        '{"crossing_incidence": [[0, 2, 1], [1, 0, 2], [2, 1, 0]], '
        '"strands": [[5, 0], [1, 2], [3, 4]]}\n',
        "min seeds: 4\nwitness strands: 0 1\nfree loops: 2\nmove: crossing 0 colors strand 2\n",
        '{"found": true, "min_seeds": 4, "sequence": [[0, 2]], "witness": [0, 1]}\n'),
}


@pytest.mark.parametrize("spec", STRAND_PINS)
def test_strands_and_seeds_output_is_pinned(spec, tmp_path, capsys):
    if spec in PIN_FILES:
        (tmp_path / spec).write_text(PIN_FILES[spec])
        spec = str(tmp_path / spec)
    strands_text, strands_json, seeds_text, seeds_json = STRAND_PINS[Path(spec).name]
    assert run(capsys, "diagram", "strands", spec) == (0, strands_text, "")
    assert run(capsys, "--format", "json", "diagram", "strands", spec) == (0, strands_json, "")
    assert run(capsys, "bridge", "seeds", spec) == (0, seeds_text, "")
    assert run(capsys, "--format", "json", "bridge", "seeds", spec) == (0, seeds_json, "")


def test_diagram_validate_error(tmp_path, capsys):
    f = tmp_path / "bad.pd"
    f.write_text("X+ 0 1 2 0\n")
    code, out, _ = run(capsys, "diagram", "validate", str(f))
    assert code == 1
    assert "invalid" in out


def test_diagram_validate_rejects_non_decimal_loop_count(tmp_path, capsys):
    f = tmp_path / "bad.pd"
    f.write_text("L \u00b2\n", encoding="utf-8")
    code, out, err = run(capsys, "diagram", "validate", str(f))
    assert (code, out, err) == (1, "invalid: line 1: L line takes one nonnegative count\n", "")
    code, out, err = run(capsys, "--format", "json", "diagram", "validate", str(f))
    assert code == 1 and err == ""
    assert json.loads(out) == {"valid": False, "error": "line 1: L line takes one nonnegative count"}


def test_diagram_sum(tmp_path, capsys):
    code, out, _ = run(capsys, "diagram", "gen", "torus2", "3")
    f = tmp_path / "t3.pd"
    f.write_text(out)
    code, out, _ = run(capsys, "diagram", "sum", str(f), "0", str(f), "0")
    assert code == 0
    assert len(out.strip().splitlines()) == 6
    f2 = tmp_path / "granny.pd"
    f2.write_text(out)
    code, out, _ = run(capsys, "color", "count", str(f2), "dihedral:3")
    assert out.strip() == "27"


def test_quiver_indeg(capsys):
    code, out, _ = run(capsys, "quiver", "indeg", "knot:9_24", "dihedral:9",
                       "--endo", "3,6,9,3,6,9,3,6,9")
    assert code == 0
    assert out.strip() == "9u^9 + 72"


def test_quiver_indeg_defaults_to_the_identity(capsys):
    # neither --endo nor --all-endos: S is the identity, so each of the
    # Col_{R_3}(T(2,3)) = 9 colorings has in-degree 1
    code, out, _ = run(capsys, "quiver", "indeg", "torus2:3", "dihedral:3")
    assert code == 0
    assert out.strip() == "9u"


def test_quiver_iso_via_dumps(tmp_path, capsys):
    for name, d in (("a", "torus2:4"), ("b", "chain:3")):
        code, out, _ = run(capsys, "--format", "json", "quiver", "build", d,
                           "dihedral:4", "--endo", "2,4,2,4")
        assert code == 0
        (tmp_path / f"{name}.json").write_text(out)
    code, out, _ = run(capsys, "quiver", "iso", str(tmp_path / "a.json"),
                       str(tmp_path / "b.json"))
    assert code == 0
    assert out.strip() == "not isomorphic"


def test_bridge_seeds(capsys):
    code, out, _ = run(capsys, "bridge", "seeds", "torus2:3")
    assert code == 0
    assert "min seeds: 2" in out


def test_bridge_lower(capsys):
    code, out, _ = run(capsys, "bridge", "lower", "torus2:3", "--alg", "dihedral:3")
    assert code == 0
    assert "b1 >= 2" in out


# recorded before the move engine became a heap, which fires in the same order
SEEDS_JSON = {
    "knot:9_24": '{"found": true, "min_seeds": 2, "sequence": [[0, 4], [1, 1], [2, 8], [3, 2], '
                 '[4, 5], [5, 7], [6, 6]], "witness": [0, 3]}\n',
    "pretzel:3,3,3": '{"found": true, "min_seeds": 3, "sequence": [[6, 4], [7, 8], [8, 5], '
                     '[1, 6], [2, 2], [3, 7]], "witness": [0, 1, 3]}\n',
    "chain:5": '{"found": true, "min_seeds": 5, "sequence": [[0, 1], [1, 9], [2, 3], [4, 5], '
               '[6, 7]], "witness": [0, 2, 4, 6, 8]}\n',
    "torus2:11": '{"found": true, "min_seeds": 2, "sequence": [[0, 2], [1, 3], [2, 4], [3, 5], '
                 '[4, 6], [5, 7], [6, 8], [7, 9], [8, 10]], "witness": [0, 1]}\n',
}


@pytest.mark.parametrize("spec", sorted(SEEDS_JSON))
def test_bridge_seeds_json_bytes(capsys, spec):
    assert run(capsys, "--format", "json", "bridge", "seeds", spec) == (0, SEEDS_JSON[spec], "")


def test_bridge_seeds_counts_free_loops(tmp_path, capsys):
    looped = tmp_path / "looped.pd"
    looped.write_text("X+ 0 1 3 2\nX+ 2 3 5 4\nX+ 4 5 1 0\nL 2\n")
    code, out, _ = run(capsys, "bridge", "seeds", str(looped))
    assert (code, out) == (0, "min seeds: 4\nwitness strands: 0 1\nfree loops: 2\n"
                              "move: crossing 0 colors strand 2\n")
    loop = tmp_path / "loop.pd"
    loop.write_text("L 1\n")
    assert run(capsys, "bridge", "seeds", str(loop)) == (
        0, "min seeds: 1\nwitness strands:\nfree loops: 1\n", "")
    assert run(capsys, "--format", "json", "bridge", "seeds", str(loop)) == (
        0, '{"found": true, "min_seeds": 1, "sequence": [], "witness": []}\n', "")


def test_bridge_lower_zero_count_exits_1(tmp_path, capsys):
    # x ." y = x .v y = sigma(x), sigma = (1 2 3 4), validates but colors T(2,3) in 0 ways
    f = tmp_path / "shift.biq"
    f.write_text("4\n" + "2 2 2 2\n3 3 3 3\n4 4 4 4\n1 1 1 1\n\n" * 2)
    assert run(capsys, "algebra", "validate", str(f))[0] == 0
    code, out, err = run(capsys, "bridge", "lower", "torus2:3", "--alg", str(f), "--mode", "b2")
    assert (code, out) == (1, "")
    assert err == "error: a coloring count of 0 gives no bridge bound\n"


def _fresh_interpreter(code: str, *args: str) -> str:
    """Stdout of `python -c code args...` with this checkout's package on the path."""
    env = dict(os.environ, PYTHONPATH=str(Path(biqknot.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, check=True).stdout


def test_runtime_imports_only_the_standard_library():
    # every module, since the package itself imports none of them
    probe = ("import sys, pkgutil; before = set(sys.modules); import biqknot; "
             "[getattr(biqknot, m.name) for m in pkgutil.iter_modules(biqknot.__path__)]; "
             "print(*sorted({m.partition('.')[0] for m in set(sys.modules) - before}))")
    loaded = set(_fresh_interpreter(probe).split())
    assert "biqknot" in loaded
    assert loaded - {"biqknot"} <= sys.stdlib_module_names


def test_bare_import_loads_no_submodule():
    probe = "import sys, biqknot; print(*sorted(m for m in sys.modules if m.startswith('biqknot')))"
    assert _fresh_interpreter(probe).split() == ["biqknot"]


@pytest.mark.parametrize("argv, left_out", [
    (["color", "count", "torus2:3", "dihedral:3"],
     {"repro", "quiver", "enhance", "bridge", "knots", "polynomial"}),
    (["diagram", "gen", "torus2", "3"],
     {"repro", "quiver", "enhance", "bridge", "knots", "polynomial", "algebra", "coloring"}),
    (["knots", "list"],
     {"repro", "quiver", "enhance", "bridge", "polynomial", "algebra", "coloring"}),
], ids=["color-count", "diagram-gen", "knots-list"])
def test_a_subcommand_loads_only_the_modules_it_runs(argv, left_out):
    probe = ("import sys; from biqknot.cli import main; code = main(sys.argv[1:]); "
             "print(code, *sorted(sys.modules))")
    code, *loaded = _fresh_interpreter(probe, *argv).splitlines()[-1].split()
    assert code == "0"
    assert "biqknot.diagram" in loaded
    assert not {f"biqknot.{m}" for m in left_out} & set(loaded)
    # nor these standard modules, beyond what the interpreter loads before any code runs
    bare = _fresh_interpreter("import sys; print(*sys.modules)").split()
    assert not {"dataclasses", "inspect", "json"} & (set(loaded) - set(bare))


@pytest.mark.parametrize("key", ["quiver.build", "quiver.iso", "repro.item"])
def test_json_commands_run_in_a_fresh_interpreter(tmp_path, key):
    # each imports json only where it reads or writes it; run cold, as the quick start runs them
    g = GOLDEN["commands"][key]
    for name, text in GOLDEN["files"].items():
        (tmp_path / name).write_text(text)
    env = dict(os.environ, PYTHONPATH=str(Path(biqknot.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "biqknot.cli", *g["argv"]], cwd=tmp_path,
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (g["code"], g["stdout"], "")


# public name -> home module, pinned here so that a name cannot leave the API unnoticed
PUBLIC_API = {name: module for module, names in {
    "algebra": ["AxiomError", "FiniteBiquandle", "biquandle_z", "column_permutation",
                "enumerate_endos", "enumerate_homs", "from_tables", "group_order",
                "make_conjugation_quandle", "make_dihedral", "make_linear_biquandle",
                "make_module_biquandle", "subquandle_closure", "validate_axioms"],
    "bridge": ["b1_lower", "b2_lower", "min_seed_size", "wirtinger_saturate"],
    "coloring": ["coloring_matrix", "count_colorings", "count_solutions_snf",
                 "enumerate_colorings"],
    "diagram": ["Crossing", "DiagramError", "SemiarcDiagram", "apply_r1", "apply_r2", "chain",
                "connected_sum", "parse_pd", "pretzel", "serialize_pd", "strands", "torus_2n",
                "unknot"],
    "enhance": ["column_group_polynomial"],
    "knots": ["KnotRecord", "builtin_knot", "builtin_table"],
    "polynomial": ["ExponentPolynomial"],
    "quiver": ["ColoringQuiver", "build_quiver", "in_degree_polynomial", "quivers_isomorphic"],
}.items() for name in names}


def test_all_lists_every_public_name_and_each_resolves():
    assert len(biqknot.__all__) == len(set(biqknot.__all__))
    assert set(biqknot.__all__) == set(PUBLIC_API)
    namespace: dict = {}
    exec("from biqknot import *", namespace)
    for name, module in PUBLIC_API.items():
        assert namespace[name] is getattr(importlib.import_module(f"biqknot.{module}"), name)
    # once resolved, the names sit in the package namespace; nothing public beside them
    public = {name for name, value in vars(biqknot).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(PUBLIC_API)
    for m in pkgutil.iter_modules(biqknot.__path__):  # submodules resolve by name too
        assert getattr(biqknot, m.name) is importlib.import_module(f"biqknot.{m.name}")
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        biqknot.nope


def test_lazy_names_are_listed_before_first_use():
    probe = ("import biqknot; names = set(dir(biqknot)); "
             "print(set(biqknot.__all__) <= names, 'make_dihedral' in vars(biqknot))")
    assert _fresh_interpreter(probe).split() == ["True", "False"]


def test_dir_lists_every_public_name_before_and_after_a_lazy_import(monkeypatch):
    for name in biqknot.__all__:  # forget the names earlier imports cached
        monkeypatch.delitem(vars(biqknot), name, raising=False)
    before = dir(biqknot)
    assert "make_dihedral" not in vars(biqknot)
    assert set(biqknot.__all__) <= set(before) and before == sorted(set(before))
    assert biqknot.make_dihedral is importlib.import_module("biqknot.algebra").make_dihedral
    after = dir(biqknot)
    assert "make_dihedral" in vars(biqknot)
    assert set(before) <= set(after) and after == sorted(set(after))


def test_enhance_colgroup(capsys):
    code, out, _ = run(capsys, "enhance", "colgroup", "knot:6_1", "dihedral:9")
    assert code == 0
    assert out.strip() == "54u^18 + 18u^6 + 9u^2"


def test_enhance_rejects_biquandle(capsys):
    code, _, err = run(capsys, "enhance", "colgroup", "torus2:4", "linear:4,3,0,1,2")
    assert code == 1
    assert "quandle" in err


def test_knots_list_and_show(capsys):
    code, out, _ = run(capsys, "knots", "list")
    assert code == 0
    assert "9_24" in out
    code, out, _ = run(capsys, "knots", "show", "3_1")
    assert code == 0
    assert out == "X+ 0 1 3 2\nX+ 2 3 5 4\nX+ 4 5 1 0\n"


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_unknown_knot_exits_1(capsys):
    code, _, err = run(capsys, "color", "count", "knot:10_139", "dihedral:3")
    assert code == 1


@pytest.mark.parametrize("argv", [["knots", "show", "nope"],
                                  ["color", "count", "knot:nope", "dihedral:3"]])
def test_unknown_knot_message_is_not_quoted(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: unknown knot 'nope'; bundled: 3_1, ")
    assert err.endswith("9_24\n") and '"' not in err and len(err.splitlines()) == 1


def test_repro_single_item(capsys):
    code, out, _ = run(capsys, "repro", "--item", "04-chain-counts")
    assert code == 0
    assert "PASS 04-chain-counts" in out


def test_repro_json_is_stable(capsys):
    code1, out1, _ = run(capsys, "--format", "json", "repro",
                         "--item", "11-bridge-machinery")
    code2, out2, _ = run(capsys, "--format", "json", "repro",
                         "--item", "11-bridge-machinery")
    assert code1 == code2 == 0
    assert out1 == out2


def test_repro_json_matches_the_golden_bytes(capsys):
    # all 12 items, no --timings: a refactor must keep these bytes
    golden = (Path(__file__).parent / "data" / "repro_golden.json").read_text()
    assert run(capsys, "--format", "json", "repro") == (1, golden, "")


def test_repro_known_failure_exits_1(capsys):
    code, out, _ = run(capsys, "repro", "--item", "01-algebra-validation")
    assert code == 1
    assert "FAIL 01-algebra-validation" in out
    assert "note:" in out


BAD_INPUT_FILES = {
    "empty.biq": "",
    "nokey.json": json.dumps({"vertices": [[1], [2]], "endos": [[1, 2]]}),
    "range.json": json.dumps({"vertices": [[1], [2]], "edges": [[0, 5, 0]], "endos": [[1, 2]]}),
    "dup.json": json.dumps({"vertices": [[1], [2]], "edges": [[0, 0, 0], [0, 1, 0]],
                            "endos": [[1, 2]]}),
    "missing.json": json.dumps({"vertices": [[1], [2]], "edges": [[0, 0, 0]], "endos": [[1, 2]]}),
    "zero.biq": "0\n",
    "notjson.json": "not json\n",
}


@pytest.mark.parametrize("argv, code", [
    (["color", "count", "torus2:x", "dihedral:3"], 2),
    (["color", "count", "pretzel:", "dihedral:3"], 2),
    (["color", "count", "torus2:3", "linear:4,1"], 2),
    (["color", "count", "torus2:3"], 2),
    (["color", "matrix", "torus2:4", "4", "3", "x", "1", "2"], 2),
    (["diagram", "gen"], 2),
    (["diagram", "gen", "torus2"], 2),
    (["diagram", "gen", "torus2", "x"], 2),
    (["diagram", "gen", "figure8", "3"], 2),
    (["diagram", "sum", "torus2:3", "0", "torus2:3"], 2),
    (["diagram", "strands"], 2),
    (["algebra", "dihedral", "x"], 2),
    (["algebra", "linear", "4,3,0,1,2"], 2),
    (["quiver", "indeg", "torus2:3", "dihedral:3", "--endo", "2,x"], 2),
    (["quiver", "build", "torus2:3", "dihedral:3", "--all-endos", "--endo", "1,2,3"], 2),
    (["quiver", "indeg", "torus2:3", "dihedral:3", "--endo", "1,2,3", "--all-endos"], 2),
    (["bridge", "seeds", "torus2:3", "--kmax", "-1"], 2),
    (["bridge", "lower", "torus2:3"], 2),
    (["quiver", "iso", "missing.json", "missing.json", "--endo", "1,2"], 2),
    (["quiver", "iso", "missing.json", "missing.json", "--all-endos"], 2),
    (["color", "count", "torus2:3", "dihedral:0"], 1),
    (["color", "count", "torus2:3", "linear:4,2,0,0,1"], 1),
    (["algebra", "validate", "empty.biq"], 1),
    (["quiver", "iso", "nokey.json", "nokey.json"], 1),
    (["quiver", "iso", "range.json", "range.json"], 1),
    (["quiver", "iso", "dup.json", "dup.json"], 1),
    (["quiver", "iso", "missing.json", "missing.json"], 1),
    (["algebra", "validate", "zero.biq"], 1),
    (["color", "count", "torus2:3", "zero.biq"], 1),
    (["quiver", "iso", "notjson.json", "missing.json"], 1),
], ids=lambda v: " ".join(v) if isinstance(v, list) else f"exit{v}")
def test_bad_input_exit_codes(tmp_path, capsys, argv, code):
    for name, text in BAD_INPUT_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in BAD_INPUT_FILES else a for a in argv]
    got, out, err = run(capsys, *argv)
    assert got == code
    assert out == ""
    prefix = "usage error: " if code == 2 else "error: "
    assert err.startswith(prefix) and len(err.splitlines()) == 1
    if argv[:2] == ["quiver", "iso"] and code == 1:  # the first dump is bad; the error names it
        assert repr(argv[2]) in err


def test_out_of_memory_exits_1_without_a_traceback(monkeypatch, capsys):
    def exhausted(n):  # stands in for tables too large to allocate: `algebra dihedral 100000`
        raise MemoryError

    # a small order, so that a patch that did not take allocates nothing large either
    monkeypatch.setattr(biqknot.algebra, "make_dihedral", exhausted)
    code, out, err = run(capsys, "color", "count", "torus2:3", "dihedral:3")
    assert (code, out) == (1, "")
    assert err == "error: out of memory; the input is too large for this machine\n"


def test_count_over_a_huge_dihedral_builds_no_table(monkeypatch, capsys):
    def refuse(n, mats):
        raise AssertionError(f"built the {n}-element tables")

    monkeypatch.setattr(biqknot.algebra, "_module_tables", refuse)
    assert run(capsys, "color", "count", "torus2:3", "dihedral:1000000") == (0, "1000000\n", "")


def test_integers_are_ascii_digits_only(tmp_path, capsys):
    # int() alone would read other scripts' digits, '_' separators and spaces
    for arg in ("\u0663", " 3 ", "3 ", "1_1", "+3"):
        code, out, err = run(capsys, "color", "count", f"torus2:{arg}", "dihedral:3")
        assert (code, out, err) == (2, "", f"usage error: expected an integer, got {arg!r}\n")
    code, out, err = run(capsys, "color", "count", "torus2:3", "dihedral:1_0")
    assert (code, out, err) == (2, "", "usage error: expected an integer, got '1_0'\n")
    code, out, err = run(capsys, "bridge", "seeds", "torus2:3", "--kmax", "\u0663")
    assert (code, out, err) == (2, "", "usage error: expected an integer, got '\u0663'\n")
    assert run(capsys, "color", "count", "torus2:3", "dihedral:-3")[0] == 1  # a number, refused
    assert run(capsys, "color", "count", "torus2:3", "dihedral:010") == (0, "10\n", "")
    table = tmp_path / "r1.txt"
    table.write_text("1\n1\n\n1_0\n")  # a table entry is a bad file, exit 1
    assert run(capsys, "algebra", "endos", str(table)) == (
        1, "", "error: bad table entry: invalid literal for int() with base 10: '1_0'\n")


@pytest.mark.parametrize("spelling", ["\u0663", "\u0661", "1_0", "+3", "\u00b2"])
def test_every_reader_refuses_an_integer_int_alone_would_read(capsys, spelling):
    # each is a number to int() or str.isdigit(); no reader of outside text takes it
    wire = f"X+ 0 1 {spelling} 2\nX+ 2 {spelling} 5 4\nX+ 4 5 1 0\n"  # T(2,3), ids 3 respelled
    with pytest.raises(ParseError, match="^line 1: semiarc ids must be integers$"):
        parse_pd(wire)
    with pytest.raises(ParseError, match="^line 2: L line takes one nonnegative count$"):
        parse_pd(f"X+ 0 1 1 0\nL {spelling}\n")
    with pytest.raises(ValueError, match="^first line must be the size, got "):
        parse_tables(f"{spelling}\n1\n\n1\n")
    with pytest.raises(ValueError) as e:
        parse_tables(f"1\n{spelling}\n\n1\n")
    assert str(e.value) == f"bad table entry: invalid literal for int() with base 10: {spelling!r}"
    assert run(capsys, "color", "count", f"torus2:{spelling}", "dihedral:3") == (
        2, "", f"usage error: expected an integer, got {spelling!r}\n")


def test_long_integers_read_alike_in_process_and_on_the_command_line(tmp_path, capsys):
    # the text readers and the axiom check lift the interpreter's digit limit themselves,
    # as main does for the command line
    big = "9" * 5000
    text = f"1\n{big}\n\n1\n"
    (tmp_path / "big.txt").write_text(text)
    with pytest.raises(AxiomError) as e:
        parse_biquandle(text)
    assert str(e.value) == f"not a biquandle: shape: over table entry {big} at row 1 out of range 1..1"
    code, out, err = run(capsys, "algebra", "endos", str(tmp_path / "big.txt"))
    assert (code, out, err) == (1, "", f"error: {e.value}\n")
    assert parse_tables(text)[0] == [[10**5000 - 1]]
    shape = str(e.value).removeprefix("not a biquandle: ")
    assert [str(v) for v in validate_axioms(*parse_tables(text))] == [shape]


def test_group_order_cap_exits_1(monkeypatch, capsys):
    def capped(gens, cap=None):
        raise GroupOrderCapExceeded("group closure exceeded cap 1")

    monkeypatch.setattr(enhance, "group_order", capped)
    code, out, err = run(capsys, "enhance", "colgroup", "knot:6_1", "dihedral:9")
    assert code == 1
    assert err == "error: group closure exceeded cap 1\n"


@pytest.mark.parametrize("pd, alg, argv, endos", [
    ("torus2:3", "dihedral:3", [], lambda Y: []),
    ("chain:3", "dihedral:4", ["--endo", "2,4,2,4"], lambda Y: [(2, 4, 2, 4)]),
    ("torus2:4", "linear:4,3,0,1,2", ["--all-endos"], enumerate_endos),
], ids=["no-endos", "doubling", "all-endos-of-Z"])
def test_quiver_dump_round_trip(tmp_path, monkeypatch, capsys, pd, alg, argv, endos):
    if not argv:  # the CLI cannot ask for |S| = 0, so patch the endo set it builds from
        monkeypatch.setattr(cli, "endo_set", lambda Y, args: [])
    code, out, _ = run(capsys, "--format", "json", "quiver", "build", pd, alg, *argv)
    assert code == 0
    dump = tmp_path / "q.json"
    dump.write_text(out)
    Y = cli.load_biquandle(alg)
    q = build_quiver(cli.load_diagram(pd), Y, endos(Y))
    assert cli._load_quiver_dump(str(dump)) == q  # vertices, endos and targets


@pytest.mark.parametrize("key", sorted(GOLDEN["commands"]))
def test_cli_golden_bytes(tmp_path, monkeypatch, capsys, key):
    # the README quick start, replayed against the recorded stdout bytes and exit codes
    g = GOLDEN["commands"][key]
    for name, text in GOLDEN["files"].items():
        (tmp_path / name).write_text(text)
    if "stdin" in g:  # reads /dev/stdin, so it runs in a child process
        env = dict(os.environ, PYTHONPATH=str(Path(biqknot.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "biqknot.cli", *g["argv"]], cwd=tmp_path,
                              input=g["stdin"].encode(), capture_output=True, env=env)
        code, out = proc.returncode, proc.stdout.decode()
    else:
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, *g["argv"])
    assert (code, out) == (g["code"], g["stdout"])


def test_diagram_validate_valid(tmp_path, capsys):
    f = tmp_path / "t3_loops.pd"
    f.write_text("X+ 0 1 3 2\nX+ 2 3 5 4\nX+ 4 5 1 0\nL 2\n")
    code, out, err = run(capsys, "diagram", "validate", str(f))
    assert (code, out, err) == (0, "valid: 3 crossings, 6 semiarcs, 3 components\n", "")
    code, out, err = run(capsys, "--format", "json", "diagram", "validate", str(f))
    assert (code, err) == (0, "")
    assert out == '{"components": 3, "crossings": 3, "semiarcs": 6, "valid": true}\n'


@pytest.mark.parametrize("argv, code, err", [
    (["color", "count", "/nonexistent", "dihedral:3"], 2,
     "usage error: cannot read diagram '/nonexistent': [Errno 2] No such file or directory: "
     "'/nonexistent'\n"),
    (["diagram", "gen", "torus2", "0"], 1, "error: torus_2n needs n >= 1, got 0\n"),
    (["diagram", "sum", "torus2:3", "0", "torus2:3", "9"], 1, "error: semiarc 9 not in second diagram\n"),
    (["knots", "show"], 2, "usage error: knots show <name>\n"),
    (["bridge", "lower", "torus2:3", "--alg", "dihedral:1"], 1,
     "error: counting bounds need |X| >= 2\n"),
    (["repro", "--item", "nope"], 1, "error: unknown repro items: ['nope']\n"),
    # an option the action would ignore is refused
    (["bridge", "seeds", "torus2:3", "--alg", "dihedral:3"], 2,
     "usage error: bridge seeds takes no --alg or --mode; they apply to bridge lower\n"),
    (["bridge", "seeds", "torus2:3", "--mode", "b2"], 2,
     "usage error: bridge seeds takes no --alg or --mode; they apply to bridge lower\n"),
    (["bridge", "lower", "torus2:3", "--alg", "dihedral:3", "--kmax", "6"], 2,
     "usage error: bridge lower takes no --kmax; it applies to bridge seeds\n"),
    (["color", "count", "torus2:3", "dihedral:3", "--table"], 2,
     "usage error: color count takes no --table; it applies to color list\n"),
    (["color", "matrix", "torus2:4", "4", "3", "0", "1", "2", "--table"], 2,
     "usage error: color matrix takes no --table; it applies to color list\n"),
    (["color", "list", "torus2:3", "dihedral:3", "--table", "--format", "json"], 2,
     "usage error: color list --table prints text only; it takes no --format json\n"),
    (["--format", "json", "knots", "show", "3_1"], 2,
     "usage error: knots show prints text only; it takes no --format json\n"),
    (["diagram", "gen", "torus2", "3", "--format", "json"], 2,
     "usage error: diagram gen prints text only; it takes no --format json\n"),
    (["--format", "json", "diagram", "sum", "torus2:3", "0", "torus2:3", "0"], 2,
     "usage error: diagram sum prints text only; it takes no --format json\n"),
    (["--format", "json", "algebra", "dihedral", "3"], 2,
     "usage error: algebra dihedral prints text only; it takes no --format json\n"),
    (["algebra", "linear", "4", "3", "0", "1", "2", "--format", "json"], 2,
     "usage error: algebra linear prints text only; it takes no --format json\n"),
    (["--format", "json", "algebra", "endos", "dihedral:3"], 2,
     "usage error: algebra endos prints text only; it takes no --format json\n"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_error_messages_and_exit_codes(capsys, argv, code, err):
    assert run(capsys, *argv) == (code, "", err)


def test_bridge_seeds_reports_no_set_within_kmax(capsys):
    assert run(capsys, "bridge", "seeds", "chain:7") == (
        0, "no saturating seed set of size <= 6\n", "")
    code, out, _ = run(capsys, "--format", "json", "bridge", "seeds", "chain:7")
    assert (code, json.loads(out)) == (0, {"found": False, "k_max": 6})


def test_the_seed_cap_is_read_from_its_one_home(capsys, monkeypatch):
    assert inspect.signature(bridge.min_seed_size).parameters["k_max"].default is bridge.SEED_CAP
    monkeypatch.setattr(bridge, "SEED_CAP", 2)
    assert run(capsys, "bridge", "seeds", "chain:7") == (
        0, "no saturating seed set of size <= 2\n", "")
    code, out, _ = run(capsys, "bridge", "--help")
    assert code == 0 and "largest seed set tried (default 2)" in " ".join(out.split())


def test_the_default_bridge_mode_is_read_from_its_one_home(capsys, monkeypatch):
    assert run(capsys, "bridge", "lower", "torus2:3", "--alg", "dihedral:3")[1].startswith("b1 >= ")
    monkeypatch.setattr(cli, "BRIDGE_MODES", ("b2", "b1"))
    assert run(capsys, "bridge", "lower", "torus2:3", "--alg", "dihedral:3") == (
        0, "b2 >= 2\n  |X| = 3: Col = 9\n", "")
    code, out, _ = run(capsys, "bridge", "--help")
    assert code == 0 and "--mode {b2,b1} lower: bound to report (default b2)" in " ".join(out.split())


def test_repro_timings(capsys):
    code, out, _ = run(capsys, "--format", "json", "repro", "--item", "11-bridge-machinery",
                       "--timings")
    (row,) = json.loads(out)
    assert code == 0 and row["passed"]
    assert isinstance(row["seconds"], float) and row["seconds"] >= 0
    code, out, _ = run(capsys, "repro", "--item", "11-bridge-machinery", "--timings")
    assert code == 0
    assert out.startswith("PASS 11-bridge-machinery [") and out.splitlines()[0].endswith("s)")


def unlimited_str(n):
    """str(n) with the interpreter's digit limit lifted just for the conversion."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
def test_counts_over_4300_digits_print(tmp_path, capsys):
    # 3 colorings of the kink times 3^10000 for the free loops
    f = tmp_path / "kink_loops.pd"
    f.write_text("X+ 0 1 1 0\nL 10000\n")
    limit = sys.get_int_max_str_digits()
    text = unlimited_str(3**10001)  # 4772 digits, beyond the interpreter's default limit
    assert run(capsys, "color", "count", str(f), "dihedral:3") == (0, text + "\n", "")
    assert sys.get_int_max_str_digits() == limit
    assert run(capsys, "--format", "json", "color", "count", str(f), "dihedral:3") == (
        0, '{"count": ' + text + "}\n", "")
    code, out, err = run(capsys, "color", "matrix", str(f), "3", "2", "2", "1", "0")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "# solutions mod 3: " + text
    code, out, err = run(capsys, "--format", "json", "color", "matrix", str(f), "3", "2", "2", "1", "0")
    assert (code, err) == (0, "")
    assert out.endswith('"solutions": ' + text + "}\n")
    assert run(capsys, "bridge", "lower", str(f), "--alg", "dihedral:3") == (
        0, f"b1 >= 10001\n  |X| = 3: Col = {text}\n", "")
    assert run(capsys, "--format", "json", "bridge", "lower", str(f), "--alg", "dihedral:3") == (
        0, '{"bound": 10001, "counts": [[3, ' + text + ']], "mode": "b1"}\n', "")
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
def test_wire_ids_of_any_length(tmp_path, capsys):
    big = "1" + "0" * 5000
    f = tmp_path / "big_ids.pd"
    f.write_text(f"X+ {big} {big[:-1]}1 {big[:-1]}1 {big}\n")
    limit = sys.get_int_max_str_digits()
    assert run(capsys, "diagram", "validate", str(f)) == (
        0, "valid: 1 crossings, 2 semiarcs, 1 components\n", "")
    assert sys.get_int_max_str_digits() == limit
