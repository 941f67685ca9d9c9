import gc
import hashlib
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from brookscolor import (
    MODELS,
    GeneratorConfig,
    emit_instance,
    generate,
    max_degree,
    parse_coloring,
    parse_instance,
    uniform_lists,
    verify_coloring,
)
from brookscolor import cli, solver
from brookscolor.cli import main

from reference import complete_graph, cycle_graph, four_rounds_22, path_graph, petersen_graph

gen_mod = importlib.import_module("brookscolor.generate")


@pytest.fixture()
def c5_file(tmp_path):
    path = tmp_path / "c5.col"
    path.write_text(emit_instance(cycle_graph(5)))
    return str(path)


@pytest.fixture()
def petersen_file(tmp_path):
    path = tmp_path / "petersen.col"
    path.write_text(emit_instance(petersen_graph()))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chordal_hole_output(capsys, c5_file):
    code, out, _ = run(capsys, ["chordal", c5_file])
    assert code == 1
    assert out == "hole 1 2 3 4 5\n"


def test_chordal_peo_output(capsys, tmp_path):
    path = tmp_path / "p3.col"
    path.write_text(emit_instance(path_graph(3)))
    code, out, _ = run(capsys, ["chordal", str(path)])
    assert code == 0
    assert out == "chordal 1 2 3\n"


def test_chordal_empty_graph(capsys, tmp_path):
    path = tmp_path / "empty.col"
    path.write_text("p edge 0 0\n")
    code, out, _ = run(capsys, ["chordal", str(path)])
    assert code == 0 and out == "chordal\n"


def test_color_verify_pipeline(capsys, petersen_file, tmp_path):
    code, out, _ = run(capsys, ["color", petersen_file, "--uniform", "3"])
    assert code == 0
    g = petersen_graph()
    phi = parse_coloring(out)
    assert verify_coloring(g, uniform_lists(g, 3), phi) is None
    coloring_file = tmp_path / "out.col"
    coloring_file.write_text(out)
    code, out2, _ = run(capsys, ["verify", petersen_file, str(coloring_file)])
    assert code == 0 and out2 == "ok\n"


def test_color_k4_with_one_long_list(capsys, tmp_path):
    # K4 with lists {1, 2, 3} and one list {1, 2, 3, 4}: the long list gives
    # slack, so this is not the complete-graph obstruction
    g = complete_graph(4)
    lists = {v: frozenset(range(1, 4 + (v == 4))) for v in g.vertices}
    instance = tmp_path / "k4.col"
    instance.write_text(emit_instance(g, lists))
    code, out, err = run(capsys, ["color", str(instance)])
    assert code == 0 and err == ""
    assert verify_coloring(g, lists, parse_coloring(out)) is None
    coloring_file = tmp_path / "out.col"
    coloring_file.write_text(out)
    code, out, _ = run(capsys, ["verify", str(instance), str(coloring_file)])
    assert code == 0 and out == "ok\n"


def test_color_uses_embedded_lists(capsys, tmp_path):
    g = cycle_graph(5)
    path = tmp_path / "c5l.col"
    path.write_text(emit_instance(g, uniform_lists(g, 3)))
    code, out, _ = run(capsys, ["color", str(path)])
    assert code == 0
    assert verify_coloring(g, uniform_lists(g, 3), parse_coloring(out)) is None


def test_color_hypothesis_violation_exit_code(capsys, tmp_path):
    g = complete_graph(4)
    path = tmp_path / "k4.col"
    path.write_text(emit_instance(g))
    code, out, err = run(capsys, ["color", str(path), "--uniform", "3"])
    assert code == 2 and out == "" and "hypothesis violation" in err


def test_color_without_lists_is_usage_error(capsys, petersen_file):
    code, _, err = run(capsys, ["color", petersen_file])
    assert code == 64 and "usage error" in err


def test_verify_defect_exit_code(capsys, tmp_path):
    g = path_graph(2)
    instance = tmp_path / "p2.col"
    instance.write_text(emit_instance(g))
    bad = tmp_path / "bad.col"
    bad.write_text("v 1 1\nv 2 1\n")
    code, out, _ = run(capsys, ["verify", str(instance), str(bad)])
    assert code == 3 and out.startswith("defect:")


def test_verify_incomplete_coloring_is_a_defect(capsys, tmp_path):
    g = path_graph(2)
    instance = tmp_path / "p2.col"
    instance.write_text(emit_instance(g))
    partial = tmp_path / "partial.col"
    partial.write_text("v 1 1\n")
    code, out, _ = run(capsys, ["verify", str(instance), str(partial)])
    assert code == 3 and out.startswith("defect:")


def test_oracle_solves_and_unsat_and_limit(capsys, tmp_path):
    g = complete_graph(3)
    sat = tmp_path / "k3sat.col"
    sat.write_text(emit_instance(g, uniform_lists(g, 3)))
    code, out, _ = run(capsys, ["oracle", str(sat)])
    assert code == 0
    assert verify_coloring(g, uniform_lists(g, 3), parse_coloring(out)) is None

    unsat = tmp_path / "k3unsat.col"
    unsat.write_text(emit_instance(g, uniform_lists(g, 2)))
    code, out, _ = run(capsys, ["oracle", str(unsat)])
    assert code == 4 and out == "unsatisfiable\n"

    code, out, _ = run(capsys, ["oracle", str(unsat), "--limit", "2"])
    assert code == 5 and out == "limit-exceeded\n"


def test_oracle_on_a_long_path(capsys, tmp_path):
    # one stack frame per vertex would overflow the interpreter's stack here
    g = path_graph(5000)
    lists = uniform_lists(g, 2)
    path = tmp_path / "p5000.col"
    path.write_text(emit_instance(g, lists))
    code, out, _ = run(capsys, ["oracle", str(path)])
    assert code == 0
    assert verify_coloring(g, lists, parse_coloring(out)) is None


def test_oracle_without_lists_is_usage_error(capsys, petersen_file):
    code, _, err = run(capsys, ["oracle", petersen_file])
    assert code == 64 and "usage error" in err


def test_gen_output_parses_and_respects_flags(capsys):
    code, out, _ = run(capsys, ["gen", "--n", "15", "--delta", "3", "--seed", "5",
                                "--model", "gnp-capped", "--list-size", "2",
                                "--palette", "7"])
    assert code == 0
    g, lists = parse_instance(out)
    assert g.n == 15
    assert all(len(lists[v]) == 2 for v in g.vertices)


def test_gen_defaults(capsys):
    code, out, _ = run(capsys, ["gen"])
    assert code == 0
    g, lists = parse_instance(out)
    assert g.n == 30
    assert all(len(lists[v]) == 4 for v in g.vertices)  # default list size = delta


def test_gen_infeasible_config_is_usage_error(capsys, no_list_draws):
    code, _, err = run(capsys, ["gen", "--n", "5", "--delta", "0"])
    assert code == 64 and "usage error" in err
    # a negative list size must not keep "all but the last |k|" palette colors
    for extra in (["--list-size", "-3", "--palette", "10"], ["--palette", "-1"],
                  ["--list-size", "1000001", "--palette", "2000000"],
                  # 10**12 list entries in all
                  ["--n", "1000000", "--list-size", "1000000", "--palette", "1000000"]):
        code, out, err = run(capsys, ["gen", "--n", "3", "--delta", "2", *extra])
        assert code == 64 and "usage error" in err and out == "", extra


def test_gen_vertex_cap_is_usage_error(capsys):
    # refused by the generator's cap before it allocates anything for 10**12
    # vertices
    for argv in (["gen", "--n", "1000000000000"],
                 ["seedrun", "1", "--n", "1000000000000"],
                 ["gen", "--model", "gnp-capped", "--n", "10001"]):
        code, out, err = run(capsys, argv)
        assert code == 64 and "usage error: " in err and "n must be" in err and out == "", argv


def test_seedrun_reports_counts(capsys):
    code, out, _ = run(capsys, ["seedrun", "4", "--n", "12", "--delta", "3", "--seed", "1"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert all(line.startswith("seed ") and line.endswith(" pass") for line in lines[:4])
    assert lines[-1] == "pass 4 fail 0"
    # every seed is one vertex with an empty list, so all 1 100 tries fail the
    # hypotheses and no seed line is printed
    code, out, err = run(capsys, ["seedrun", "1", "--n", "1", "--delta", "0"])
    assert code == 64 and out == ""
    assert "could not generate enough hypothesis-satisfying instances" in err


def test_seedrun_colors_each_instance_before_generating_the_next(capsys, monkeypatch):
    events = []
    real_generate, real_color = gen_mod.generate, solver.brooks_list_color

    def generate(config):
        events.append("generate")
        return real_generate(config)

    def color(g, lists):
        assert events[-1] == "generate"  # the instance just generated, nothing queued
        events.append("color")
        return real_color(g, lists)

    monkeypatch.setattr(gen_mod, "generate", generate)
    monkeypatch.setattr(solver, "brooks_list_color", color)
    code, out, _ = run(capsys, ["seedrun", "5", "--n", "12", "--delta", "3", "--seed", "1"])
    assert code == 0 and out.splitlines()[-1] == "pass 5 fail 0"
    assert events.count("color") == 5
    assert events.index("color") < len(events) - 1 - events[::-1].index("generate")


def test_seedrun_screens_each_seed_once(capsys, monkeypatch):
    # the solver's own hypothesis scan screens a seed; no second pass over it
    generated, passes = [], []
    real_generate, real_scan = gen_mod.generate, solver._check_hypotheses

    def generate(config):
        generated.append(config.seed)
        return real_generate(config)

    def scan(g, lists):
        passes.append(g.n)
        return real_scan(g, lists)

    monkeypatch.setattr(gen_mod, "generate", generate)
    monkeypatch.setattr(solver, "_check_hypotheses", scan)
    # lists of 3 colors: seeds 1, 2, 5, 6, 8 and 9 have a component of max
    # degree 4 and fail the hypotheses
    code, out, _ = run(capsys, ["seedrun", "4", "--model", "gnp-capped", "--n", "8",
                                "--delta", "4", "--list-size", "3", "--seed", "1"])
    assert code == 0 and out.splitlines()[-1] == "pass 4 fail 0"
    assert generated == list(range(1, 11))
    assert len(passes) == len(generated)


def test_seedrun_with_file_is_usage_error(capsys, c5_file):
    for argv in (["seedrun", "2", c5_file], ["color", c5_file, "--seedrun", "2"]):
        code, out, err = run(capsys, argv)
        assert code == 64 and out == "" and "usage error" in err, argv


def test_seedrun_names_the_exception_of_a_failed_seed(capsys, monkeypatch):
    def broken(g, lists):
        raise RuntimeError("planted")

    monkeypatch.setattr(solver, "brooks_list_color", broken)
    code, out, _ = run(capsys, ["seedrun", "2", "--n", "12", "--delta", "3", "--seed", "1"])
    lines = out.splitlines()
    assert code == 1
    assert len(lines) == 3
    assert all(line.startswith("seed ") and line.endswith(" fail RuntimeError: planted")
               for line in lines[:2])
    assert lines[-1] == "pass 0 fail 2"


def test_usage_errors(capsys, tmp_path, monkeypatch):
    assert run(capsys, [])[0] == 64
    assert run(capsys, ["frobnicate"])[0] == 64
    assert run(capsys, ["chordal"])[0] == 64  # missing file argument
    assert run(capsys, ["chordal", str(tmp_path / "missing.col")])[0] == 64
    edge = tmp_path / "edge.col"
    edge.write_text(emit_instance(path_graph(2)))
    monkeypatch.setattr(cli, "uniform_lists", None)  # K is refused before any list is built
    for k in ("100000000000", "1000001"):
        code, out, err = run(capsys, ["color", str(edge), "--uniform", k])
        assert code == 64 and out == "" and "--uniform" in err
    monkeypatch.setattr(cli, "_read", None)  # negative counts are refused before any read
    for argv in (["color", str(edge), "--uniform", "-1"], ["oracle", str(edge), "--limit", "-1"],
                 ["seedrun", "2", "--n", "10", "--delta", "3", "--uniform", "-1"],
                 # generator flags belong to gen and seedrun, so color refuses them
                 ["color", str(edge), "--n", "5", "--model", "gnp-capped", "--palette", "-3"],
                 ["color", str(edge), "--delta", "3"], ["color", str(edge), "--seed", "0"],
                 ["color", str(edge), "--list-size", "2"],
                 ["color", "--seedrun", "2", "--n", "10"]):
        code, out, err = run(capsys, argv)
        assert code == 64 and out == "" and argv[-2] in err, argv
    # color needs a FILE; seedrun generates its own instances and colors their lists
    for argv, said in ((["color"], "file"), (["seedrun", "2", str(edge)], str(edge)),
                       (["seedrun", "2", "--uniform", "3"], "--uniform"),
                       (["seedrun", "0"], "positive instance count")):
        code, out, err = run(capsys, argv)
        assert code == 64 and out == "" and "usage error: " in err and said in err, argv
    # the models and the generators' refusal live outside generate.py; the
    # bytes were computed before they moved
    choices = ("usage error: argument --model: invalid choice: 'nope' (choose from"
               " 'tree-plus-edges', 'chordal-simplicial', 'gnp-capped')\n")
    for argv, said in ((["gen", "--model", "nope"], choices),
                       (["seedrun", "1", "--model", "nope"], choices),
                       (["gen", "--n", "3", "--delta", "1"],
                        "usage error: no spanning tree with degree cap 1 on 3 vertices\n"),
                       (["seedrun", "2", "--model", "chordal-simplicial", "--n", "3",
                         "--delta", "1"], "usage error: degree cap 1 cannot fit 3 vertices\n")):
        assert run(capsys, argv) == (64, "", said), argv


def test_uniform_beyond_max_degree_builds_max_degree_plus_one_colors(capsys, tmp_path,
                                                                    monkeypatch):
    # any K > max degree colors alike, so the CLI builds at most max degree + 1
    g, _ = generate(GeneratorConfig(n=60, delta=4, seed=3))
    path = tmp_path / "tree.col"
    path.write_text(emit_instance(g))
    sizes = []
    real = cli.uniform_lists

    def spy(graph, k):
        sizes.append(k)
        return real(graph, k)

    monkeypatch.setattr(cli, "uniform_lists", spy)
    delta = max_degree(g)
    outs = [run(capsys, ["color", str(path), "--uniform", str(k)])
            for k in (1_000_000, delta + 1, delta + 7)]
    assert outs[0][0] == 0 and outs[0] == outs[1] == outs[2]
    assert sizes == [delta + 1] * 3


def test_zero_counts_keep_their_meaning(capsys, tmp_path):
    edge = tmp_path / "edge.col"
    edge.write_text(emit_instance(path_graph(2), uniform_lists(path_graph(2), 2)))
    code, out, err = run(capsys, ["color", str(edge), "--uniform", "0"])
    assert code == 2 and out == "" and "hypothesis violation" in err
    assert run(capsys, ["oracle", str(edge), "--limit", "0"])[:2] == (5, "limit-exceeded\n")


def test_malformed_file_is_data_error(capsys, tmp_path):
    bad = tmp_path / "bad.col"
    bad.write_text("p edge 2 1\ne 1 1\n")
    code, _, err = run(capsys, ["chordal", str(bad)])
    assert code == 65 and "bad input data" in err
    worse = tmp_path / "worse.col"
    worse.write_text("p edge 2 1\ne 1 9\n")
    assert run(capsys, ["chordal", str(worse)])[0] == 65
    huge = tmp_path / "huge.col"
    huge.write_text("p edge 1000000000000 0\n")
    assert run(capsys, ["color", str(huge), "--uniform", "3"])[0] == 65
    dense = tmp_path / "dense.col"
    dense.write_text("p edge 3 4\ne 1 2\n")
    assert run(capsys, ["chordal", str(dense)])[0] == 65
    binary = tmp_path / "binary.col"
    binary.write_bytes(b"p edge 2 1\ne 1 2\nc \xff\xfe\x80\n")
    good = tmp_path / "good.col"
    good.write_text(emit_instance(path_graph(2)))
    coloring = tmp_path / "good-coloring.col"
    coloring.write_text("v 1 1\nv 2 2\n")
    for argv in (["chordal", str(binary)], ["color", str(binary), "--uniform", "3"],
                 ["oracle", str(binary)], ["verify", str(binary), str(coloring)],
                 ["verify", str(good), str(binary)]):
        code, _, err = run(capsys, argv)
        assert code == 65 and "bad input data" in err, argv


def test_every_subcommand_deterministic(capsys, tmp_path, c5_file, petersen_file):
    coloring = tmp_path / "pet-coloring.col"
    _, out, _ = run(capsys, ["color", petersen_file, "--uniform", "3"])
    coloring.write_text(out)
    commands = [
        ["gen", "--n", "25", "--delta", "4", "--seed", "7"],
        ["chordal", c5_file],
        ["color", petersen_file, "--uniform", "3"],
        ["verify", petersen_file, str(coloring)],
        ["oracle", str(tmp_path / "small.col")],
        ["seedrun", "3", "--n", "10", "--delta", "3", "--seed", "2"],
    ]
    g = cycle_graph(4)
    (tmp_path / "small.col").write_text(emit_instance(g, uniform_lists(g, 2)))
    for argv in commands:
        first = run(capsys, argv)
        second = run(capsys, argv)
        assert first == second, argv
    # the batch ran, rather than two identical refusals
    assert first[0] == 0 and first[1].endswith("pass 3 fail 0\n")


def _fresh_child(code, *args):
    # -S skips site-packages, so the package comes from the source tree
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-S", "-c", code, *args], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_cli_import_leaves_dataclasses_and_inspect_unloaded(tmp_path):
    # each costs start-up time on every command (array is a shared library
    # that a lane constant could be built with); color and chordal never
    # generate, so they never compile the generators either, and loading the
    # generators for gen and seedrun must not pull them in or build the
    # generators' lane constants
    path = tmp_path / "petersen.col"
    path.write_text(emit_instance(petersen_graph(), uniform_lists(petersen_graph(), 3)))
    code = ("import sys, brookscolor.cli as cli; "
            "loaded = lambda: sorted({'array', 'dataclasses', 'inspect', 'brookscolor.generate'}"
            " & set(sys.modules)); "
            "print(loaded()); "
            "print(cli.main(['color', sys.argv[1]]), cli.main(['chordal', sys.argv[1]]), loaded()); "
            "import brookscolor.generate; "
            "print(loaded(), len(sys.modules['brookscolor.generate']._LANES))")
    out = _fresh_child(code, str(path)).splitlines()
    assert out[0] == "[]"
    assert out[-2] == "0 1 []"  # Petersen is colored, and has a hole
    assert out[-1] == "['brookscolor.generate'] 0"


def test_each_command_loads_only_the_modules_it_runs(tmp_path, capsys):
    # chordal compiles neither the solver nor the oracle; verify and oracle
    # compile the oracle alone
    g = petersen_graph()
    instance, coloring = tmp_path / "petersen.col", tmp_path / "petersen.out"
    instance.write_text(emit_instance(g, uniform_lists(g, 3)))
    coloring.write_text(run(capsys, ["color", str(instance)])[1])
    code = ("import sys, brookscolor.cli as cli; code = cli.main(sys.argv[1:]); print(code, sorted("
            "{'brookscolor.generate', 'brookscolor.oracle', 'brookscolor.solver'} & set(sys.modules)))")
    expected = {
        ("chordal", instance): "1 []",
        ("gen", "--n", "5"): "0 ['brookscolor.generate']",
        ("verify", instance, coloring): "0 ['brookscolor.oracle']",
        ("oracle", instance): "0 ['brookscolor.oracle']",
        ("color", instance): "0 ['brookscolor.oracle', 'brookscolor.solver']",
        ("seedrun", "1", "--n", "8", "--delta", "3"):
            "0 ['brookscolor.generate', 'brookscolor.oracle', 'brookscolor.solver']",
    }
    for argv, loaded in expected.items():
        assert _fresh_child(code, *map(str, argv)).splitlines()[-1] == loaded, argv


def test_star_import_and_dir_list_the_names_served_on_first_access():
    code = ("import brookscolor; listed = set(dir(brookscolor)); from brookscolor import *; "
            "names = brookscolor.__all__; "
            "print(len(names) == len(set(names)), sorted(set(names) - set(globals())), "
            "sorted(set(names) - listed), sorted({'GeneratorConfig', 'SplitMix64', 'generate', "
            "'brooks_list_color', 'verify_coloring', 'build_graph', 'MODELS'} - set(names)), "
            "sorted({'sys', 'ModuleType', 'graph', 'solver', '__version__'} & set(names)))")
    assert _fresh_child(code) == "True [] [] [] []\n"


_GENERATOR_NAMES = ("MODELS", "GeneratorConfig", "InfeasibleConfig", "SplitMix64", "generate",
                    "random_lists")


@pytest.mark.parametrize("first", ["importlib.import_module('brookscolor.generate')",
                                   "from brookscolor import SplitMix64",
                                   "from brookscolor import generate"])
def test_package_generate_stays_the_function(first):
    # loading the submodule binds it on the package under its own name; the
    # package's `generate` must stay the generator function whichever way it
    # is first loaded
    code = (f"import importlib, sys, brookscolor; {first}; "
            "from brookscolor import generate, GeneratorConfig; "
            "module = sys.modules['brookscolor.generate']; "
            "g, lists = generate(GeneratorConfig(n=6, delta=3, seed=1)); "
            f"print(callable(brookscolor.generate), g.n, len(lists), "
            f"[getattr(brookscolor, name) is getattr(module, name) for name in {_GENERATOR_NAMES}])")
    assert _fresh_child(code) == f"True 6 6 {[True] * 6}\n"


def _entry_point(*argv, stdout=subprocess.PIPE):
    # `python -m brookscolor` as users run it, site-packages on, with the
    # source tree first on the path; the default stdout buffering, so a
    # closed pipe shows as an error, not as a short write
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-m", "brookscolor", *map(str, argv)], env=env,
                            stdout=stdout, stderr=subprocess.PIPE, text=True)


@pytest.fixture(scope="module")
def large_file(tmp_path_factory):
    # its coloring is several times a pipe's 64 KiB buffer
    path = tmp_path_factory.mktemp("large") / "large.col"
    config = GeneratorConfig(n=30_000, delta=4, seed=1, palette=8, list_size=4)
    path.write_text(emit_instance(*generate(config)))
    return path


def test_entry_point_matches_main(capsys, tmp_path, c5_file, large_file):
    # one argv per exit code; the child freezes the collector before it
    # exits, and must still print what main prints, whole, and exit with
    # its code
    k4, p2, bad, bad_data = (tmp_path / name for name in ("k4.col", "p2.col", "bad.out",
                                                          "bad.col"))
    k4.write_text(emit_instance(complete_graph(4)))
    p2.write_text(emit_instance(path_graph(2)))
    bad.write_text("v 1 1\nv 2 1\n")
    bad_data.write_text("p edge 2 1\ne 1 1\n")
    expected_codes = {
        ("color", large_file): 0,
        ("chordal", c5_file): 1,
        ("color", k4, "--uniform", "3"): 2,
        ("verify", p2, bad): 3,
        ("color",): 64,
        ("chordal", bad_data): 65,
    }
    frozen = gc.get_freeze_count()
    for argv, expected in expected_codes.items():
        child = _entry_point(*argv)
        out, err = child.communicate(timeout=120)
        in_process = run(capsys, list(map(str, argv)))
        assert (child.returncode, out, err) == in_process, argv
        assert in_process[0] == expected, argv
    assert gc.get_freeze_count() == frozen  # main never freezes the collector


def test_entrypoint_freezes_the_collector_after_the_command(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    with pytest.raises(SystemExit) as exited:
        cli.entrypoint()
    assert exited.value.code == 3 and calls == ["main", "freeze"]


@pytest.mark.parametrize("command", ["color", "chordal"])
def test_closed_stdout_is_an_output_error(command, large_file, c5_file):
    # color's output outgrows the pipe, so a write after the first line
    # meets the closed pipe; chordal's one line waits in the buffer for the
    # flush, into a pipe closed before the child starts
    if command == "color":
        child = _entry_point("color", large_file)
        assert child.stdout.readline().startswith("v ")
        child.stdout.close()
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        child = _entry_point("chordal", c5_file, stdout=write_end)
        os.close(write_end)
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=120) == 64
    assert err == "cannot write output: [Errno 32] Broken pipe\n"


def _cli_digests(capsys, tmp_path):
    # sha256 over exit code, stdout and stderr of `color FILE` then `chordal
    # FILE`, per generated instance (model, n, delta) and for the four-round pin
    instances = {}
    for model in MODELS:
        for n in (10, 60, 300):
            for delta in (3, 5):
                cfg = GeneratorConfig(n=n, delta=delta, model=model, seed=n + delta)
                instances[f"{model} {n} {delta}"] = generate(cfg)
    pin = four_rounds_22()
    instances["four-rounds-22"] = (pin, uniform_lists(pin, 3))
    digests = {}
    for name, (g, lists) in instances.items():
        path = tmp_path / "instance.col"
        path.write_text(emit_instance(g, lists))
        digest = hashlib.sha256()
        for argv in (["color", str(path)], ["chordal", str(path)]):
            code, out, err = run(capsys, argv)
            digest.update(f"{code}\n{out}\n{err}\n".encode())
        digests[name] = digest.hexdigest()
    return digests


# Computed with the parser (edge tuples, a dict of sets) and the solver passes
# (Graph.neighbors calls, a frozenset per greedy step) that came before the
# one-pass front end.
_PINNED_CLI = {
    "tree-plus-edges 10 3": "6cdbddf6a55cad0af80458e4ab6adfd7eb4cae16224ce7440d67ac21a8b5825e",
    "tree-plus-edges 10 5": "72846d7a0d67432d3442ed34a45df676e757a9b8106f28d4333f8bd4bad1bb56",
    "tree-plus-edges 60 3": "d4c103dd9e9126889b0cb04335affc8785f11aca1edc50d7f47bb207652d6dbd",
    "tree-plus-edges 60 5": "8b0a61e010f747eddf1c2a0940b9dc8f52934d97793946bf2446a44ed0cad80c",
    "tree-plus-edges 300 3": "26093377cc85009e2ab8a67b9b6bde942a7baae9bee531e0e2f4e330433ed7a1",
    "tree-plus-edges 300 5": "62cd8ea9b7f25d83a6e1f883c038b7378014767eb20c1d64411e5e4a005460e7",
    "chordal-simplicial 10 3": "8f42ac94e762484f1c7a8e9ba8b97251f02d3b5dfb6c2748251b257d5ec7e014",
    "chordal-simplicial 10 5": "b128ff9115016a06dae48e95fd1f16575bba2b6dc62db3ed128a0468b1adf71a",
    "chordal-simplicial 60 3": "54acb1af2b864c24ec15428ca15318491db757309964aa6a417034004a42ec2c",
    "chordal-simplicial 60 5": "6c7279dc2346c2801d9648a7f7322a3661215bad5139a8331c110ada3ff41edf",
    "chordal-simplicial 300 3": "7d2206898c078af295d65f4793a3258e944c943fc4c47a6723ea1a0cafe1aa7c",
    "chordal-simplicial 300 5": "cff921666210037ca52a7e232956429c7ea4d664e95120208da8bee51429253e",
    "gnp-capped 10 3": "ccd6fca406148646394cb303fdc400b8a098ca840c3053c254b03de642a2964b",
    "gnp-capped 10 5": "88e4b5f9de7ee9306bff973b8cdd64be37a5d2f79590afb68cbe8af5b5f0750d",
    "gnp-capped 60 3": "77dc97297bc76d6fdd31597456076dae677088990cda3fe9ab2f3e5b9b2094b4",
    "gnp-capped 60 5": "f1b691dfee7144f15271c321b76d2547ba987d1f194a981ed8939dbc70678e91",
    "gnp-capped 300 3": "90607eafb9c80faf5c9c262c1e609b6f56abc2185b2eeccfc15c5095394b12ce",
    "gnp-capped 300 5": "4d0785be95b6a784bac8960b998e8a355d9f2e914a9d2e5db5e88cc327c8db5d",
    "four-rounds-22": "170456e1da886598d8ac76dc1a26021bb0fb5060063b3da25da37207980dd4cf",
}


def test_cli_bytes_pinned(capsys, tmp_path):
    assert _cli_digests(capsys, tmp_path) == _PINNED_CLI
