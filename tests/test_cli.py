import os
import subprocess
import sys
from pathlib import Path

import pytest

from brookscolor import (
    emit_instance,
    parse_coloring,
    parse_instance,
    uniform_lists,
    verify_coloring,
)
from brookscolor import cli
from brookscolor.cli import main

from reference import complete_graph, cycle_graph, path_graph, petersen_graph


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
    # refused before the generator allocates anything for 10**12 vertices
    for argv in (["gen", "--n", "1000000000000"],
                 ["color", "--seedrun", "1", "--n", "1000000000000"],
                 ["gen", "--model", "gnp-capped", "--n", "10001"]):
        code, out, err = run(capsys, argv)
        assert code == 64 and "usage error" in err and out == "", argv


def test_seedrun_reports_counts(capsys):
    code, out, _ = run(capsys, ["color", "--seedrun", "4", "--n", "12",
                                "--delta", "3", "--seed", "1"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert all(line.startswith("seed ") and line.endswith(" pass") for line in lines[:4])
    assert lines[-1] == "pass 4 fail 0"


def test_seedrun_colors_each_instance_before_generating_the_next(capsys, monkeypatch):
    events = []
    real_generate, real_color = cli.generate, cli.brooks_list_color

    def generate(config):
        events.append("generate")
        return real_generate(config)

    def color(g, lists):
        assert events[-1] == "generate"  # the instance just generated, nothing queued
        events.append("color")
        return real_color(g, lists)

    monkeypatch.setattr(cli, "generate", generate)
    monkeypatch.setattr(cli, "brooks_list_color", color)
    code, out, _ = run(capsys, ["color", "--seedrun", "5", "--n", "12", "--delta", "3",
                                "--seed", "1"])
    assert code == 0 and out.splitlines()[-1] == "pass 5 fail 0"
    assert events.count("color") == 5
    assert events.index("color") < len(events) - 1 - events[::-1].index("generate")


def test_seedrun_with_file_is_usage_error(capsys, c5_file):
    code, _, err = run(capsys, ["color", c5_file, "--seedrun", "2"])
    assert code == 64 and "usage error" in err


def test_seedrun_threads_env_same_output(capsys, monkeypatch):
    argv = ["color", "--seedrun", "6", "--n", "14", "--delta", "4", "--seed", "3"]
    code1, out1, _ = run(capsys, argv)
    monkeypatch.setenv("BROOKS_COLOR_THREADS", "3")
    code2, out2, _ = run(capsys, argv)
    assert (code1, out1) == (code2, out2)


def test_seedrun_names_the_exception_of_a_failed_seed(capsys, monkeypatch):
    def broken(g, lists):
        raise RuntimeError("planted")

    monkeypatch.setattr(cli, "brooks_list_color", broken)
    code, out, _ = run(capsys, ["color", "--seedrun", "2", "--n", "12",
                                "--delta", "3", "--seed", "1"])
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
    for argv in (["color", str(edge), "--uniform", "-1"], ["oracle", str(edge), "--limit", "-1"]):
        code, out, err = run(capsys, argv)
        assert code == 64 and out == "" and argv[-2] in err, argv


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
        ["color", "--seedrun", "3", "--n", "10", "--delta", "3", "--seed", "2"],
    ]
    g = cycle_graph(4)
    (tmp_path / "small.col").write_text(emit_instance(g, uniform_lists(g, 2)))
    for argv in commands:
        first = run(capsys, argv)
        second = run(capsys, argv)
        assert first == second, argv


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # both cost start-up time on every command; -S skips site-packages, so the
    # package comes from the source tree
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, brookscolor.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
