"""The benchmark's trace wrappers still resolve and are still entered.

`bench/tracing.py` patches library names given as strings, and its observers
read fields of the results (`pair.cycle.cycle`, `pair.f_retained`,
`surgery(...).n`). A rename in the library would break `bench/run.py --trace 1`
or leave a wrapper that reads 0, so real solves run here under its Tracer.
"""

from pathlib import Path

import pytest

from brookscolor import build_graph, chordal, cli, emit_instance, graph, solver, uniform_lists

from reference import cycle_graph

BENCH = Path(__file__).resolve().parent.parent / "bench"

# four F rounds (tests/test_solver.py pins them)
FOUR_ROUNDS_22 = [(1, 2), (1, 20), (1, 22), (2, 5), (2, 9), (3, 10), (3, 17), (3, 22), (4, 7),
                  (4, 8), (4, 12), (5, 14), (5, 18), (6, 15), (6, 18), (6, 21), (7, 12),
                  (7, 17), (8, 10), (8, 19), (9, 15), (9, 21), (10, 13), (11, 14), (11, 16),
                  (11, 20), (12, 17), (13, 19), (13, 22), (14, 16), (15, 21), (16, 20), (18, 19)]
# one H round
H_ROUND_8 = [(1, 2), (1, 3), (1, 7), (2, 7), (2, 8), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6),
             (6, 8), (7, 8)]


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    return tracing


def test_every_trace_wrapper_is_entered(tracing, tmp_path, capsys):
    pin = build_graph(22, FOUR_ROUNDS_22)
    c5 = cycle_graph(5)
    with tracing.Tracer() as library:
        for g in (pin, build_graph(8, H_ROUND_8)):
            solver.brooks_list_color(g, uniform_lists(g, 3))
        assert chordal.verify_peo(c5, chordal.mcs_order(c5)) is not None
    instance = tmp_path / "pin.col"
    instance.write_text(emit_instance(pin))
    with tracing.Tracer() as front:
        assert cli.main(["color", str(instance), "--uniform", "3"]) == 0
        assert cli.main(["chordal", str(instance)]) == 1
    capsys.readouterr()
    # cli.main is not wrapped, so the spans it opens itself are the outermost
    outermost = {span[0] for span in front.spans if span[3] == -1}
    for module, attr, name, _ in tracing.LAYER_WRAPPERS:
        if module == "cli":
            assert name in outermost, (module, attr)
        elif module == "instance_io":
            assert front.counts[name], (module, attr)
        else:
            assert library.counts[name], (module, attr)
    for count in ("hole_vertices", "branch_f", "branch_h", "surgery_vertices", "find_hole_hits"):
        assert library.counts[count], count
    assert solver.surgery is graph.surgery  # the patches are undone on exit
