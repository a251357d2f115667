import io

import pytest

import strongcolor.solver as solver
from helpers import disjoint_union, doubled_triangle, path
from strongcolor import MultiGraph, emit_graph, erdos_nesetril_5, load_fixture, parse_coloring, parse_graph, verify
from strongcolor.cli import main


def run_cli(capsys, monkeypatch, argv, stdin: str = ""):
    if stdin:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_is_deterministic(capsys, monkeypatch):
    argv = ["gen", "random_max4", "--n", "30", "--seed", "5"]
    code1, out1, _ = run_cli(capsys, monkeypatch, argv)
    code2, out2, _ = run_cli(capsys, monkeypatch, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    g = parse_graph(out1)
    assert g.vertex_count == 30
    assert g.max_degree() <= 4


def test_gen_fixed_kind_ignores_n(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["gen", "erdos_nesetril_5"])
    assert code == 0
    assert out == emit_graph(erdos_nesetril_5())


def test_gen_flags(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, monkeypatch,
        ["gen", "random_max4", "--n", "12", "--seed", "9", "--loops", "--parallel"],
    )
    assert code == 0
    assert parse_graph(out).max_degree() <= 4


def test_gen_rejects_unknown_kind(capsys, monkeypatch):
    with pytest.raises(SystemExit):
        main(["gen", "mystery"])


def test_stats_fields(capsys, monkeypatch):
    _, graph_text, _ = run_cli(capsys, monkeypatch, ["gen", "erdos_nesetril_5"])
    code, out, _ = run_cli(capsys, monkeypatch, ["stats", "-"], stdin=graph_text)
    assert code == 0
    assert out.splitlines() == ["n=10", "m=20", "max_degree=4", "min_degree=4", "girth=4"]


def test_stats_forest_girth_none(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, monkeypatch, ["stats", "-"], stdin="p sec 3 2\ne 1 2\ne 2 3\n"
    )
    assert code == 0
    assert out.splitlines() == ["n=3", "m=2", "max_degree=2", "min_degree=1", "girth=none"]


@pytest.mark.parametrize(
    "graph, girth",
    [
        (MultiGraph.from_edges(3, [(0, 1), (1, 2), (2, 2)]), "1"),
        (doubled_triangle(), "2"),
        (load_fixture("petersen"), "5"),
        (load_fixture("cage_4_6"), ">=6"),
        (disjoint_union(path(3), load_fixture("cage_4_6"), MultiGraph(2)), ">=6"),
    ],
    ids=["loop", "doubled_triangle", "petersen", "cage_4_6", "cage_4_6_with_a_tree"],
)
def test_stats_girth_as_dispatch_sees_it(capsys, monkeypatch, graph, girth):
    """The shortest cycle's length up to 5, a loop being 1 and a parallel
    pair 2; ">=6" for a graph with a cycle but none that short."""
    code, out, _ = run_cli(capsys, monkeypatch, ["stats", "-"], stdin=emit_graph(graph))
    assert code == 0
    assert out.splitlines()[-1] == f"girth={girth}"


def test_color_pipeline_from_stdin(capsys, monkeypatch):
    _, graph_text, _ = run_cli(capsys, monkeypatch, ["gen", "erdos_nesetril_5"])
    code, out, _ = run_cli(capsys, monkeypatch, ["color", "-"], stdin=graph_text)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "component 1: strategy=girth4 edges=20 colors=20"
    assert "colors_used=20" in lines
    assert "FALLBACK=0" in lines


def test_color_writes_coloring_and_verify_accepts(capsys, monkeypatch, tmp_path):
    graph_file = tmp_path / "g.sec"
    coloring_file = tmp_path / "c.txt"
    _, graph_text, _ = run_cli(
        capsys, monkeypatch, ["gen", "random_max4", "--n", "40", "--seed", "11"]
    )
    graph_file.write_text(graph_text)

    code, out, _ = run_cli(
        capsys, monkeypatch, ["color", str(graph_file), "--out", str(coloring_file)]
    )
    assert code == 0
    col = parse_coloring(coloring_file.read_text(), parse_graph(graph_text))
    assert col.is_total()
    assert verify(col) == []

    code, out, _ = run_cli(
        capsys, monkeypatch, ["verify", str(graph_file), str(coloring_file)]
    )
    assert code == 0
    assert out.strip() == "OK"


def test_verify_flags_conflicts_and_gaps(capsys, monkeypatch, tmp_path):
    graph_file = tmp_path / "g.sec"
    coloring_file = tmp_path / "c.txt"
    graph_file.write_text("p sec 3 2\ne 1 2\ne 2 3\n")
    coloring_file.write_text("0 1\n1 1\n")
    code, out, _ = run_cli(
        capsys, monkeypatch, ["verify", str(graph_file), str(coloring_file)]
    )
    assert code == 1
    assert "edges 0 and 1 both have color 1" in out

    coloring_file.write_text("0 1\n")
    code, out, _ = run_cli(
        capsys, monkeypatch, ["verify", str(graph_file), str(coloring_file)]
    )
    assert code == 1
    assert "uncolored: 1 edges" in out


def test_exact_pentagon(capsys, monkeypatch, tmp_path):
    graph_file = tmp_path / "c5.sec"
    witness_file = tmp_path / "w.txt"
    graph_file.write_text("p sec 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n")
    code, out, _ = run_cli(
        capsys, monkeypatch, ["exact", str(graph_file), "--out", str(witness_file)]
    )
    assert code == 0
    assert out.strip() == "5"
    g = parse_graph(graph_file.read_text())
    col = parse_coloring(witness_file.read_text(), g)
    assert col.is_total()
    assert verify(col) == []


def test_exact_bound_too_low(capsys, monkeypatch, tmp_path):
    graph_file = tmp_path / "c5.sec"
    graph_file.write_text("p sec 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n")
    code, _, err = run_cli(capsys, monkeypatch, ["exact", str(graph_file), "--ub", "4"])
    assert code == 1
    assert "error:" in err


def test_malformed_graph_file_errors(capsys, monkeypatch):
    code, out, err = run_cli(capsys, monkeypatch, ["stats", "-"], stdin="junk\n")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_missing_file_errors(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch, ["color", "/does/not/exist.sec"])
    assert code == 1
    assert "error:" in err


def test_degree_overflow_errors(capsys, monkeypatch):
    k6 = ["p sec 6 15"] + [
        f"e {u + 1} {v + 1}" for u in range(6) for v in range(u + 1, 6)
    ]
    code, _, err = run_cli(capsys, monkeypatch, ["color", "-"], stdin="\n".join(k6) + "\n")
    assert code == 1
    assert "degree" in err


def test_generator_budget_errors(capsys, monkeypatch):
    """No 4-regular graph on 6 vertices has girth 5: the generator's
    rejection budget runs out."""
    code, out, err = run_cli(capsys, monkeypatch, ["gen", "random_4regular", "--n", "6", "--min-girth", "5"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", "4"], "error: 4-regular simple graphs need n >= 5\n"),
        (["--n", "20", "--min-girth", "7"], "error: min_girth must be in 3..6\n"),
    ],
    ids=["n=4", "min_girth=7"],
)
def test_generator_parameter_errors(capsys, monkeypatch, argv, message):
    code, out, err = run_cli(capsys, monkeypatch, ["gen", "random_4regular", *argv])
    assert code == 1
    assert out == "" and err == message


def test_unsatisfiable_errors(capsys, monkeypatch):
    """A K5 whose plan fails and whose rescue then has 9 colors: the
    backtracking fails, and the error carries the K5's graph."""
    def fail_girth3(g, cycle, m, tel):
        tel.check(False, "girth3.cycle-length")

    monkeypatch.setattr(solver, "solve_girth3", fail_girth3)
    monkeypatch.setattr(solver, "PALETTE", 9)
    k5 = "".join(f"e {u} {v}\n" for u in range(1, 6) for v in range(u + 1, 6))
    code, out, err = run_cli(capsys, monkeypatch, ["color", "-"], stdin="p sec 5 10\n" + k5)
    assert code == 1
    assert out == ""
    assert err == f"error: backtracking completion failed on 9 edges\np sec 5 10\n{k5}\n"
