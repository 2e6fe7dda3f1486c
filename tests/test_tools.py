"""The repository tools under ``tools/``."""

import json
import pathlib

import fixtures

ROOT = pathlib.Path(__file__).resolve().parents[1]

SOURCE = '''"""Module docstring,
over two lines."""

import sys  # a trailing comment keeps the line


# a comment line
def f(x):
    """One-line docstring."""

    y = """a string that is not a docstring
spans two lines"""
    return x, y


class C:
    """Class docstring."""
    value = 1
'''


def test_code_lines_skip_docstrings_comments_and_blanks(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import code_lines

    # import, def, y = (two lines), return, class, value
    assert code_lines.code_lines(SOURCE) == 7
    assert code_lines.docstring_lines(SOURCE) == {1, 2, 9, 17}


def test_code_lines_prints_each_module_and_the_total(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import code_lines

    first, second = tmp_path / "a.py", tmp_path / "b.py"
    first.write_text(SOURCE, encoding="utf-8")
    second.write_text("x = 1\n\n# end\n", encoding="utf-8")
    assert code_lines.main([str(first), str(second)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "     7  a.py",
        "     1  b.py",
        "     8  total",
        "",
    ]


def test_time_solvers_times_the_dim_10_grid_shape(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import time_solvers

    assert time_solvers.SHAPES == tuple((4, False, m) for m in range(2, 8))
    line = time_solvers.time_solvers((4, False, 2))
    assert line["shape"] == [4, False, 2] and line["dim"] == 10
    assert (line["skew_derivations"], line["invariant_forms"]) == (10, 5)
    assert line["nilradical_dim"] == 8
    assert line["nilradical_closure_rounds"] == 0
    n = line["dim"]
    assert isinstance(line["invariance_rows"], int) and isinstance(line["cocycle_rows"], int)
    assert line["invariance_rows"] <= n * (n - 1) + 2 * (n * (n - 1) * (n - 2) // 6)
    # the unknowns are the n(n+1)/2 entries of a symmetric form and the
    # n(n-1)/2 of an alternating one; each kernel is the solution space
    assert line["invariance_rank"] == n * (n + 1) // 2 - line["invariant_forms"] == 50
    assert line["cocycle_rank"] == n * (n - 1) // 2 - line["skew_derivations"] == 35
    for key in (
        "skew_derivation_space_s",
        "invariant_symmetric_forms_s",
        "quadratic_constructor_s",
        "nilradical_s",
        "check_s",
        "analyze_s",
        "loads_s",
        "dumps_s",
        "build_with_heisenberg_ideal_s",
        "double_extension_s",
        "coadjoint_double_s",
    ):
        assert isinstance(line[key], float) and line[key] >= 0
    assert json.loads(json.dumps(line)) == line


def test_time_solvers_times_the_builder_on_the_draws_of_the_grid_algebra(monkeypatch):
    """``build_input`` repeats the draws of ``grid_algebras``: its base
    change moves the build of its input onto the grid algebra."""
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import time_solvers
    from bench.workloads import grid_algebras
    from quadlie.heisenberg import build_with_heisenberg_ideal
    from quadlie.quadform import transport_quadratic

    for shape in ((4, False, 2), (3, False, 3)):
        S, D, V, sigma, P = time_solvers.build_input(shape)
        built = build_with_heisenberg_ideal(S, D, V, sigma)
        assert transport_quadratic(built, P) == grid_algebras([shape])[0]


def test_time_solvers_prints_the_import_time_first(monkeypatch, capsys):
    """The first line is the median import time of every layer in fresh
    interpreters, the figure ``bench/run.py`` adds to ``setup_s``."""
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import time_solvers

    monkeypatch.setattr(time_solvers, "SHAPES", ())
    monkeypatch.setattr(time_solvers, "CLOSURES", ())
    monkeypatch.setattr(time_solvers, "RECOVERIES", ())
    assert time_solvers.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    line = json.loads(lines[0])
    assert list(line) == ["import_s"]
    assert isinstance(line["import_s"], float) and 0 < line["import_s"] < 10


def test_time_solvers_counts_the_closure_rounds(monkeypatch):
    """sl2 beside the dim-6 filiform algebra: its radical is nilpotent, so
    K_R = 0 and R passes the nilpotent-ideal test before any round of
    words; sl2 alone has no radical.  The rotation core and the 5-dim
    trace-zero algebra are solvable, not nilpotent, and K_R = 0 on both:
    the first round's word, the square of the one generator, leaves the
    kernel at R (the trace of its cube is 0), the second cuts it to the
    floor.  The count leaves
    ``structure._echelon`` as it was."""
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import time_solvers
    from quadlie import structure
    from quadlie.liealg import direct_sum

    saved = structure._echelon
    sl2 = fixtures.sl2()
    assert time_solvers.closure_rounds(direct_sum(sl2, time_solvers.filiform(6))) == 0
    assert time_solvers.closure_rounds(sl2) == 0
    assert time_solvers.closure_rounds(fixtures.build_rotation_core_fixture().algebra) == 2
    assert time_solvers.closure_rounds(fixtures.five_dim_trace_zero()) == 2
    assert structure._echelon is saved


def test_time_solvers_times_the_closure_shapes(monkeypatch):
    """One line per closure shape, each with a kernel above the floor:
    the nilpotent doubles stop on R, the rotation core and its double run
    rounds of words."""
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import time_solvers

    expected = {
        "coadjoint_double(filiform 5)": (10, 10, 10, 0),
        "coadjoint_double(filiform 7)": (14, 14, 14, 0),
        "build_rotation_core": (6, 6, 5, 2),
        "coadjoint_double(build_rotation_core)": (12, 12, 11, 3),
    }
    assert time_solvers.CLOSURES == tuple(expected)
    for name, dims in expected.items():
        line = time_solvers.time_closure(name)
        assert line["closure"] == name
        assert (line["dim"], line["radical_dim"], line["nilradical_dim"],
                line["nilradical_closure_rounds"]) == dims
        assert isinstance(line["nilradical_s"], float) and line["nilradical_s"] >= 0
        assert json.loads(json.dumps(line)) == line


def test_time_solvers_times_recovery_and_the_certificate(monkeypatch, capsys):
    """The recovery shapes are the (3, False, m) grid shapes of dimension
    11, 15 and 19; a run on the first prints, after the import time, one
    line with its analyze, recovery and certificate seconds."""
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import time_solvers

    assert time_solvers.RECOVERIES == ((3, False, 3), (3, False, 5), (3, False, 7))
    monkeypatch.setattr(time_solvers, "SHAPES", ())
    monkeypatch.setattr(time_solvers, "CLOSURES", ())
    monkeypatch.setattr(time_solvers, "RECOVERIES", ((3, False, 3),))
    assert time_solvers.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    line = json.loads(lines[1])
    assert list(line) == ["recovery", "dim", "analyze_s", "recover_s", "certificate_s"]
    assert line["recovery"] == [3, False, 3] and line["dim"] == 11
    for key in ("analyze_s", "recover_s", "certificate_s"):
        assert isinstance(line[key], float) and line[key] >= 0
