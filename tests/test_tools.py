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
    ):
        assert isinstance(line[key], float) and line[key] >= 0
    assert json.loads(json.dumps(line)) == line


def test_time_solvers_prints_the_import_time_first(monkeypatch, capsys):
    """The first line is the median import time of every layer in fresh
    interpreters, the figure ``bench/run.py`` adds to ``setup_s``."""
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import time_solvers

    monkeypatch.setattr(time_solvers, "SHAPES", ())
    monkeypatch.setattr(time_solvers, "CLOSURES", ())
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
