"""End-to-end tests for the command-line interface (in-process)."""

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import siglab
from siglab import cli
from siglab.cli import build_parser, main
from siglab.io import read_graph_json


@pytest.fixture
def line_csv(tmp_path):
    path = tmp_path / "line.csv"
    path.write_text("0\n1\n3\n7\n")
    return path


class TestGen:
    def test_writes_requested_shape(self, tmp_path):
        out = tmp_path / "cloud.csv"
        assert main(["gen", "--n", "20", "--dim", "3", "--seed", "5", "--out", str(out)]) == 0
        rows = [ln for ln in out.read_text().splitlines() if ln]
        assert len(rows) == 20
        assert all(len(r.split(",")) == 3 for r in rows)

    def test_same_seed_same_file(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main(["gen", "--n", "15", "--dim", "2", "--seed", "9", "--out", str(out)])
        assert a.read_text() == b.read_text()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SIGLAB_SEED", "42")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["gen", "--n", "10", "--dim", "1", "--out", str(a)])
        main(["gen", "--n", "10", "--dim", "1", "--seed", "42", "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_bad_env_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SIGLAB_SEED", "many")
        code = main(["gen", "--n", "5", "--dim", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "SIGLAB_SEED must be an integer" in capsys.readouterr().err


class TestRadii:
    def test_prints_one_radius_per_point(self, line_csv, capsys):
        assert main(["radii", "--in", str(line_csv), "--k", "1"]) == 0
        out = capsys.readouterr().out.split()
        assert [float(x) for x in out] == [1.0, 1.0, 2.0, 4.0]

    def test_k_too_large_is_a_usage_error(self, line_csv, capsys):
        assert main(["radii", "--in", str(line_csv), "--k", "9"]) == 2
        assert "insufficient points" in capsys.readouterr().err


class TestBuild:
    def test_writes_graph_and_reports_bounds(self, line_csv, tmp_path, capsys):
        out = tmp_path / "g.json"
        code = main(["build", "--in", str(line_csv), "--k", "1", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["edges"] == [[0, 1], [0, 2], [1, 2], [2, 3]]
        assert payload["radii"] == [1.0, 1.0, 2.0, 4.0]
        text = capsys.readouterr().out
        assert "n=4 k=1" in text
        assert "witnesses (0, 1) degrees (2, 2) -> ok" in text

    def test_dot_output(self, line_csv, tmp_path):
        out = tmp_path / "g.dot"
        assert main(["build", "--in", str(line_csv), "--k", "1", "--out", str(out)]) == 0
        assert out.read_text().startswith("graph influence {")

    def test_norm_option(self, tmp_path):
        pts = tmp_path / "sq.csv"
        pts.write_text("0,0\n1,0\n0,1\n1,1\n")
        out = tmp_path / "g.json"
        code = main(["build", "--in", str(pts), "--norm", "linf", "--k", "1", "--out", str(out)])
        assert code == 0
        assert len(json.loads(out.read_text())["edges"]) == 6

    def test_bad_norm_is_a_usage_error(self, line_csv, tmp_path, capsys):
        code = main(
            ["build", "--in", str(line_csv), "--norm", "lp:0.5", "--k", "1",
             "--out", str(tmp_path / "g.json")]
        )
        assert code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_missing_input_is_a_usage_error(self, tmp_path, capsys):
        code = main(
            ["build", "--in", str(tmp_path / "void.csv"), "--k", "1",
             "--out", str(tmp_path / "g.json")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestColor:
    def test_prints_colors_and_summary(self, tmp_path, capsys):
        pts = tmp_path / "three.csv"
        pts.write_text("0\n1\n3\n")
        assert main(["color", "--in", str(pts), "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 1 2" in out
        assert "(k=2) -> ok" in out


class TestVerify:
    def test_passes_and_writes_json(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(["verify", "--seed", "0", "--instances", "8", "--json", str(report_path)])
        assert code == 0
        text = capsys.readouterr().out
        assert "[PASS]" in text and "checks passed" in text
        payload = json.loads(report_path.read_text())
        assert payload["passed"] is True

    def test_injected_fault_fails(self, capsys):
        code = main(["verify", "--seed", "0", "--instances", "8", "--inject-fault"])
        assert code == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_fault_report_does_not_depend_on_the_bytecode_cache(self, tmp_path):
        # the first run compiles siglab into the cache and the second loads it
        # back; a frozenset constant would come back in another element order
        env = dict(os.environ, PYTHONPATH=str(Path(siglab.__file__).parents[1]), PYTHONPYCACHEPREFIX=str(tmp_path))
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        argv = [sys.executable, "-m", "siglab", "verify", "--seed", "0", "--instances", "8", "--inject-fault"]
        runs = [subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120) for _ in range(2)]
        assert [run.returncode for run in runs] == [1, 1]
        assert any(tmp_path.rglob("suites*.pyc"))
        assert runs[0].stdout == runs[1].stdout
        assert "want frozenset({(0, 1), (0, 2), (1, 2), (2, 3)})" in runs[1].stdout


class TestTheta:
    def test_line_bounds(self, tmp_path, capsys):
        witness = tmp_path / "w.json"
        code = main(
            ["theta", "--norm", "l2", "--dim", "1", "--restarts", "2",
             "--candidates", "500", "--witness", str(witness)]
        )
        assert code == 0
        assert "lower=5 upper=5" in capsys.readouterr().out
        points = json.loads(witness.read_text())["points"]
        assert sorted(points) == [[-2.0], [-1.0], [0.0], [1.0], [2.0]]


class TestExport:
    def test_json_to_dot(self, line_csv, tmp_path):
        graph = tmp_path / "g.json"
        main(["build", "--in", str(line_csv), "--k", "1", "--out", str(graph)])
        dot = tmp_path / "g.dot"
        assert main(["export", "--in", str(graph), "--out", str(dot)]) == 0
        content = dot.read_text()
        assert content.startswith("graph influence {")
        assert content.count("--") == 4

    def test_corrupt_graph_is_a_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code = main(["export", "--in", str(bad), "--out", str(tmp_path / "g.dot")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


HUGE = "1" + "0" * 400  # a JSON integer too large for int64 and float64

BAD_INPUTS = {
    # case: (input file name, its content, subcommand and options, text the error must hold)
    "nan-coordinate": ("p.csv", "0,0\n1,nan\n2,2\n", ["build"], "point 1 has a non-finite"),
    "inf-coordinate": ("p.csv", "0,0\n1,0\ninf,2\n", ["build"], "point 2 has a non-finite"),
    "bool-coordinate": ("p.json", '{"points": [[0, 0], [1, true], [2, 2]]}', ["build"], "point 1"),
    "inf-weight": ("p.csv", "0,0\n1,0\n2,2\n", ["build", "--norm", "wlp:2:1,inf"], "weight inf"),
    "nan-functional": ("p.csv", "0,0\n1,0\n2,2\n", ["build", "--norm", "poly:{tmp}/f.json"], "functional 1"),
    "scalar-edges": ("g.json", '{"n": 3, "k": 1, "edges": [1, 2], "radii": [1, 1, 1]}', ["export"], "edges"),
    "null-n": ("g.json", '{"n": null, "k": 1, "edges": [], "radii": [1, 1, 1]}', ["export"], "n and k"),
    "huge-coordinate": ("p.json", '{"points": [[0, 0], [1, ' + HUGE + '], [2, 2]]}', ["build"], "points holds"),
    "huge-radius": ("g.json", '{"n": 2, "k": 1, "edges": [], "radii": [1, ' + HUGE + "]}", ["export"], "radii holds"),
    "huge-edge": ("g.json", '{"n": 2, "k": 1, "edges": [[0, ' + HUGE + ']], "radii": [1, 1]}', ["export"], "edges holds"),
    # a truncated point file, and a point file given to export: the error names the file
    "truncated-json": ("p.json", '{"points": [[0, 0], [1, 1]', ["build"], "p.json is not valid JSON"),
    "points-as-graph": ("p.csv", "0,0\n1,1\n2,2\n", ["export"], "p.csv is not valid JSON"),
    "nan-radius": ("g.json", '{"n": 2, "k": 1, "edges": [[0, 1]], "radii": [NaN, 1]}', ["export"], "radius 0"),
    "negative-radius": ("g.json", '{"n": 2, "k": 1, "edges": [], "radii": [1, -1]}', ["export"], "g.json: radius 1"),
    # finite coordinates whose differences overflow, and an l2 whose squares do
    "overflow-difference": ("p.csv", "-1e308\n1e308\n0\n", ["build", "--k", "1"], "overflow"),
    "overflow-square": ("p.csv", "-1e200,0\n1e200,0\n0,0\n", ["build", "--norm", "l2"], "overflow"),
    # one file holds both the points and the functionals
    "huge-functional": (
        "p.json",
        '{"points": [[0, 0], [1, 0], [2, 2]], "functionals": [[1, 0], [0, ' + HUGE + "]]}",
        ["build", "--norm", "poly:{tmp}/p.json"],
        "p.json holds a number too large",
    ),
    "ragged-functionals": (
        "p.json",
        '{"points": [[0, 0], [1, 0], [2, 2]], "functionals": [[1, 0], [0, 1, 2]]}',
        ["build", "--norm", "poly:{tmp}/p.json"],
        "p.json: functional 1 has 3 entries",
    ),
    "empty-functionals": (
        "p.json",
        '{"points": [[0, 0], [1, 0], [2, 2]], "functionals": []}',
        ["build", "--norm", "poly:{tmp}/p.json"],
        "p.json: functionals is an empty list",
    ),
    "no-entry-functionals": (
        "p.json",
        '{"points": [[0, 0], [1, 0], [2, 2]], "functionals": [[], []]}',
        ["build", "--norm", "poly:{tmp}/p.json"],
        "p.json: functionals have no entries",
    ),
    "bool-functional": (
        "p.json",
        '{"points": [[0, 0], [1, 0], [2, 2]], "functionals": [[1, 0], [0, true]]}',
        ["build", "--norm", "poly:{tmp}/p.json"],
        "functionals must be lists of numbers",
    ),
    # the bounds are about distinct points: build refuses a multiset, and
    # distinct points whose distance underflows to 0 (|1e-9|^40 is below tiny)
    "coincident": ("p.csv", "0.0\n" * 30, ["build", "--k", "1"], "points 0 and 1 coincide"),
    "underflow": (
        "p.csv",
        "".join(f"{i * 1e-9!r}\n" for i in range(30)),
        ["build", "--norm", "lp:40", "--k", "1"],
        "underflows to 0",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_non_finite_or_malformed_input_is_a_usage_error(case, tmp_path, capsys):
    name, content, argv, message = BAD_INPUTS[case]
    (tmp_path / name).write_text(content)
    (tmp_path / "f.json").write_text('{"functionals": [[1, 0], [0, NaN], [1, 1]]}')
    out = tmp_path / ("g.dot" if argv[0] == "export" else "out.json")
    argv = [a.format(tmp=tmp_path) for a in argv]
    code = main(argv + ["--in", str(tmp_path / name), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--instances", "-3"],
        # k reaches 5, so an instance can need 6 points
        ["verify", "--max-points", "3"],
        ["theta", "--dim", "2", "--restarts", "0"],
        ["theta", "--dim", "2", "--candidates", "0"],
        # a box draw lands in the l1 ball with probability 1/16!, and the
        # lattice pass is skipped: the sampler must give up, not spin
        ["theta", "--norm", "l1", "--dim", "16", "--candidates", "1"],
    ],
)
def test_malformed_verify_and_theta_arguments_are_usage_errors(argv, tmp_path, capsys):
    code = main(argv + (["--witness", str(tmp_path / "w.json")] if argv[0] == "theta" else []))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--k", "x"],
        ["build", "--in", "p.csv", "--out", "g.json", "--bogus"],
        ["build", "--out", "g.json"],
        ["theta", "--dim", "2", "--restarts", "many"],
        # the removed thread-pool option
        ["theta", "--dim", "2", "--workers", "2"],
        ["nosuch"],
        [],
    ],
)
def test_argument_errors_raised_by_the_parser_are_one_line(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# the child's address-space cap: above the cost of starting Python and
# importing numpy and siglab with one BLAS thread (about 150 MB), far below
# the 2.4 GB that 10^8 points in R^3 need
_CHILD_AS_LIMIT = 600 * 2**20


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (_CHILD_AS_LIMIT, _CHILD_AS_LIMIT))


def test_running_out_of_memory_is_one_error_line_and_exit_2(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(siglab.__file__).parents[1]))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = ["gen", "--n", str(10**8), "--dim", "3", "--out", str(tmp_path / "p.csv")]
    child = subprocess.run(
        [sys.executable, "-m", "siglab", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=_cap_address_space,
    )
    assert child.returncode == 2 and child.stdout == ""
    assert child.stderr == "error: gen ran out of memory\n"


def test_main_reuses_one_parser_and_build_parser_makes_a_new_one(tmp_path, capsys):
    assert cli._parser() is cli._parser()
    assert build_parser() is not build_parser() is not cli._parser()
    # a parse leaves nothing behind for the next one
    witness = tmp_path / "w.json"
    assert main(["theta", "--dim", "1", "--restarts", "1", "--witness", str(witness)]) == 0
    assert main(["theta", "--dim", "2", "--witness", str(witness)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"lower=5 upper=5 witness={witness}",
        f"lower=13 upper=25 witness={witness}",
    ]


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: siglab build")


# graph documents for the reader: well-formed ones (reversed, duplicate and
# self-loop edges included), and ones with one key, edge, index or radius
# swapped for a wrong type, a bool, null, a nested list, NaN/Infinity, an
# oversize integer or an out-of-range index, or with a key missing
_JUNK = st.sampled_from(
    [True, False, None, "", "1", [], [0, 1, 2], [[0, 1]], int(HUGE), -int(HUGE), -1, 99]
    + [float("nan"), float("inf"), -float("inf"), 1.5]
)


@st.composite
def _graph_docs(draw):
    n = draw(st.integers(0, 6))
    index = st.integers(0, max(n - 1, 0))
    doc = {
        "n": n,
        "k": draw(st.integers(1, 3)),
        "edges": draw(st.lists(st.lists(index, min_size=2, max_size=2), max_size=8)),
        "radii": draw(st.lists(st.floats(0.0, 10.0) | st.integers(0, 10), min_size=n, max_size=n)),
    }
    key = draw(st.sampled_from(sorted(doc)))
    change = draw(st.sampled_from(["none", "none", "key", "entry", "index", "drop", "top"]))
    if change == "key":
        doc[key] = draw(_JUNK)
    elif change == "entry":
        entries = doc["edges"] if key == "edges" else doc["radii"]
        if entries:
            entries[-1] = draw(_JUNK)
    elif change == "index" and doc["edges"]:
        doc["edges"][-1][draw(st.integers(0, 1))] = draw(_JUNK)
    elif change == "drop":
        del doc[key]
    elif change == "top":
        doc = draw(_JUNK)
    return doc


@settings(max_examples=200, deadline=None)
@given(doc=_graph_docs())
def test_export_on_generated_graph_files_exits_0_or_2(doc):
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "g.json", Path(tmp) / "out.json"
        src.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["export", "--in", str(src), "--out", str(out)])
        if code == 0:
            graph, radii = read_graph_json(src)
            again, radii_again = read_graph_json(out)
            assert again == graph and radii_again.k == radii.k
            assert radii_again.radii.tobytes() == radii.radii.tobytes()
        else:
            assert code == 2
            message = err.getvalue()
            assert message.startswith("error: ") and message.count("\n") == 1


# point files for build, CSV or JSON, with an optional poly: functionals file:
# well-formed ones (distinct rows, k < m, functionals spanning the space), and
# ones with a junk token, a ragged row, NaN/Infinity, a 400-digit integer, a
# coincident row or the wrong dimension, in the points or in the functionals
_CSV_JUNK = ["x", "1e", "--1", "0x10", "1.2.3", "true", "None"]
_JSON_JUNK = [True, False, None, "", "1", [], [1.0]]
_BAD_NUMBERS = [float("nan"), float("inf"), -float("inf"), int(HUGE), -int(HUGE)]
_FAULTS = ["junk", "ragged", "nonfinite", "huge", "coincident", "dim", "poly"]


@st.composite
def _build_inputs(draw):
    """(format, point rows, dim option, "dim" key, functionals, k, well-formed)."""
    fmt = draw(st.sampled_from(["csv", "json"]))
    dim = draw(st.integers(1, 3))
    # distinct rows: each is the base-41 digits of a distinct code, shifted and scaled
    codes = draw(st.sets(st.integers(0, 41**dim - 1), min_size=2, max_size=8))
    scale = draw(st.sampled_from([1, 0.25, 0.1]))
    rows = [[(c // 41**a % 41 - 20) * scale for a in range(dim)] for c in sorted(codes)]
    functionals = None
    if draw(st.booleans()):
        extra = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
        functionals = np.eye(dim, dtype=int).tolist() + draw(st.lists(extra, max_size=2))
    k = draw(st.integers(1, len(rows) - 1))
    dim_option, dim_key = None, dim
    fault = draw(st.sampled_from(["none"] + _FAULTS + ["none"]))
    junk = _CSV_JUNK if fmt == "csv" else _JSON_JUNK
    if fault == "junk":
        rows[-1][-1] = draw(st.sampled_from(junk))
    elif fault == "ragged":
        rows[-1].append(0)
    elif fault == "nonfinite":
        rows[-1][-1] = draw(st.sampled_from(_BAD_NUMBERS[:3]))
    elif fault == "huge":
        rows[-1][-1] = draw(st.sampled_from(_BAD_NUMBERS[3:]))
    elif fault == "coincident":
        rows[-1] = list(rows[0])
    elif fault == "dim":
        if fmt == "csv":
            dim_option = dim + 1
        else:
            dim_key = dim + 1
    elif fault == "poly":
        functionals = functionals or np.eye(dim, dtype=int).tolist()
        change = draw(st.sampled_from(["entry", "ragged", "width"]))
        if change == "entry":
            functionals[-1][-1] = draw(st.sampled_from(_JSON_JUNK + _BAD_NUMBERS))
        elif change == "ragged":
            functionals[-1].append(1)
        else:
            functionals = [row + [1] for row in functionals]
    return fmt, rows, dim_option, dim_key, functionals, k, fault == "none"


@settings(max_examples=200, deadline=None)
@given(case=_build_inputs())
def test_build_on_generated_point_files_exits_0_1_or_2(case):
    fmt, rows, dim_option, dim_key, functionals, k, well_formed = case
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / f"p.{fmt}"
        if fmt == "csv":
            src.write_text("".join(",".join(map(str, row)) + "\n" for row in rows))
        else:
            src.write_text(json.dumps({"dim": dim_key, "points": rows}))
        argv = ["build", "--in", str(src), "--k", str(k), "--out", str(Path(tmp) / "g.json")]
        if dim_option is not None:
            argv += ["--dim", str(dim_option)]
        if functionals is not None:
            (Path(tmp) / "f.json").write_text(json.dumps({"functionals": functionals}))
            argv += ["--norm", f"poly:{tmp}/f.json"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    message = err.getvalue()
    if well_formed:
        assert code in (0, 1) and message == ""
    else:
        assert code == 2
        assert message.startswith("error: ") and message.count("\n") == 1
