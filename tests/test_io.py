"""Round-trip and format tests for point files and graph exports."""

import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siglab import io as sio
from siglab.io import (
    export_graph,
    graph_to_dot,
    parse_points,
    read_graph_json,
    write_points,
)
from siglab.norms import lp_norm
from siglab.sig import (
    InfluenceGraph,
    PointSet,
    RadiusAssignment,
    build_ksig,
    kth_radii,
)


class TestParsePoints:
    def test_csv(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0.0,1.0\n2.5,-3.0\n")
        ps = parse_points(path)
        assert ps.points.tolist() == [[0.0, 1.0], [2.5, -3.0]]

    def test_csv_skips_blank_lines_and_spaces(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0, 1\n\n 2 , 3 \n")
        assert parse_points(path).points.tolist() == [[0.0, 1.0], [2.0, 3.0]]

    def test_json(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text(json.dumps({"dim": 2, "points": [[0, 1], [2, 3]]}))
        ps = parse_points(path)
        assert ps.dim == 2 and len(ps) == 2

    def test_format_override_beats_extension(self, tmp_path):
        path = tmp_path / "pts.dat"
        path.write_text("1,2\n3,4\n")
        assert len(parse_points(path, fmt="csv")) == 2

    def test_ragged_csv(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0,1\n2\n")
        with pytest.raises(ValueError, match="ragged row at line 2"):
            parse_points(path)

    def test_non_numeric_csv(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0,1\nx,3\n")
        with pytest.raises(ValueError, match="non-numeric field at line 2"):
            parse_points(path)

    def test_empty_csv(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("\n\n")
        with pytest.raises(ValueError, match="contains no points"):
            parse_points(path)

    def test_ragged_json(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text(json.dumps({"points": [[0, 1], [2]]}))
        with pytest.raises(ValueError, match="ragged row at index 1"):
            parse_points(path)

    def test_json_dim_mismatch(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text(json.dumps({"dim": 3, "points": [[0, 1]]}))
        with pytest.raises(ValueError, match='declares "dim": 3'):
            parse_points(path)

    def test_requested_dim_mismatch(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0,1\n2,3\n")
        with pytest.raises(ValueError, match="dim=3 was requested"):
            parse_points(path, dim=3)

    def test_json_without_points_key(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text(json.dumps([[0, 1]]))
        with pytest.raises(ValueError, match='"points" key'):
            parse_points(path)

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "pts.xml"
        path.write_text("")
        with pytest.raises(ValueError, match="unsupported format"):
            parse_points(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            parse_points(tmp_path / "absent.csv")


class TestWritePoints:
    @pytest.mark.parametrize("name", ["out.csv", "out.json"])
    def test_round_trip_is_bit_exact(self, tmp_path, name):
        rng = np.random.default_rng(17)
        original = PointSet(rng.uniform(-10.0, 10.0, size=(23, 3)))
        path = tmp_path / name
        write_points(original, path)
        again = parse_points(path)
        assert np.array_equal(again.points, original.points)

    def test_awkward_values_survive(self, tmp_path):
        original = PointSet(
            np.array([[0.1 + 0.2, 1e-300], [math.pi, -1234567.891011]])
        )
        path = tmp_path / "awkward.csv"
        write_points(original, path)
        assert np.array_equal(parse_points(path).points, original.points)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("rows", [2, 3, 4, 5, 7])
    def test_csv_bytes_are_the_per_row_repr_text(self, tmp_path, monkeypatch, dim, rows):
        # chunks of 2 rows, so 3 to 7 rows cross chunk boundaries
        monkeypatch.setattr(sio, "_CHUNK", 2)
        values = [-0.0, 5e-324, 1.7976931348623157e308, 1e16, 0.1, -2.5, 3.0]
        flat = (values * (rows * dim))[: rows * dim]
        original = PointSet(np.array(flat).reshape(rows, dim))
        path = tmp_path / "pts.csv"
        write_points(original, path)
        per_row = "\n".join(",".join(repr(v) for v in row) for row in original.points.tolist()) + "\n"
        assert path.read_bytes() == per_row.encode()
        assert parse_points(path).points.tobytes() == original.points.tobytes()


@pytest.fixture
def line_graph():
    ps = PointSet(np.array([[0.0], [1.0], [3.0], [7.0]]))
    norm = lp_norm(2.0, 1)
    radii = kth_radii(ps, 1, norm)
    graph = build_ksig(ps, radii, norm)
    return graph, radii


def _dot_text(radii, pairs):
    """The DOT text by one f-string per line."""
    lines = ["graph influence {"]
    lines += [f'  {i} [label="{i} r={r!r}"];' for i, r in enumerate(radii.radii.tolist())]
    lines += [f"  {i} -- {j};" for i, j in sorted(pairs)]
    return "\n".join(lines + ["}"]) + "\n"


class TestGraphExport:
    def test_json_payload(self, tmp_path, line_graph):
        graph, radii = line_graph
        path = tmp_path / "g.json"
        export_graph(graph, radii, path)
        payload = json.loads(path.read_text())
        assert payload == {
            "n": 4,
            "k": 1,
            "edges": [[0, 1], [0, 2], [1, 2], [2, 3]],
            "radii": [1.0, 1.0, 2.0, 4.0],
        }

    def test_edges_are_lexicographic(self, tmp_path):
        graph = InfluenceGraph(5, frozenset({(3, 4), (0, 4), (0, 2), (1, 2)}))
        radii = RadiusAssignment(2, np.ones(5))
        path = tmp_path / "g.json"
        export_graph(graph, radii, path)
        assert json.loads(path.read_text())["edges"] == [[0, 2], [0, 4], [1, 2], [3, 4]]

    def test_json_round_trip(self, tmp_path, line_graph):
        graph, radii = line_graph
        path = tmp_path / "g.json"
        export_graph(graph, radii, path)
        graph2, radii2 = read_graph_json(path)
        assert graph2 == graph
        assert radii2.k == radii.k
        assert np.array_equal(radii2.radii, radii.radii)

    def test_dot_output(self, line_graph):
        graph, radii = line_graph
        dot = graph_to_dot(graph, radii)
        lines = dot.splitlines()
        assert lines[0] == "graph influence {"
        assert lines[-1] == "}"
        assert '  0 [label="0 r=1.0"];' in lines
        assert "  2 -- 3;" in lines
        assert sum(1 for ln in lines if "--" in ln) == 4

    @pytest.mark.parametrize(
        "n, pairs",
        [(0, []), (3, []), (2, [(0, 1)]), (6, [(0, 5), (1, 2), (1, 4), (2, 3), (3, 5)])],
        ids=["empty", "edgeless", "one-edge", "three-pieces"],
    )
    def test_dot_bytes_are_one_line_per_edge(self, monkeypatch, n, pairs):
        # two edges per piece, so five edges are written in three
        monkeypatch.setattr(sio, "_CHUNK", 2)
        graph, radii = InfluenceGraph(n, pairs), RadiusAssignment(1, np.linspace(0.0, 0.3, n))
        assert graph_to_dot(graph, radii) == _dot_text(radii, pairs)

    @pytest.mark.parametrize(
        "n, pairs",
        [(0, []), (3, []), (2, [(0, 1)]), (6, [(0, 5), (1, 2), (1, 4), (2, 3), (3, 5)])],
        ids=["empty", "edgeless", "one-edge", "three-pieces"],
    )
    def test_dot_export_streams_pieces(self, monkeypatch, tmp_path, n, pairs):
        # two node or edge lines per piece, each written as it comes
        monkeypatch.setattr(sio, "_CHUNK", 2)
        graph, radii = InfluenceGraph(n, pairs), RadiusAssignment(1, np.linspace(0.0, 0.3, n))
        written = []

        class Recorder(io.StringIO):
            def write(self, piece):
                written.append(piece)
                return super().write(piece)

        monkeypatch.setattr("builtins.open", lambda path, mode: Recorder())
        export_graph(graph, radii, tmp_path / "g.dot")
        assert "".join(written) == _dot_text(radii, pairs)
        # the header, each section's pieces and closing newline, then the footer
        sections = [(n + 1) // 2 + 1 if n else 0, (len(pairs) + 1) // 2 + 1 if pairs else 0]
        assert len(written) == 2 + sum(sections)

    def test_dot_file_export(self, tmp_path, line_graph):
        graph, radii = line_graph
        path = tmp_path / "g.dot"
        export_graph(graph, radii, path)
        assert path.read_text() == graph_to_dot(graph, radii)

    def test_vertex_count_mismatch(self, tmp_path, line_graph):
        graph, _ = line_graph
        with pytest.raises(ValueError, match="disagree"):
            export_graph(graph, RadiusAssignment(1, np.ones(3)), tmp_path / "g.json")

    def test_read_folds_reversed_and_duplicate_edges(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": 2, "k": 1, "edges": [[1, 0], [0, 1]], "radii": [1, 1]}))
        graph, _ = read_graph_json(path)
        assert graph.pairs.tolist() == [[0, 1]]

    def test_read_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": 2, "k": 1, "edges": []}))
        with pytest.raises(ValueError, match="missing the 'radii' key"):
            read_graph_json(path)

    def test_read_rejects_radii_length(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(
            json.dumps({"n": 3, "k": 1, "edges": [], "radii": [1.0]})
        )
        with pytest.raises(ValueError, match="1 radii for 3 vertices"):
            read_graph_json(path)


def _outcome(fn, *args):
    """("ok", value) or ("error", message) of fn(*args)."""
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


def _per_line_points(path):
    """parse_points of a CSV file by the per-line parser alone."""
    rows = sio._csv_rows(Path(path).read_text().splitlines())
    if not rows:
        raise ValueError(f"{path} contains no points")
    return PointSet(points=np.array(rows, dtype=np.float64))


# CSV text: numbers, the characters of numbers, separators, line breaks (the
# ones str.splitlines breaks at and loadtxt does not among them), comment and
# quote characters, an underscore, a Unicode digit, nan and inf
_CSV_TOKENS = st.sampled_from(
    list("0123456789.eE+-,") + [" ", "\t", "#", "_", '"', "\u0663", "nan", "inf", "-inf"]
    + ["\n", "\r\n", "\r", "\n\n", "\n \t\n", "\v", "\x85", "\u2028"]
)
_CSV_VALUES = st.floats(allow_nan=False).map(repr) | st.integers(-99, 99).map(str) | st.sampled_from(
    ["1_0", "\u0663", "nan", "inf", "1e", "", "#1", '"1"']
)
# padding around a value: whitespace to strip, or a line break inside a row
_CSV_PADS = st.sampled_from(["", "", "", " ", "\t", "\xa0", "\f", "\v", "\x85", "\u2028"])
_CSV_FIELDS = st.tuples(_CSV_PADS, _CSV_VALUES, _CSV_PADS).map("".join)


@st.composite
def _csv_texts(draw):
    if draw(st.booleans()):
        return "".join(draw(st.lists(_CSV_TOKENS, max_size=30)))
    width = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(_CSV_FIELDS, min_size=width, max_size=width), min_size=1, max_size=6))
    breaks = st.sampled_from(["\n", "\n", "\r\n", "\n\n", "\n  \n", "\f"])
    return "".join(",".join(row) + draw(breaks) for row in rows)


class TestParseAgreesWithThePerLineParser:
    @settings(max_examples=300, deadline=None)
    @given(text=_csv_texts())
    def test_same_points_or_same_error(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.csv"
            path.write_bytes(text.encode())
            fast, slow = _outcome(parse_points, path), _outcome(_per_line_points, path)
        assert fast[0] == slow[0]
        if fast[0] == "ok":
            assert fast[1].points.shape == slow[1].points.shape
            assert fast[1].points.tobytes() == slow[1].points.tobytes()
        else:
            assert fast[1] == slow[1]

    def test_well_formed_csv_skips_the_per_line_parser(self, tmp_path, monkeypatch):
        original = PointSet(np.random.default_rng(3).uniform(-5.0, 5.0, size=(40, 3)))
        write_points(original, tmp_path / "p.csv")
        monkeypatch.setattr(sio, "_csv_rows", None)
        assert parse_points(tmp_path / "p.csv").points.tobytes() == original.points.tobytes()

    @pytest.mark.parametrize("field, value", [("1_0", 10.0), ("\u0663", 3.0)])
    def test_fields_only_float_reads_take_the_per_line_parser(self, tmp_path, field, value):
        (tmp_path / "p.csv").write_text(f"{field},2\n3,4\n")
        assert parse_points(tmp_path / "p.csv").points.tolist() == [[value, 2.0], [3.0, 4.0]]


def _payload_text(graph, radii):
    payload = {"n": graph.n, "k": radii.k, "edges": graph.pairs.tolist(), "radii": radii.radii.tolist()}
    return json.dumps(payload) + "\n"


class TestGraphWriterBytes:
    @pytest.mark.parametrize(
        "n, pairs, values",
        [
            (0, [], []),
            (1, [], [0.0]),
            (2, [(0, 1)], [0.0, 5e-324]),
            (3, [(0, 2), (1, 2)], [1.7976931348623157e308, 0.1 + 0.2, 1e-300]),
        ],
    )
    def test_export_bytes_equal_json_dumps(self, tmp_path, n, pairs, values):
        graph, radii = InfluenceGraph(n, pairs), RadiusAssignment(2, np.array(values, dtype=np.float64))
        export_graph(graph, radii, tmp_path / "g.json")
        assert (tmp_path / "g.json").read_text() == _payload_text(graph, radii)

    def test_vertex_ids_near_the_largest_vertex_count(self):
        top = 2**31 - 1
        graph = InfluenceGraph(top, [(0, top - 1), (top - 3, top - 2), (top - 2, top - 1)])
        radii = RadiusAssignment(1, np.array([0.5, 2.0]))
        assert "".join(sio._graph_json(graph, radii)) == _payload_text(graph, radii)

    @pytest.mark.parametrize("edges", [0, 1, 2, 3, 4, 5, 7])
    def test_chunk_boundaries(self, tmp_path, monkeypatch, edges):
        monkeypatch.setattr(sio, "_CHUNK", 2)
        pairs = [(i, i + 1) for i in range(edges)]
        radii = RadiusAssignment(1, np.linspace(0.0, 1.0, edges + 1))
        graph = InfluenceGraph(edges + 1, pairs)
        export_graph(graph, radii, tmp_path / "g.json")
        text = (tmp_path / "g.json").read_text()
        assert text == _payload_text(graph, radii)
        again, radii_again = read_graph_json(tmp_path / "g.json")
        assert again == graph and radii_again.radii.tobytes() == radii.radii.tobytes()


def _canonical_text():
    rng = np.random.default_rng(11)
    ps = PointSet(rng.uniform(0.0, 1.0, size=(30, 2)))
    norm = lp_norm(2.0, 2)
    radii = kth_radii(ps, 2, norm)
    return _payload_text(build_ksig(ps, radii, norm), radii)


HUGE = "1" + "0" * 400

# one-edit variants of a canonical graph file whose first edge is (0, j) and
# whose first radius is r: (old text, new text, replace count)
_EDITS = {
    "canonical": ("", "", 0),
    "reversed-pair": ('"edges": [[0, {j}]', '"edges": [[{j}, 0]', 1),
    "duplicate-pair": ('"edges": [[0, {j}]', '"edges": [[0, {j}], [0, {j}]', 1),
    "float-vertex": ('"edges": [[0, ', '"edges": [[0.0, ', 1),
    "true-vertex": ('"edges": [[0, {j}]', '"edges": [[0, true]', 1),
    "extra-space": ('], [', '],  [', 1),
    "no-space": ('], [', '],[', 1),
    "trailing-text": ("}\n", "} x\n", 1),
    "no-newline": ("}\n", "}", 1),
    "n-too-large": ('"n": 30', '"n": 31', 1),
    "n-too-small": ('"n": 30', '"n": 29', 1),
    "negative-radius": ('"radii": [', '"radii": [-', 1),
    "integer-radius": ('"radii": [{r}', '"radii": [1', 1),
    # json.loads reads -0 as the integer 0, so the radius is +0.0, not -0.0
    "negative-zero-radius": ('"radii": [{r}', '"radii": [-0', 1),
    "extra-radius": ('"radii": [', '"radii": [1.0, ', 1),
    "huge-vertex": ('"edges": [[0, ', '"edges": [[' + HUGE + ", ", 1),
    "huge-n": ('"n": 30', '"n": ' + HUGE, 1),
    "huge-radius": ('"radii": [', '"radii": [' + HUGE + ", ", 1),
    "k-zero": ('"k": 2', '"k": 0', 1),
    "keys-swapped": ('{"n": 30, "k": 2', '{"k": 2, "n": 30', 1),
    # the edge list is checked from its bytes: each number as %d writes it, in
    # pairs the graph keeps as they are
    "leading-zero-vertex": ('"edges": [[0, {j}]', '"edges": [[0, 0{j}]', 1),
    "19-digit-vertex": ('"edges": [[0, ', '"edges": [[0, 1' + "0" * 18 + "], [0, ", 1),
    "leading-zero-n": ('"n": 30', '"n": 030', 1),
    "pairs-swapped": ("{p0}, {p1}", "{p1}, {p0}", 1),
}


def _edited(text, edit):
    """``text`` with the edit ``_EDITS[edit]`` applied."""
    payload = json.loads(text)
    j, r = str(payload["edges"][0][1]), repr(payload["radii"][0])
    p0, p1 = (json.dumps(pair) for pair in payload["edges"][:2])
    old, new, count = _EDITS[edit]
    old, new = (part.replace("{j}", j).replace("{r}", r).replace("{p0}", p0).replace("{p1}", p1) for part in (old, new))
    if count:
        assert old in text
        text = text.replace(old, new, count)
    return text


class TestFastReadAgreesWithTheJsonPath:
    @pytest.mark.parametrize("edit", sorted(_EDITS))
    def test_same_graph_or_same_error(self, tmp_path, monkeypatch, edit):
        text = _edited(_canonical_text(), edit)
        path = tmp_path / "g.json"
        path.write_text(text)
        fast = _outcome(read_graph_json, path)
        with monkeypatch.context() as m:
            m.setattr(sio, "_read_canonical", lambda text: None)
            slow = _outcome(read_graph_json, path)
        assert fast[0] == slow[0] and (sio._read_canonical(text) is not None) == (edit == "canonical")
        if fast[0] == "ok":
            (graph, radii), (graph2, radii2) = fast[1], slow[1]
            assert graph == graph2 and radii.k == radii2.k
            assert radii.radii.tobytes() == radii2.radii.tobytes()
        else:
            assert fast[1] == slow[1]

    @pytest.mark.parametrize("edit", sorted(_EDITS))
    def test_chunks_cut_at_every_pair_keep_the_verdict(self, monkeypatch, edit):
        # the edge list is checked in chunks that end at "], ["; with 4
        # characters per chunk every pair boundary is a cut
        text = _edited(_canonical_text(), edit)
        whole = sio._read_canonical(text)
        monkeypatch.setattr(sio, "_READ_CHUNK", 4)
        cut = sio._read_canonical(text)
        assert (whole is None) == (cut is None) == (edit != "canonical")
        if cut is not None:
            assert cut[0] == whole[0] and cut[1].radii.tobytes() == whole[1].radii.tobytes()

    def test_canonical_file_skips_the_json_decoder(self, tmp_path, monkeypatch, line_graph):
        graph, radii = line_graph
        export_graph(graph, radii, tmp_path / "g.json")
        monkeypatch.setattr(sio, "_decode_json", None)
        again, radii_again = read_graph_json(tmp_path / "g.json")
        assert again == graph and radii_again.radii.tobytes() == radii.radii.tobytes()
