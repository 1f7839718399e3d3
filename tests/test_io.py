"""Round-trip and format tests for point files and graph exports."""

import json
import math

import numpy as np
import pytest

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


@pytest.fixture
def line_graph():
    ps = PointSet(np.array([[0.0], [1.0], [3.0], [7.0]]))
    norm = lp_norm(2.0, 1)
    radii = kth_radii(ps, 1, norm)
    graph = build_ksig(ps, radii, norm)
    return graph, radii


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
