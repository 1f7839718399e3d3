"""File formats: point clouds in CSV/JSON, graphs as JSON or DOT.

Floats are serialized through Python's shortest round-trip representation, so
parse(export(x)) reproduces every value bit-exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .sig import InfluenceGraph, PointSet, RadiusAssignment

__all__ = [
    "parse_points",
    "write_points",
    "export_graph",
    "read_graph_json",
    "graph_to_dot",
]


def _resolve_format(path, fmt: str | None, allowed: tuple[str, ...]) -> str:
    if fmt is None:
        fmt = Path(path).suffix.lstrip(".").lower()
    if fmt not in allowed:
        raise ValueError(f"unsupported format {fmt!r} for {path}; expected one of {allowed}")
    return fmt


def _is_number(value) -> bool:
    """A JSON number; true, false, null and strings are not."""
    return type(value) in (int, float)


def _array(values: list, dtype, origin: str) -> np.ndarray:
    """``values`` as an array; a JSON integer too large for ``dtype`` is a ValueError."""
    try:
        return np.array(values, dtype=dtype)
    except OverflowError:
        raise ValueError(f"{origin} holds an integer too large for {np.dtype(dtype)}") from None


def _load_json(path):
    """The JSON value in the file at ``path``; a malformed file is a ValueError naming it."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _rows_to_points(rows: list[list[float]], dim: int | None, origin: str) -> PointSet:
    width = len(rows[0])
    if dim is not None and width != dim:
        raise ValueError(f"{origin} has {width}-coordinate points but dim={dim} was requested")
    return PointSet(points=_array(rows, np.float64, f"{origin}: points"))


def parse_points(path, fmt: str | None = None, dim: int | None = None) -> PointSet:
    """Load a point set from CSV (one point per row) or JSON {"dim", "points"}.

    The dimension is inferred from the data; passing ``dim`` turns a mismatch
    into an error instead of a silent reinterpretation.
    """
    fmt = _resolve_format(path, fmt, ("csv", "json"))
    if fmt == "csv":
        rows: list[list[float]] = []
        width = None
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
            if not line.strip():
                continue
            fields = [f.strip() for f in line.split(",")]
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise ValueError(
                    f"ragged row at line {lineno}: expected {width} fields, got {len(fields)}"
                )
            try:
                rows.append([float(f) for f in fields])
            except ValueError:
                raise ValueError(f"non-numeric field at line {lineno}: {line!r}") from None
        if not rows:
            raise ValueError(f"{path} contains no points")
        return _rows_to_points(rows, dim, str(path))
    data = _load_json(path)
    if not isinstance(data, dict) or "points" not in data:
        raise ValueError(f'{path} must be a JSON object with a "points" key')
    raw = data["points"]
    if not isinstance(raw, list) or not raw:
        raise ValueError(f"{path} contains no points")
    width = None
    for index, row in enumerate(raw):
        if not isinstance(row, list):
            raise ValueError(f"point {index} is not a coordinate list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError(f"ragged row at index {index}: expected {width} fields, got {len(row)}")
        if not all(_is_number(v) for v in row):
            raise ValueError(f"non-numeric coordinate in point {index}")
    declared = data.get("dim")
    if declared is not None and declared != width:
        raise ValueError(f'{path} declares "dim": {declared} but points have {width} coordinates')
    return _rows_to_points(raw, dim, str(path))


def write_points(points: PointSet, path, fmt: str | None = None):
    """Write a point set as CSV rows or as JSON {"dim", "points"}."""
    fmt = _resolve_format(path, fmt, ("csv", "json"))
    if fmt == "csv":
        lines = [",".join(repr(v) for v in row) for row in points.points.tolist()]
        Path(path).write_text("\n".join(lines) + "\n")
    else:
        payload = {"dim": points.dim, "points": points.points.tolist()}
        Path(path).write_text(json.dumps(payload) + "\n")


def graph_to_dot(graph: InfluenceGraph, radii: RadiusAssignment) -> str:
    """Undirected DOT text: one node line per vertex (radius label), one line per edge."""
    lines = ["graph influence {"]
    values = radii.radii.tolist()
    for i in range(graph.n):
        lines.append(f'  {i} [label="{i} r={values[i]!r}"];')
    for i, j in graph.pairs.tolist():
        lines.append(f"  {i} -- {j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_graph(graph: InfluenceGraph, radii: RadiusAssignment, path, fmt: str | None = None):
    """Serialize a graph with its radii; JSON keys n/k/edges/radii, edges in (i, j) order."""
    if graph.n != len(radii):
        raise ValueError("graph and radii disagree on the number of vertices")
    fmt = _resolve_format(path, fmt, ("json", "dot"))
    if fmt == "json":
        payload = {
            "n": graph.n,
            "k": radii.k,
            "edges": graph.pairs.tolist(),
            "radii": radii.radii.tolist(),
        }
        Path(path).write_text(json.dumps(payload) + "\n")
    else:
        Path(path).write_text(graph_to_dot(graph, radii))


def read_graph_json(path) -> tuple[InfluenceGraph, RadiusAssignment]:
    """Inverse of the JSON export; radii come back bit-exact."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"{path} must be a JSON object")
    for key in ("n", "k", "edges", "radii"):
        if key not in data:
            raise ValueError(f"{path} is missing the {key!r} key")
    n, k, pairs, values = data["n"], data["k"], data["edges"], data["radii"]
    if type(n) is not int or type(k) is not int:
        raise ValueError(f"{path}: n and k must be integers, got {n!r} and {k!r}")
    if not isinstance(pairs, list) or not all(
        type(e) is list and len(e) == 2 and type(e[0]) is int and type(e[1]) is int for e in pairs
    ):
        raise ValueError(f"{path}: edges must be a list of [i, j] integer pairs")
    if not isinstance(values, list) or not all(_is_number(v) for v in values):
        raise ValueError(f"{path}: radii must be a list of numbers")
    if len(values) != n:
        raise ValueError(f"{path} has {len(values)} radii for {n} vertices")
    values = _array(values, np.float64, f"{path}: radii")
    try:
        radii = RadiusAssignment(k=k, radii=values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    ends = _array(pairs, np.int64, f"{path}: edges").reshape(-1, 2)
    return InfluenceGraph(n, np.sort(ends, axis=1)), radii
