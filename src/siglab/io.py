"""File formats: point clouds in CSV/JSON, graphs as JSON or DOT.

Floats are serialized through Python's shortest round-trip representation, so
parse(export(x)) reproduces every value bit-exactly.

A graph file grows with its input (the paper's bound is fewer than 5^d·k·n
edges), so the graph-scale paths leave the per-value work to numpy or to one
C-level ``%`` format per chunk of ``_joined``, the one text formatter:

- CSV points: ``np.loadtxt`` over the file's lines.  On a ValueError or an
  empty result the per-line parser runs on the same lines.  It writes every
  error message, and it is the only path for fields that ``float()`` accepts
  and numpy does not (``1_0``, Unicode digits).  The writer formats chunks of
  rows, each row the ``repr`` of its coordinates joined by commas.
- JSON graph export: one writer, ``_graph_json``, yields the file in pieces of
  at most ``_CHUNK`` edges or radii, which are written as they come.  Its bytes
  equal ``json.dumps(payload) + "\n"`` for the payload keys n, k, edges,
  radii in that order, with the separators ", " and ": ".
- DOT export: ``_graph_dot`` yields the node and edge lines in the same pieces.
- JSON graph read: numpy parses the edge and radius lists, and the graph and
  radii built from them are kept only if the file is byte for byte what
  ``_graph_json`` writes for them.  The head and the radii are compared with
  the writer's text.  The edge list, the bulk of the file, is checked from its
  bytes in chunks of about ``_READ_CHUNK`` characters cut at ``], [``: the
  separators, a digit run of 1 to 18 digits without a leading zero for each
  number, and pairs that the graph keeps as they are (sorted, unique, i < j).
  Such text is what ``%d`` writes, so nothing is formatted again.  The file is
  then ``json.dumps`` of the objects, so the JSON path would return the same
  ones.  Anything else (other spacing, a reversed or repeated pair, ``1.0`` or
  ``05`` as a vertex, a value out of range) takes the JSON path,
  ``json.loads`` and the type checks, which writes every error message.
"""

from __future__ import annotations

import itertools
import json
import re
import warnings
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


def _decode_json(text: str, path):
    """The JSON value of ``text``, read from ``path``; malformed text is a ValueError naming it."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _check_width(width: int, dim: int | None, origin: str):
    if dim is not None and width != dim:
        raise ValueError(f"{origin} has {width}-coordinate points but dim={dim} was requested")


def _csv_rows(lines: list[str]) -> list[list[float]]:
    """The per-line CSV parser: blank lines skipped, fields stripped, ``float()`` each."""
    rows: list[list[float]] = []
    width = None
    for lineno, line in enumerate(lines, start=1):
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
    return rows


def parse_points(path, fmt: str | None = None, dim: int | None = None) -> PointSet:
    """Load a point set from CSV (one point per row) or JSON {"dim", "points"}.

    The dimension is inferred from the data; passing ``dim`` turns a mismatch
    into an error instead of a silent reinterpretation.
    """
    fmt = _resolve_format(path, fmt, ("csv", "json"))
    if fmt == "csv":
        # split here, not by loadtxt: splitlines also breaks at \v, \f, \x1c-\x1e,
        # \x85, \u2028 and \u2029, and both parsers must see the same rows
        lines = Path(path).read_text().splitlines()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a file without rows warns
                points = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None, dtype=np.float64)
        except ValueError:
            points = None
        if points is None or points.size == 0:
            rows = _csv_rows(lines)
            if not rows:
                raise ValueError(f"{path} contains no points")
            points = np.array(rows, dtype=np.float64)
        _check_width(points.shape[1], dim, str(path))
        return PointSet(points=points)
    data = _decode_json(Path(path).read_text(), path)
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
    _check_width(width, dim, str(path))
    return PointSet(points=_array(raw, np.float64, f"{path}: points"))


def write_points(points: PointSet, path, fmt: str | None = None):
    """Write a point set as CSV rows or as JSON {"dim", "points"}."""
    fmt = _resolve_format(path, fmt, ("csv", "json"))
    if fmt == "csv":
        with open(path, "w") as out:
            out.writelines(_joined(",".join(["%r"] * points.dim), points.points.ravel(), points.dim, "\n"))
            out.write("\n")
    else:
        payload = {"dim": points.dim, "points": points.points.tolist()}
        Path(path).write_text(json.dumps(payload) + "\n")


def graph_to_dot(graph: InfluenceGraph, radii: RadiusAssignment) -> str:
    """Undirected DOT text: one node line per vertex (radius label), one line per edge."""
    return "".join(_graph_dot(graph, radii))


# points, edges or radii per piece of a written file: bounds the transient text
_CHUNK = 1 << 14


def _joined(template: str, flat: np.ndarray, width: int, sep: str = ", "):
    """sep.join(template % item) over the items of ``flat`` (``width`` values
    each), in pieces of at most _CHUNK items; the pieces after the first open
    with ``sep``.  ``%r`` writes a float as ``repr`` does, ``%d`` an int."""
    step = _CHUNK * width
    for start in range(0, len(flat), step):
        values = flat[start : start + step].tolist()
        text = sep.join([template] * (len(values) // width)) % tuple(values)
        yield text if start == 0 else sep + text


def _graph_json(graph: InfluenceGraph, radii: RadiusAssignment):
    """The pieces of json.dumps({"n", "k", "edges", "radii"}) + "\n", in order:
    ``%d`` and ``%r`` write an int and a float as ``json.dumps`` does."""
    yield _json_head(graph.n, radii.k)
    yield from _joined("[%d, %d]", graph.pairs.ravel(), 2)
    yield from _json_tail(radii)


def _json_head(n: int, k: int) -> str:
    return '{"n": %s, "k": %s, "edges": [' % (json.dumps(n), json.dumps(k))


def _json_tail(radii: RadiusAssignment):
    yield _MIDDLE
    yield from _joined("%r", radii.radii, 1)
    yield "]}\n"


def _graph_dot(graph: InfluenceGraph, radii: RadiusAssignment):
    """The pieces of the DOT text, in order.  A node line formats its float
    index with ``%d``, which writes the integer."""
    index = np.arange(graph.n, dtype=np.float64)
    nodes = np.stack((index, index, radii.radii), axis=1).ravel()
    yield "graph influence {\n"
    for template, flat, width in (('  %d [label="%d r=%r"];', nodes, 3), ("  %d -- %d;", graph.pairs.ravel(), 2)):
        if len(flat):
            yield from _joined(template, flat, width, "\n")
            yield "\n"
    yield "}\n"


_HEAD = re.compile(r'\{"n": ([0-9]+), "k": ([0-9]+), "edges": \[')
_MIDDLE = '], "radii": ['
# characters of the edge list checked per numpy pass; the cuts fall at "], ["
_READ_CHUNK = 1 << 16
# the bytes of one pair "[i, j], " that are not digits, and which of them a
# digit run follows (the others are followed by the next one)
_PAIR_SEPARATORS = np.frombuffer(b"[, ], ", dtype=np.uint8)
_RUN_FOLLOWS = np.array([True, False, True, False, False, False])
# a vertex of at most 18 digits parses below 2^63
_MAX_DIGITS = 18
# fromstring's separator is ","; the brackets read as whitespace
_BRACKETS = bytes.maketrans(b"[]", b"  ")


def _edge_chunk(chunk: str) -> np.ndarray | None:
    """The pairs of ``chunk``, flat, if it is the text "[i, j], ..., [i, j]"
    with every number written as ``%d`` writes it (1 to 18 digits, no leading
    zero), else None.

    With ", " appended, the bytes that are not digits must run "[, ], " once
    per pair, and the gap after each must be 1 byte, or a digit run of 1 to 18
    bytes after "[" and after ", ".  One pass over the bytes checks that."""
    text = (chunk + ", ").encode()
    b = np.frombuffer(text, dtype=np.uint8)
    seps = np.flatnonzero((b - np.uint8(ord("0"))) > 9)
    if len(seps) % 6 or seps[0] != 0:
        return None
    gaps = np.diff(seps, append=len(b)).reshape(-1, 6)
    digits = gaps[:, _RUN_FOLLOWS] - 1
    if (
        not (b[seps].reshape(-1, 6) == _PAIR_SEPARATORS).all()
        or ((gaps != 1) & ~_RUN_FOLLOWS).any()
        or ((digits < 1) | (digits > _MAX_DIGITS)).any()
        # a number of two or more digits must not open with 0
        or ((b[seps.reshape(-1, 6)[:, _RUN_FOLLOWS] + 1] == ord("0")) & (digits > 1)).any()
    ):
        return None
    return np.fromstring(text[:-2].translate(_BRACKETS), dtype=np.int64, sep=",")


def _edge_list(text: str, start: int, stop: int) -> np.ndarray | None:
    """``_edge_chunk`` over text[start:stop], cut into chunks of about
    _READ_CHUNK characters that end at "], [", as one (E, 2) array."""
    pieces = []
    while start < stop:
        cut = text.find("], [", min(start + _READ_CHUNK, stop), stop)
        end = stop if cut < 0 else cut + 1
        pairs = _edge_chunk(text[start:end])
        if pairs is None:
            return None
        pieces.append(pairs)
        start = end + 2  # past ", "
    return np.concatenate(pieces or [np.empty(0, dtype=np.int64)]).reshape(-1, 2)


def _read_canonical(text: str) -> tuple[InfluenceGraph, RadiusAssignment] | None:
    """The graph and radii of ``text`` if it is exactly what ``_graph_json``
    writes for them, else None.

    The head and the radii are compared with the writer's text.  The edge list,
    the bulk of the file, is checked from its bytes (``_edge_chunk``), and the
    graph must keep its pairs as they are: no pair was repeated, reversed or
    out of order."""
    head = _HEAD.match(text)
    middle = -1 if head is None else text.find(_MIDDLE, head.end())
    if middle < 0 or not text.endswith("]}\n"):
        return None
    values = text[middle + len(_MIDDLE) : -3]
    try:
        # older numpy warns, rather than raises, on text that it cannot parse
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ends = _edge_list(text, head.end(), middle)
            if ends is None:
                return None
            radii = RadiusAssignment(k=int(head[2]), radii=np.fromstring(values, sep=","))
        graph = InfluenceGraph(int(head[1]), ends)
    except (ValueError, Warning):
        return None
    if len(radii) != graph.n or not np.array_equal(graph.pairs, ends):
        return None
    if text[: head.end()] != _json_head(graph.n, radii.k):
        return None
    end = middle
    for piece in _json_tail(radii):
        if not text.startswith(piece, end):
            return None
        end += len(piece)
    return (graph, radii) if end == len(text) else None


def export_graph(graph: InfluenceGraph, radii: RadiusAssignment, path, fmt: str | None = None):
    """Serialize a graph with its radii; JSON keys n/k/edges/radii, edges in (i, j) order."""
    if graph.n != len(radii):
        raise ValueError("graph and radii disagree on the number of vertices")
    pieces = _graph_json if _resolve_format(path, fmt, ("json", "dot")) == "json" else _graph_dot
    with open(path, "w") as out:
        out.writelines(pieces(graph, radii))


def read_graph_json(path) -> tuple[InfluenceGraph, RadiusAssignment]:
    """Inverse of the JSON export; radii come back bit-exact."""
    text = Path(path).read_text()
    canonical = _read_canonical(text)
    if canonical is not None:
        return canonical
    data = _decode_json(text, path)
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
    ends = _array(list(itertools.chain.from_iterable(pairs)), np.int64, f"{path}: edges")
    ends = ends.reshape(-1, 2)
    return InfluenceGraph(n, np.sort(ends, axis=1)), radii
