"""On-disk formats: arrangements as JSON with exact rational coordinates,
graphs as a plain edge-list text format.

Rationals serialize as integers where possible and as "p/q" strings in
lowest terms otherwise, written from the arrangement's integer grid, so
round-trips are exact.  A coordinate is read as `geometry._pair` reads an
endpoint: a JSON integer, or a string holding an optional sign, ASCII
digits and optionally a slash and ASCII digits.
Floats, booleans and strings outside that grammar ("1.5", "1e3", " 1/2 ",
"1_000", "1/-2") are refused, as is a zero denominator.  Past the JSON
object and its keys, an arrangement is read and checked by
`Arrangement.of`, the one reader of boxes, straight onto its integer grid,
so parsing builds no `Fraction`.

Graph files start with a header line ``n <count>`` followed by one ``u v``
pair per line, 1-based, u < v, duplicates rejected.  The count and the
labels are ASCII digits only, as coordinates are.
"""

from __future__ import annotations

import json
from math import gcd

from .geometry import Arrangement, _is_digits
from .graphs import MAX_VERTICES, Graph


class FormatError(ValueError):
    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _endpoint_to_json(x: int, scale: int):
    """The endpoint x / scale of a grid in lowest terms: an int when the
    scale divides x, otherwise a "p/q" string."""
    common = gcd(x, scale)
    p, q = x // common, scale // common
    return p if q == 1 else f"{p}/{q}"


def serialize_arrangement(arr: Arrangement) -> str:
    axes = [[[_endpoint_to_json(lo, scale), _endpoint_to_json(hi, scale)]
             for lo, hi in zip(lows, highs)]
            for scale, lows, highs in zip(arr._scales, arr._lows, arr._highs)]
    payload = {"dimension": arr.dimension, "boxes": list(zip(*axes))}
    return json.dumps(payload, indent=2) + "\n"


def parse_arrangement(text: str) -> Arrangement:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}", line=exc.lineno) from None
    if not isinstance(payload, dict):
        raise FormatError("arrangement file must be a JSON object")
    if "dimension" not in payload or "boxes" not in payload:
        raise FormatError("arrangement file needs 'dimension' and 'boxes' keys")
    try:
        return Arrangement.of(payload["dimension"], payload["boxes"])
    except (TypeError, ValueError) as exc:
        raise FormatError(str(exc)) from None


def serialize_graph(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    lines = text.splitlines()
    header = None
    header_line = 0
    for lineno, raw in enumerate(lines, start=1):
        if raw.strip():
            header = raw.strip()
            header_line = lineno
            break
    if header is None:
        raise FormatError("empty graph file")
    parts = header.split()
    if len(parts) != 2 or parts[0] != "n" or not _is_digits(parts[1]):
        raise FormatError(f"expected header 'n <count>', got {header!r}", header_line)
    n = int(parts[1])
    if not 1 <= n <= MAX_VERTICES:
        raise FormatError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}", header_line)
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(lines, start=1):
        if lineno <= header_line or not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 2:
            raise FormatError(f"expected 'u v', got {raw.strip()!r}", lineno)
        if not (_is_digits(parts[0]) and _is_digits(parts[1])):
            raise FormatError(f"expected integers, got {raw.strip()!r}", lineno)
        u, v = int(parts[0]), int(parts[1])
        if not 1 <= u < v <= n:
            raise FormatError(f"edge ({u},{v}) violates 1 <= u < v <= {n}", lineno)
        if (u, v) in seen:
            raise FormatError(f"duplicate edge ({u},{v})", lineno)
        seen.add((u, v))
        edges.append((u, v))
    return Graph(n, edges)


def parse_any(text: str) -> Arrangement | Graph:
    """Sniff the format: JSON objects are arrangements, anything else is
    treated as a graph edge list."""
    if text.lstrip().startswith("{"):
        return parse_arrangement(text)
    return parse_graph(text)
