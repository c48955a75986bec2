"""On-disk formats: arrangements as JSON with exact rational coordinates,
graphs as a plain edge-list text format.

Rationals serialize as integers where possible and as "p/q" strings
otherwise, so round-trips are exact.  A coordinate is read as
`geometry._frac` reads an endpoint: a JSON integer, or a string holding an
optional sign, ASCII digits and optionally a slash and ASCII digits.
Floats, booleans and strings outside that grammar ("1.5", "1e3", " 1/2 ",
"1_000", "1/-2") are refused, as is a zero denominator.

Graph files start with a header line ``n <count>`` followed by one ``u v``
pair per line, 1-based, u < v, duplicates rejected.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .geometry import Arrangement, Box, RationalInterval, _frac
from .graphs import Graph


class FormatError(ValueError):
    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _rational_to_json(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _rational_from_json(x) -> Fraction:
    try:
        return _frac(x)
    except TypeError:
        raise FormatError(
            f"coordinates must be integers or 'p/q' strings, got {x!r}") from None
    except ValueError as exc:
        raise FormatError(f"bad rational: {exc}") from None
    except ZeroDivisionError:
        raise FormatError(f"bad rational {x!r}: zero denominator") from None


def serialize_arrangement(arr: Arrangement) -> str:
    payload = {
        "dimension": arr.dimension,
        "boxes": [
            [[_rational_to_json(s.lo), _rational_to_json(s.hi)] for s in box.sides]
            for box in arr.boxes
        ],
    }
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
    dim = payload["dimension"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise FormatError(f"'dimension' must be a positive integer, got {dim!r}")
    boxes = payload["boxes"]
    if not isinstance(boxes, list) or not boxes:
        raise FormatError("'boxes' must be a non-empty list")
    parsed = []
    for i, box in enumerate(boxes, start=1):
        if not isinstance(box, list) or len(box) != dim:
            raise FormatError(f"box {i} must list exactly {dim} [lo, hi] pairs")
        sides = []
        for pair in box:
            if not isinstance(pair, list) or len(pair) != 2:
                raise FormatError(f"box {i}: each side must be a [lo, hi] pair")
            lo = _rational_from_json(pair[0])
            hi = _rational_from_json(pair[1])
            try:
                sides.append(RationalInterval(lo, hi))
            except ValueError:
                raise FormatError(f"box {i}: empty side [{lo}, {hi}]") from None
        parsed.append(Box(tuple(sides)))
    return Arrangement(dim, tuple(parsed))


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
    if len(parts) != 2 or parts[0] != "n" or not parts[1].isdigit():
        raise FormatError(f"expected header 'n <count>', got {header!r}", header_line)
    n = int(parts[1])
    if n < 1:
        raise FormatError("vertex count must be positive", header_line)
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(lines, start=1):
        if lineno <= header_line or not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 2:
            raise FormatError(f"expected 'u v', got {raw.strip()!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"expected integers, got {raw.strip()!r}", lineno) from None
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
