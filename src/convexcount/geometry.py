"""Exact integer primitives: points, the orientation predicate, placement
validation and placement file I/O.

All coordinates are signed integers with absolute value at most
``COORD_BOUND`` (10**7).  Under that bound the 3-point orientation
determinant is at most 8 * 10**14 in magnitude, which leaves more than a
factor of two of headroom inside a signed 64-bit integer, so every numpy
fast path in this package is exact.  The pure-Python predicate below is
exact for arbitrary ints regardless.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Iterator, NamedTuple, Optional, Tuple, Union

import numpy as np

COORD_BOUND = 10_000_000

CCW = 1
CW = -1


class ConvexCountError(Exception):
    """Base class for all errors raised by this package."""


class CollinearError(ConvexCountError):
    """The orientation determinant of three points is exactly zero."""


class ParseError(ConvexCountError):
    """A placement file does not conform to the text format."""


class ValidationError(ConvexCountError):
    """A placement violates general position (duplicate or collinear points)."""

    def __init__(self, violation: "Violation"):
        super().__init__(str(violation))
        self.violation = violation


class InconsistentCountsError(ConvexCountError):
    """Derived counts violate an identity that holds for every valid
    placement; indicates a bug or corrupted aggregate data."""


class InvalidPlacementError(ConvexCountError):
    """A placement breaks a structural invariant (too few points, coordinate
    out of bounds, non-integer coordinate)."""


class Point(NamedTuple):
    x: int
    y: int


PointLike = Union[Point, tuple]


@dataclass(frozen=True)
class Duplicate:
    """Indices of two equal points."""

    i: int
    j: int

    def __str__(self) -> str:
        return f"duplicate points at indices {self.i} and {self.j}"


@dataclass(frozen=True)
class Collinear:
    """Indices of three collinear points."""

    i: int
    j: int
    k: int

    def __str__(self) -> str:
        return f"collinear points at indices {self.i}, {self.j}, {self.k}"


Violation = Union[Duplicate, Collinear]


def cross(a: PointLike, b: PointLike, c: PointLike) -> int:
    """Signed doubled area of triangle abc: (b - a) x (c - a).  Exact."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def orientation(a: PointLike, b: PointLike, c: PointLike) -> int:
    """Return CCW (+1) or CW (-1) for the ordered triple (a, b, c).

    Raises CollinearError when the determinant is exactly zero; a zero is
    never rounded away or represented as a sign.
    """
    d = cross(a, b, c)
    if d > 0:
        return CCW
    if d < 0:
        return CW
    raise CollinearError(f"collinear points {a}, {b}, {c}")


def _check_coord(v, index: int) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise InvalidPlacementError(f"point {index}: coordinate {v!r} is not an int")
    if abs(v) > COORD_BOUND:
        raise InvalidPlacementError(
            f"point {index}: |{v}| exceeds the coordinate bound {COORD_BOUND}"
        )
    return v


# Elements of one row block of direction keys.  The key, sort and count
# temporaries of ``_kernels.rank_tables`` take about 140 bytes an element, so
# they stay near 9 MB whatever n is.
KEY_BLOCK = 1 << 16


def row_blocks(n: int) -> Iterator[slice]:
    """Consecutive slices of range(n), each of at most max(1, KEY_BLOCK // n)
    rows, so an (rows, n) block holds about KEY_BLOCK elements."""
    step = max(1, KEY_BLOCK // max(n, 1))
    for start in range(0, n, step):
        yield slice(start, min(n, start + step))


def direction_keys(
    coords: np.ndarray, rows: slice
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The directions from each point of ``rows`` to every point, sorted
    around it by one exact key.

    Returns (order, lower, tie), each of shape (rows, n) and in sorted
    order: order holds the point indices; lower marks a direction in the
    lower half-plane (dy < 0, or dy == 0 and dx < 0); tie marks a key equal
    to its predecessor's.  The lower half is rotated by pi, and a direction
    (dx, dy) of the upper half is keyed by (quadrant, ratio): quadrant 0
    with ratio dy / (dx + dy) when dx > 0, quadrant 1 with ratio
    -dx / (dy - dx) otherwise.  The key grows with the angle, so two
    directions tie exactly when they lie on one line through the row's
    point.  The row's point itself (direction 0) gets quadrant 2 and sorts
    last; the points must be distinct.

    Exactness: with |coordinates| <= COORD_BOUND, numerators and
    denominators are integers of at most 4 * 10**7, exact in float64.  Two
    distinct ratios then differ by at least 1 / (1.6 * 10**15), above
    6 * 10**-16, while a correctly rounded quotient in [0, 1) errs by at
    most 2**-54, below 5.6 * 10**-17.  So float order is exact order and
    equal ratios give equal doubles.  Quadrant and ratio stay two sort keys:
    in one float such as 4 * quadrant + ratio, doubles are 8.9 * 10**-16
    apart, wider than that gap, and distinct keys round together.  Sorting
    costs O(n log n) a row.
    """
    x = coords[:, 0].astype(np.float64)
    y = coords[:, 1].astype(np.float64)
    dx = x - x[rows, None]
    dy = y - y[rows, None]
    lower = (dy < 0) | ((dy == 0) & (dx < 0))
    np.negative(dx, out=dx, where=lower)
    np.negative(dy, out=dy, where=lower)
    second = dx <= 0
    num = np.where(second, -dx, dy)
    den = np.where(second, dy - dx, dx + dy)
    zero = den == 0
    den[zero] = 1.0
    quadrant = second.view(np.int8) + zero.view(np.int8)
    ratio = num / den
    order = np.lexsort((ratio, quadrant))
    quadrant = np.take_along_axis(quadrant, order, axis=1)
    ratio = np.take_along_axis(ratio, order, axis=1)
    tie = np.zeros(order.shape, dtype=bool)
    tie[:, 1:] = (quadrant[:, 1:] == quadrant[:, :-1]) & (ratio[:, 1:] == ratio[:, :-1])
    return order, np.take_along_axis(lower, order, axis=1), tie


def tied_triple(rows: slice, order: np.ndarray, tie: np.ndarray) -> Optional[Collinear]:
    """The first collinear triple in index order from the ``direction_keys``
    block of ``rows``, or None without a tie; no earlier row may hold one.
    A triple ties in the row of each of its points, so the first tied row i
    is the smallest first index of any triple and every point tied around i
    comes after it; j is the smallest point of any tie run (a line through
    i) and k the next smallest of j's run."""
    if not tie.any():
        return None
    r = int(tie.any(axis=1).argmax())
    o, t = order[r], tie[r]
    line = np.cumsum(~t)  # the positions of one tie run share a label
    j = o[t | np.append(t[1:], False)].min()  # the smallest point of any run
    k = np.partition(o[line == line[o == j]], 1)[1]
    return Collinear(rows.start + r, int(j), int(k))


def pair_sign_matrix(coords: np.ndarray, q: Tuple[int, int]) -> np.ndarray:
    """(n, n) int8 matrix of orientation signs or(p_a, p_b, q).

    Entry [a, b] is the sign of (p_b - p_a) x (q - p_a); the diagonal is 0.
    A zero off the diagonal means q is collinear with the pair (or equals
    one of the points).  Exact in int64 for coordinates within
    ``COORD_BOUND``; the temporaries are O(n^2).
    """
    dx = coords[:, 0] - int(q[0])
    dy = coords[:, 1] - int(q[1])
    # (p_b - p_a) x (q - p_a) = (q - p_a) x (q - p_b) written in differences
    cross = dx[:, None] * dy[None, :] - dy[:, None] * dx[None, :]
    return np.sign(cross).astype(np.int8)


def _first_duplicate(points) -> Optional[Duplicate]:
    """The first pair of equal points, in index order, or None.  Every
    coordinate up to that pair must be an int within ``COORD_BOUND``
    (InvalidPlacementError otherwise), which keeps the float keys of
    ``_first_collinear`` exact."""
    seen: dict = {}
    for i, p in enumerate(points):
        _check_coord(p[0], i)
        _check_coord(p[1], i)
        if p in seen:
            return Duplicate(seen[p], i)
        seen[p] = i
    return None


def _first_collinear(coords: np.ndarray) -> Optional[Collinear]:
    """The first collinear triple, in index order, or None, in O(n^2 log n):
    the ``direction_keys`` of distinct points within ``COORD_BOUND`` are exact."""
    for rows in row_blocks(len(coords)):
        order, _, tie = direction_keys(coords, rows)
        if (triple := tied_triple(rows, order, tie)) is not None:
            return triple
    return None


def find_violation(points) -> Optional[Violation]:
    """The first duplicate pair, else the first collinear triple, in index
    order; None in general position.  Violations are data: ``points`` is any
    sequence of (x, y) pairs or a ``Placement``, and only a coordinate that
    is not an int within ``COORD_BOUND`` raises (InvalidPlacementError)."""
    pts = [(p[0], p[1]) for p in points]
    return _first_duplicate(pts) or _first_collinear(np.asarray(pts, dtype=np.int64))


@dataclass(frozen=True)
class Placement:
    """An ordered sequence of integer points.

    The constructor checks n >= 3 and the coordinates (InvalidPlacementError)
    and raises ValidationError on a duplicate point, but does not look for
    collinear triples; ``from_points`` and ``load_placement`` do.  Code that
    proves general position along the way, and tests that need a degenerate
    placement, call the constructor directly.
    """

    points: tuple

    def __post_init__(self):
        if len(self.points) < 3:
            raise InvalidPlacementError(
                f"a placement needs at least 3 points, got {len(self.points)}"
            )
        duplicate = _first_duplicate(self.points)
        if duplicate is not None:
            raise ValidationError(duplicate)

    @classmethod
    def from_points(cls, points: Iterable[PointLike]) -> "Placement":
        """A placement in general position: the constructor's checks, then
        one O(n^2 log n) scan for collinear triples (ValidationError)."""
        placement = cls(tuple(Point(p[0], p[1]) for p in points))
        collinear = _first_collinear(placement.coords)
        if collinear is not None:
            raise ValidationError(collinear)
        return placement

    @property
    def n(self) -> int:
        return len(self.points)

    @cached_property
    def coords(self) -> np.ndarray:
        """(n, 2) int64 coordinate array (read-only view of the placement)."""
        arr = np.asarray(self.points, dtype=np.int64)
        arr.setflags(write=False)
        return arr

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> Point:
        return self.points[i]


_INT_TOKEN = re.compile(r"0|-?[1-9][0-9]*")


def _parse_int(token: str, where: str) -> int:
    if _INT_TOKEN.fullmatch(token) is None:
        raise ParseError(f"{where}: {token!r} is not a canonical decimal integer")
    return int(token)


def load_placement(source: Union[IO, str, bytes]) -> Placement:
    """Parse and validate a placement from the text format.

    Format: optional comment lines starting with '#', then a line holding n,
    then exactly n lines "x y" (single space, canonical decimal integers).
    Raises ParseError on malformed input and ValidationError when the points
    are not in general position.
    """
    if hasattr(source, "read"):
        data = source.read()
    else:
        data = source
    if isinstance(data, bytes):
        try:
            data = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ParseError(f"placement file is not ASCII: {exc}") from None

    lines = data.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    content = [ln for ln in lines if not ln.startswith("#")]
    if not content:
        raise ParseError("empty placement file")

    n = _parse_int(content[0], "header line")
    if n < 3:
        raise ParseError(f"placement size {n} is below the minimum of 3")
    body = content[1:]
    if len(body) != n:
        raise ParseError(f"count mismatch: header says {n}, found {len(body)} point lines")

    points = []
    for lineno, line in enumerate(body):
        parts = line.split(" ")
        if len(parts) != 2:
            raise ParseError(f"point line {lineno}: expected 'x y', got {line!r}")
        x = _parse_int(parts[0], f"point line {lineno}")
        y = _parse_int(parts[1], f"point line {lineno}")
        if abs(x) > COORD_BOUND or abs(y) > COORD_BOUND:
            raise ParseError(
                f"point line {lineno}: coordinate exceeds bound {COORD_BOUND}"
            )
        points.append(Point(x, y))

    return Placement.from_points(points)


def dumps_placement(placement: Placement) -> str:
    """Serialize to the canonical text format (no comments)."""
    out = [str(placement.n)]
    out.extend(f"{p[0]} {p[1]}" for p in placement.points)
    return "\n".join(out) + "\n"


def save_placement(placement: Placement, sink: IO, comment: Optional[str] = None) -> None:
    """Write the placement to a text sink; round-trips with load_placement
    byte-for-byte modulo comment lines."""
    text = dumps_placement(placement)
    if comment:
        text = "".join(f"# {ln}\n" for ln in comment.splitlines()) + text
    sink.write(text)
