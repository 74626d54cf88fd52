"""Canonical triangles, the 7-region partition of the plane induced by a
triangle, and convex-hull type classification of 4- and 5-point subsets.

A triangle in general position splits the remaining plane into seven open
regions: the interior, three corner regions (each beyond one vertex), and
three edge regions (each across one edge).  A fourth point completes the
triangle to a convex quadrilateral exactly when it lies in an edge region.

Slot convention: for a canonical triangle (v1, v2, v3), Gamma(m) is the edge
region across the edge opposite v_m and Beta(m) is the corner region beyond
v_m.  Every aggregate identity in this package is symmetric in the slots, so
any consistent convention gives the same sums; this one is fixed so labels
are well-defined and testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Optional, Sequence, Tuple

from .geometry import CCW, Placement, orientation


@dataclass(frozen=True)
class TriangleRef:
    """Vertex indices of a triangle in canonical order.

    Invariants: v1 is the smallest of the three indices and the points
    (p[v1], p[v2], p[v3]) run counterclockwise, so each unordered index
    triple has exactly one canonical form.
    """

    v1: int
    v2: int
    v3: int

    @property
    def indices(self) -> Tuple[int, int, int]:
        return (self.v1, self.v2, self.v3)

    def __contains__(self, index: int) -> bool:
        return index in (self.v1, self.v2, self.v3)


class RegionKind(Enum):
    INTERIOR = "interior"
    BETA = "beta"
    GAMMA = "gamma"


@dataclass(frozen=True)
class RegionLabel:
    """One of the seven regions: Interior, Beta(m), or Gamma(m), m in 1..3.

    slot is the 1-based vertex slot of the canonical triangle; it is None
    exactly for the interior.
    """

    kind: RegionKind
    slot: Optional[int] = None

    def __post_init__(self):
        if self.kind is RegionKind.INTERIOR:
            if self.slot is not None:
                raise ValueError("interior region carries no slot")
        elif self.slot not in (1, 2, 3):
            raise ValueError(f"region slot must be 1, 2 or 3, got {self.slot!r}")

    @classmethod
    def interior(cls) -> "RegionLabel":
        return cls(RegionKind.INTERIOR)

    @classmethod
    def beta(cls, slot: int) -> "RegionLabel":
        return cls(RegionKind.BETA, slot)

    @classmethod
    def gamma(cls, slot: int) -> "RegionLabel":
        return cls(RegionKind.GAMMA, slot)


class Type4(Enum):
    """Hull types of 4 points in general position."""

    CONVEX_QUAD = "quad"
    TRI_DOT = "tridot"


class Type5(Enum):
    """Hull types of 5 points in general position, by hull size 5/4/3."""

    PENTAGON = "pentagon"
    FOUR_HULL = "four_hull"
    THREE_HULL = "three_hull"


def canonical_triangle(placement: Placement, i: int, j: int, k: int) -> TriangleRef:
    """Canonicalize an unordered index triple: smallest index first, then the
    other two in counterclockwise order.  Deterministic in the unordered
    triple."""
    if len({i, j, k}) != 3:
        raise ValueError(f"triangle indices must be distinct, got {(i, j, k)}")
    a, b, c = sorted((i, j, k))
    p = placement.points
    if orientation(p[a], p[b], p[c]) == CCW:
        return TriangleRef(a, b, c)
    return TriangleRef(a, c, b)


def classify_region(placement: Placement, tri: TriangleRef, x: int) -> RegionLabel:
    """Locate point x relative to the canonical triangle.

    With s_m the orientation sign of (v_{m+1}, v_{m+2}, x), slots cyclic:
    all three positive is the interior, a single negative at slot m is
    Gamma(m), a single positive at slot m is Beta(m).  All-negative cannot
    occur: the three determinants sum to the triangle's own (positive)
    doubled area.
    """
    if x in tri:
        raise ValueError(f"point index {x} is a vertex of the triangle {tri.indices}")
    p = placement.points
    a, b, c = p[tri.v1], p[tri.v2], p[tri.v3]
    q = p[x]
    s1 = orientation(b, c, q)
    s2 = orientation(c, a, q)
    s3 = orientation(a, b, q)
    total = s1 + s2 + s3
    if total == 3:
        return RegionLabel.interior()
    if total == 1:
        # exactly one negative sign: edge region across the opposite edge
        m = 1 if s1 < 0 else 2 if s2 < 0 else 3
        return RegionLabel.gamma(m)
    if total == -1:
        # exactly one positive sign: corner region beyond that vertex
        m = 1 if s1 > 0 else 2 if s2 > 0 else 3
        return RegionLabel.beta(m)
    raise AssertionError("all-negative signs contradict the positive triangle area")


def type4_of_points(a, b, c, d) -> Type4:
    """Hull type of four points given as coordinate pairs.

    Among the four orientation signs or(a,b,c), or(a,b,d), or(a,c,d),
    or(b,c,d), a point lies inside the triangle of the other three exactly
    when one sign differs from the rest (sign sum +-2); convex position
    gives sums 0 or +-4.  Raises CollinearError on a collinear triple.
    """
    s = orientation(a, b, c) + orientation(a, b, d) + orientation(a, c, d) + orientation(b, c, d)
    return Type4.TRI_DOT if s in (2, -2) else Type4.CONVEX_QUAD


def tridot_subsets5(p0, p1, p2, p3, p4) -> int:
    """Number of the five 4-subsets of five points whose type is TriDot.

    Always 0, 2 or 4 in general position: hull sizes 5, 4, 3 leave exactly
    0, 2, 4 non-convex 4-subsets.  Raises CollinearError on a collinear
    triple.
    """
    return sum(
        type4_of_points(*quad) is Type4.TRI_DOT
        for quad in combinations((p0, p1, p2, p3, p4), 4)
    )


_TYPE5_BY_TRIDOTS = {0: Type5.PENTAGON, 2: Type5.FOUR_HULL, 4: Type5.THREE_HULL}


def type5_of_points(p0, p1, p2, p3, p4) -> Type5:
    """Hull type of five points given as coordinate pairs."""
    return _TYPE5_BY_TRIDOTS[tridot_subsets5(p0, p1, p2, p3, p4)]


def classify4(placement: Placement, subset: Sequence[int]) -> Type4:
    """Hull type of the 4-point subset: TriDot when one point lies inside
    the triangle of the other three, else ConvexQuad."""
    i, j, k, l = subset
    if len({i, j, k, l}) != 4:
        raise ValueError(f"subset indices must be distinct, got {tuple(subset)}")
    p = placement.points
    return type4_of_points(p[i], p[j], p[k], p[l])


def classify5(placement: Placement, subset: Sequence[int]) -> Type5:
    """Hull type of the 5-point subset, by convex hull size 5/4/3."""
    i, j, k, l, m = subset
    if len({i, j, k, l, m}) != 5:
        raise ValueError(f"subset indices must be distinct, got {tuple(subset)}")
    p = placement.points
    return type5_of_points(p[i], p[j], p[k], p[l], p[m])
