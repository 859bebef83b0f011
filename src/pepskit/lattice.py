"""Open-boundary chain and grid geometry and the site leg-order convention.

A lattice is its extents, one for a chain, two for a grid; the contraction
engine covers no other, so construction refuses them. Sites are integer
coordinate tuples. Edges connect nearest neighbours along each axis, stored
as ``(u, v)`` with ``u < v`` lexicographically. Per-site virtual legs follow
a single global convention: for each axis in increasing order, the
minus-direction leg (if that neighbour exists) then the plus-direction leg.
A site tensor's axis 0 is always the physical leg, followed by the virtual
legs in this order.

The legs are built by coordinate arithmetic once per lattice shape, on
first use, and shared by every later ``LatticeSpec`` of the same extents
(each state file read makes a new one); the neighbours and the sorted
edge list are read off them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product

from .errors import ArgumentError

__all__ = ["LatticeSpec", "Site", "Edge"]

Site = tuple[int, ...]
Edge = tuple[Site, Site]


@cache
def _leg_table(extents: tuple[int, ...]) -> dict[Site, tuple[Edge, ...]]:
    # Per axis in order: the minus-direction edge, then the plus-direction one.
    table = {}
    for s in product(*(range(e) for e in extents)):
        legs = []
        for axis, (c, e) in enumerate(zip(s, extents)):
            if c > 0:
                legs.append((s[:axis] + (c - 1,) + s[axis + 1 :], s))
            if c + 1 < e:
                legs.append((s, s[:axis] + (c + 1,) + s[axis + 1 :]))
        table[s] = tuple(legs)
    return table


@dataclass(frozen=True)
class LatticeSpec:
    """Finite chain or grid with open boundaries.

    Attributes:
        extents: sites per axis, all >= 1; one axis or two.
    """

    extents: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "extents", tuple(int(e) for e in self.extents))
        if self.dimension not in (1, 2):
            raise ArgumentError(
                f"contraction engine supports dimensions 1 and 2, got {self.dimension}"
            )
        if any(e < 1 for e in self.extents):
            raise ArgumentError(f"extents must be positive, got {self.extents}")

    @property
    def dimension(self) -> int:
        return len(self.extents)

    @property
    def n_sites(self) -> int:
        return math.prod(self.extents)

    def sites(self) -> list[Site]:
        """All sites in row-major coordinate order."""
        return [s for s in product(*(range(e) for e in self.extents))]

    def contains(self, site: Site) -> bool:
        return len(site) == self.dimension and all(
            0 <= c < e for c, e in zip(site, self.extents)
        )

    def site_index(self, site: Site) -> int:
        """Row-major linear index of a site."""
        if not self.contains(site):
            raise ArgumentError(f"site {site} outside lattice with extents {self.extents}")
        idx = 0
        for c, e in zip(site, self.extents):
            idx = idx * e + c
        return idx

    @cached_property
    def _edge_list(self) -> tuple[Edge, ...]:
        # Each edge is the plus-direction leg of its lower end.
        return tuple(sorted(e for s, legs in _leg_table(self.extents).items() for e in legs if e[0] == s))

    def neighbors(self, site: Site) -> list[Site]:
        """Nearest neighbours of a lattice site, in leg order (axis ascending, minus then plus)."""
        site = tuple(site)
        return [u if v == site else v for u, v in _leg_table(self.extents)[site]]

    def virtual_legs(self, site: Site) -> list[Edge]:
        """Canonical edges incident to a lattice site, in the site's leg order."""
        return list(_leg_table(self.extents)[tuple(site)])

    def edges(self) -> list[Edge]:
        """All nearest-neighbour edges, sorted lexicographically."""
        return list(self._edge_list)

    @property
    def diameter(self) -> int:
        """Graph diameter: the longest shortest path on the lattice."""
        return sum(e - 1 for e in self.extents)
