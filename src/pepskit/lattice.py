"""Open-boundary chain and grid geometry and the site leg-order convention.

A lattice is its extents, one for a chain, two for a grid; the contraction
engine covers no other, so construction refuses them. Sites are integer
coordinate tuples. Edges connect nearest neighbours along each axis, stored
as ``(u, v)`` with ``u < v`` lexicographically. Per-site virtual legs follow
a single global convention: for each axis in increasing order, the
minus-direction leg (if that neighbour exists) then the plus-direction leg.
A site tensor's axis 0 is always the physical leg, followed by the virtual
legs in this order.

A site's legs, and the neighbours read off them, are computed from its
coordinates when first asked and kept per lattice shape and site, so a
query about a few sites costs the same on any lattice size: neither needs
a whole-lattice table. Only :meth:`LatticeSpec.edges`, which the patch
estimator does not call, builds the sorted edge list of a lattice shape,
once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import product

from .errors import ArgumentError

__all__ = ["LatticeSpec", "Site", "Edge"]

Site = tuple[int, ...]
Edge = tuple[Site, Site]


@cache
def _legs(extents: tuple[int, ...], site: Site) -> tuple[Edge, ...]:
    if len(site) != len(extents) or not all(0 <= c < e for c, e in zip(site, extents)):
        raise ArgumentError(f"site {site} outside lattice with extents {extents}")
    legs = []
    # Per axis in order: the minus-direction edge, then the plus-direction one.
    for axis, (c, e) in enumerate(zip(site, extents)):
        if c > 0:
            legs.append((site[:axis] + (c - 1,) + site[axis + 1 :], site))
        if c + 1 < e:
            legs.append((site, site[:axis] + (c + 1,) + site[axis + 1 :]))
    return tuple(legs)


@cache
def _neighbours(extents: tuple[int, ...], site: Site) -> tuple[Site, ...]:
    return tuple(u if v == site else v for u, v in _legs(extents, site))


@cache
def _edges(extents: tuple[int, ...]) -> tuple[Edge, ...]:
    # Each edge is the plus-direction leg of its lower end.
    sites = product(*(range(e) for e in extents))
    return tuple(sorted(e for s in sites for e in _legs(extents, s) if e[0] == s))


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

    def site_at(self, index: int) -> Site:
        """The site of a row-major linear index, the inverse of :meth:`site_index`."""
        site = []
        for e in reversed(self.extents):
            index, c = divmod(int(index), e)
            site.append(c)
        return tuple(reversed(site))

    def neighbors(self, site: Site) -> list[Site]:
        """Nearest neighbours of a lattice site, in leg order (axis ascending, minus then plus)."""
        return list(_neighbours(self.extents, tuple(site)))

    def virtual_legs(self, site: Site) -> list[Edge]:
        """Canonical edges incident to a lattice site, in the site's leg order."""
        return list(_legs(self.extents, tuple(site)))

    def edges(self) -> list[Edge]:
        """All nearest-neighbour edges, sorted lexicographically."""
        return list(_edges(self.extents))

    @property
    def diameter(self) -> int:
        """Graph diameter: the longest shortest path on the lattice."""
        return sum(e - 1 for e in self.extents)
