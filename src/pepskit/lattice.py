"""Open-boundary cubic lattice geometry and the site leg-order convention.

Sites are integer coordinate tuples. Edges connect nearest neighbours along
each axis, stored as ``(u, v)`` with ``u < v`` lexicographically. Per-site
virtual legs follow a single global convention: for each axis in increasing
order, the minus-direction leg (if that neighbour exists) then the
plus-direction leg. A site tensor's axis 0 is always the physical leg,
followed by the virtual legs in this order.

Neighbours, virtual legs and the sorted edge list are computed once per
``LatticeSpec`` instance, on first use, and shared by every later call on
that instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .errors import ArgumentError

__all__ = ["LatticeSpec", "Site", "Edge"]

Site = tuple[int, ...]
Edge = tuple[Site, Site]

# The contraction engine supports chains and 2D grids; the file format
# admits higher dimensions but engine entry points reject them.
ENGINE_MAX_DIMENSION = 2


@dataclass(frozen=True)
class LatticeSpec:
    """Finite cubic lattice with open boundaries.

    Attributes:
        dimension: number of axes (engine operations require 1 or 2).
        extents: sites per axis, all >= 1.
    """

    dimension: int
    extents: tuple[int, ...]

    def __post_init__(self):
        if self.dimension < 1:
            raise ArgumentError(f"lattice dimension must be >= 1, got {self.dimension}")
        object.__setattr__(self, "extents", tuple(int(e) for e in self.extents))
        if len(self.extents) != self.dimension:
            raise ArgumentError(
                f"expected {self.dimension} extents, got {len(self.extents)}"
            )
        if any(e < 1 for e in self.extents):
            raise ArgumentError(f"extents must be positive, got {self.extents}")

    @property
    def n_sites(self) -> int:
        n = 1
        for e in self.extents:
            n *= e
        return n

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

    def _scan_neighbors(self, site: Site) -> list[Site]:
        out = []
        for axis in range(self.dimension):
            for sign in (-1, +1):
                nb = tuple(c + (sign if a == axis else 0) for a, c in enumerate(site))
                if self.contains(nb):
                    out.append(nb)
        return out

    @cached_property
    def _neighbor_table(self) -> dict[Site, tuple[Site, ...]]:
        return {s: tuple(self._scan_neighbors(s)) for s in self.sites()}

    @cached_property
    def _leg_table(self) -> dict[Site, tuple[Edge, ...]]:
        return {
            s: tuple(canonical_edge(s, nb) for nb in nbs)
            for s, nbs in self._neighbor_table.items()
        }

    @cached_property
    def _edge_list(self) -> tuple[Edge, ...]:
        return tuple(sorted({e for legs in self._leg_table.values() for e in legs}))

    def neighbors(self, site: Site) -> list[Site]:
        """Nearest neighbours of a lattice site, in leg order (axis ascending, minus then plus)."""
        return list(self._neighbor_table[tuple(site)])

    def virtual_legs(self, site: Site) -> list[Edge]:
        """Canonical edges incident to a lattice site, in the site's leg order."""
        return list(self._leg_table[tuple(site)])

    def edges(self) -> list[Edge]:
        """All nearest-neighbour edges, sorted lexicographically."""
        return list(self._edge_list)

    @property
    def diameter(self) -> int:
        """Graph diameter: the longest shortest path on the lattice."""
        return sum(e - 1 for e in self.extents)

    def require_engine_dimension(self):
        if self.dimension > ENGINE_MAX_DIMENSION:
            raise ArgumentError(
                f"contraction engine supports dimensions 1 and 2, got {self.dimension}"
            )


def canonical_edge(a: Site, b: Site) -> Edge:
    return (a, b) if a < b else (b, a)

