"""The forestry worksite world: trees, zones, obstacles, line of sight.

This is the substrate for the paper's Figure 1: an area of forest containing a
harvesting site, a landing area connected by an extraction route, standing
trees that occlude sensors and block paths, and named operational zones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.perf import counters as perf
from repro.sim.geometry import Segment, Vec2
from repro.sim.rng import RngStreams
from repro.sim.terrain import Terrain, generate_terrain


@dataclass(frozen=True, slots=True)
class Tree:
    """A standing tree: a vertical cylinder that occludes and obstructs."""

    position: Vec2
    canopy_radius: float = 2.0
    trunk_radius: float = 0.3
    height: float = 18.0


@dataclass(frozen=True, slots=True)
class Zone:
    """A named rectangular operational zone (harvest site, landing area, ...)."""

    name: str
    min_corner: Vec2
    max_corner: Vec2

    def contains(self, p: Vec2) -> bool:
        return (
            self.min_corner.x <= p.x <= self.max_corner.x
            and self.min_corner.y <= p.y <= self.max_corner.y
        )

    def center(self) -> Vec2:
        return Vec2(
            (self.min_corner.x + self.max_corner.x) / 2.0,
            (self.min_corner.y + self.max_corner.y) / 2.0,
        )

    def area(self) -> float:
        return (self.max_corner.x - self.min_corner.x) * (
            self.max_corner.y - self.min_corner.y
        )


#: flat ``(x, y, radius)`` tuples of the trees a sweep iterates
_Candidates = List[Tuple[float, float, float]]


@dataclass(slots=True)
class _CorridorIndex:
    """Candidate memo of one sight-line sweep (canopy or trunk).

    ``corridors`` maps a corridor key (see :meth:`World._corridor`) to the
    flat ``(x, y, radius)`` tuples a sight line with that key can reach;
    ``cells`` holds each grid cell's tuples so corridors share them —
    iterating plain floats beats touching Tree attributes per query.
    """

    pad: float  # bounding-box pad of the sweep, metres
    radius: str  # the Tree attribute the sweep tests against
    max_radius: float = 0.0
    corridors: Dict[Tuple[int, int, int, int, bool], _Candidates] = field(
        default_factory=dict
    )
    cells: Dict[Tuple[int, int], _Candidates] = field(default_factory=dict)

    def add(self, radius: float) -> None:
        """Account for a new tree: widen the reach, drop every memo."""
        if radius > self.max_radius:
            self.max_radius = radius
        self.corridors.clear()
        self.cells.clear()


class World:
    """The worksite: terrain + trees + zones, with spatial queries.

    Trees are indexed in a coarse uniform hash grid so line-of-sight and
    obstruction queries stay fast for thousands of trees.
    """

    _CELL = 10.0  # metres; coarse grid cell for the tree index

    #: canopy-cache key resolution: positions are quantised to millimetres,
    #: so endpoints within 0.5 mm share an entry (static machines re-query
    #: bit-identical positions every frame; anything moving changes key)
    _CANOPY_QUANTUM = 1000.0
    #: LRU capacity of the canopy memo: long fuzz sessions with moving
    #: endpoints would otherwise grow the mm-quantised key space without
    #: bound.  Hot static-link keys are touched every frame, so eviction
    #: only sheds one-shot keys from moving endpoints.
    _CANOPY_CACHE_MAX = 65536
    #: capacity of each corridor memo (canopy and trunk); keys only change
    #: when an endpoint crosses a 10 m cell boundary, so even fleet-scale
    #: scenarios stay far below this
    _RECT_CACHE_MAX = 4096

    def __init__(
        self,
        terrain: Terrain,
        trees: Optional[Sequence[Tree]] = None,
        zones: Optional[Sequence[Zone]] = None,
    ) -> None:
        self.terrain = terrain
        self.trees: List[Tree] = []
        self.zones: Dict[str, Zone] = {}
        self._grid: Dict[Tuple[int, int], List[Tree]] = {}
        self._canopy_cache: Dict[Tuple[int, int, int, int], float] = {}
        self._canopy_index = _CorridorIndex(pad=5.0, radius="canopy_radius")
        self._trunk_index = _CorridorIndex(pad=1.0, radius="trunk_radius")
        for tree in trees or []:
            self.add_tree(tree)
        for zone in zones or []:
            self.add_zone(zone)

    @property
    def width(self) -> float:
        return self.terrain.width

    @property
    def height(self) -> float:
        return self.terrain.height

    def add_tree(self, tree: Tree) -> None:
        self.trees.append(tree)
        self._grid.setdefault(self._cell(tree.position), []).append(tree)
        # the forest changed: every memoised sight line is stale
        self._canopy_cache.clear()
        self._canopy_index.add(tree.canopy_radius)
        self._trunk_index.add(tree.trunk_radius)

    def add_zone(self, zone: Zone) -> None:
        if zone.name in self.zones:
            raise ValueError(f"duplicate zone name: {zone.name!r}")
        self.zones[zone.name] = zone

    def zone(self, name: str) -> Zone:
        return self.zones[name]

    def _cell(self, p: Vec2) -> Tuple[int, int]:
        return (int(p.x // self._CELL), int(p.y // self._CELL))

    def _trees_near(
        self, ax: float, ay: float, bx: float, by: float, pad: float
    ) -> List[Tree]:
        """Trees whose cells overlap the padded bounding box of ``a``–``b``.

        Each tree lives in exactly one grid cell, so the concatenated cell
        buckets are already duplicate-free, in cell-scan order.
        """
        cell = self._CELL
        grid = self._grid
        min_x = (ax if ax < bx else bx) - pad
        max_x = (ax if ax > bx else bx) + pad
        min_y = (ay if ay < by else by) - pad
        max_y = (ay if ay > by else by) + pad
        found: List[Tree] = []
        cy_lo = int(min_y // cell)
        cy_hi = int(max_y // cell) + 1
        for cx in range(int(min_x // cell), int(max_x // cell) + 1):
            for cy in range(cy_lo, cy_hi):
                bucket = grid.get((cx, cy))
                if bucket:
                    found.extend(bucket)
        return found

    def trees_near_segment(self, seg: Segment, pad: float = 5.0) -> List[Tree]:
        """Candidate trees whose cells overlap the segment's bounding box."""
        return self._trees_near(seg.a.x, seg.a.y, seg.b.x, seg.b.y, pad)

    def trees_within(self, center: Vec2, radius: float) -> List[Tree]:
        """Trees whose position lies within ``radius`` of ``center``."""
        found = []
        cells_x = range(
            int((center.x - radius) // self._CELL),
            int((center.x + radius) // self._CELL) + 1,
        )
        cells_y = range(
            int((center.y - radius) // self._CELL),
            int((center.y + radius) // self._CELL) + 1,
        )
        for cx in cells_x:
            for cy in cells_y:
                for tree in self._grid.get((cx, cy), ()):
                    if tree.position.distance_to(center) <= radius:
                        found.append(tree)
        return found

    def canopy_blockage(self, observer: Vec2, target: Vec2) -> float:
        """Total canopy path length (metres) intersected by the sight line.

        Used by ground-level sensors: each metre of canopy attenuates
        detection probability.  A drone looking down suffers far less canopy
        blockage, which is modelled by the occlusion layer in
        :mod:`repro.sensors.occlusion`.

        Results are memoised per millimetre-quantised endpoint pair: links
        between static machines re-query the identical sight line every
        frame.  The memo is an LRU bounded at :attr:`_CANOPY_CACHE_MAX`
        entries (dict insertion order doubles as recency order: hits are
        re-inserted at the end, the oldest entry is evicted at capacity),
        and is cleared whenever a tree is added.
        """
        q = self._CANOPY_QUANTUM
        key = (
            round(observer.x * q), round(observer.y * q),
            round(target.x * q), round(target.y * q),
        )
        cache = self._canopy_cache
        cached = cache.get(key)
        if cached is not None:
            # refresh recency: move the key to the end of the dict
            del cache[key]
            cache[key] = cached
            if perf.ACTIVE:
                perf.incr("world.canopy_cache_hit")
            return cached
        if perf.ACTIVE:
            perf.incr("world.canopy_cache_miss")
        total = self._canopy_blockage_uncached(observer, target)
        if len(cache) >= self._CANOPY_CACHE_MAX:
            del cache[next(iter(cache))]
            if perf.ACTIVE:
                perf.incr("world.canopy_cache_evict")
        cache[key] = total
        return total

    def _canopy_blockage_uncached(self, observer: Vec2, target: Vec2) -> float:
        # raw-float inline of Segment.circle_intersection_params over the
        # candidate trees — identical arithmetic, no per-tree allocations
        ax, ay = observer.x, observer.y
        bx, by = target.x, target.y
        length = math.hypot(ax - bx, ay - by)
        if length == 0.0:
            return 0.0
        dx = bx - ax
        dy = by - ay
        seg_norm_sq = dx * dx + dy * dy
        sqrt = math.sqrt
        total = 0.0
        if seg_norm_sq == 0.0:
            # denormal endpoint separation: length is nonzero but the squared
            # direction underflows.  Mirror Segment.circle_intersection_params,
            # which treats a == 0.0 as a point segment covered by any canopy
            # the point sits inside.
            for tree in self._trees_near(ax, ay, bx, by, 5.0):
                center = tree.position
                if math.hypot(ax - center.x, ay - center.y) <= tree.canopy_radius:
                    total += length
            return total
        for cx, cy, radius in self._corridor(ax, ay, bx, by, self._canopy_index):
            fx = ax - cx
            fy = ay - cy
            b_coef = 2.0 * (fx * dx + fy * dy)
            c = (fx * fx + fy * fy) - radius * radius
            disc = b_coef * b_coef - 4.0 * seg_norm_sq * c
            if disc < 0.0:
                continue
            sqrt_disc = sqrt(disc)
            t0 = (-b_coef - sqrt_disc) / (2.0 * seg_norm_sq)
            t1 = (-b_coef + sqrt_disc) / (2.0 * seg_norm_sq)
            lo = t0 if t0 > 0.0 else 0.0
            hi = t1 if t1 < 1.0 else 1.0
            if lo > hi:
                continue
            total += (hi - lo) * length
        return total

    def trunk_blocks(self, observer: Vec2, target: Vec2) -> bool:
        """True if a trunk lies directly on the sight line."""
        # raw-float inline of Segment.distance_to_point over the corridor
        ax, ay = observer.x, observer.y
        bx, by = target.x, target.y
        dx = bx - ax
        dy = by - ay
        denom = dx * dx + dy * dy
        # off-line reject: a trunk whose centre is farther than its radius
        # (+1 mm of rounding slack) from the infinite line cannot be within
        # its radius of the segment.  Degenerate segments skip it and keep
        # the plain arithmetic below.
        reject = denom > 1e-6
        hypot = math.hypot
        for tx, ty, trunk in self._corridor(ax, ay, bx, by, self._trunk_index):
            fx = tx - ax
            fy = ty - ay
            if reject:
                cross = fx * dy - fy * dx
                slack = trunk + 0.001
                if cross * cross > slack * slack * denom:
                    continue
            # Do not let the endpoints' own immediate surroundings count.
            if hypot(fx, fy) < trunk + 0.1:
                continue
            if hypot(tx - bx, ty - by) < trunk + 0.1:
                continue
            if denom == 0.0:
                dist = hypot(ax - tx, ay - ty)
            else:
                t = (fx * dx + fy * dy) / denom
                if t < 0.0:
                    t = 0.0
                elif t > 1.0:
                    t = 1.0
                dist = hypot(ax + dx * t - tx, ay + dy * t - ty)
            if dist <= trunk:
                return True
        return False

    def _corridor(
        self, ax: float, ay: float, bx: float, by: float, index: _CorridorIndex
    ) -> _Candidates:
        """Candidate ``(x, y, radius)`` tuples the sight line a–b can reach.

        The key is the 10 m cell rectangle of the ``index.pad``-padded
        bounding box plus one orientation bit (rising or falling line).  A
        moving endpoint keeps its key until it crosses a cell boundary, so
        one corridor serves many consecutive queries.  The corridor is a
        subset of the rectangle's trees in the x-major order of
        :meth:`_trees_near`, and a superset of every tree within
        ``index.max_radius`` of any line with this key; see
        :meth:`_build_corridor`.
        """
        cell = self._CELL
        pad = index.pad
        key = (
            int(((ax if ax < bx else bx) - pad) // cell),
            int(((ax if ax > bx else bx) + pad) // cell),
            int(((ay if ay < by else by) - pad) // cell),
            int(((ay if ay > by else by) + pad) // cell),
            (bx - ax) * (by - ay) >= 0.0,
        )
        corridors = index.corridors
        found = corridors.get(key)
        if found is None:
            found = self._build_corridor(key, index)
            if len(corridors) >= self._RECT_CACHE_MAX:
                corridors.clear()
            corridors[key] = found
        return found

    def _build_corridor(
        self, key: Tuple[int, int, int, int, bool], index: _CorridorIndex
    ) -> _Candidates:
        """The cells of the key's rectangle that a line with this key reaches.

        The rectangle pins each endpoint to a cell-sized square: the low-x
        endpoint has x in ``[rx0*cell + pad, (rx0+1)*cell + pad)``, the
        high-x one x in ``[rx1*cell - pad, (rx1+1)*cell - pad)``, and the
        orientation bit says which of them has the low y.  Every point of a
        segment between the two squares lies within half a cell diagonal of
        the segment between their centres, so a tree within ``max_radius``
        of the sight line lies within ``reach`` of that centre segment; the
        extra millimetre absorbs float rounding in the key.
        """
        rx0, rx1, ry0, ry1, rising = key
        cell = self._CELL
        half = 0.5 * cell
        pad = index.pad
        px = rx0 * cell + half + pad
        qx = rx1 * cell + half - pad
        low_y = ry0 * cell + half + pad
        high_y = ry1 * cell + half - pad
        py, qy = (low_y, high_y) if rising else (high_y, low_y)
        reach = index.max_radius + half * math.sqrt(2.0) + 0.001
        x_lo, x_hi = (px, qx) if px <= qx else (qx, px)
        slope = (qy - py) / (qx - px) if qx != px else None
        grid = self._grid
        cells = index.cells
        radius = index.radius
        found: _Candidates = []
        for gx in range(rx0, rx1 + 1):
            # y-extent of the part of the centre segment that comes within
            # reach of this column, widened by reach
            xa = max(gx * cell - reach, x_lo)
            xb = min((gx + 1) * cell + reach, x_hi)
            if xa > xb:
                continue
            if slope is None:  # vertical centre segment
                ya, yb = py, qy
            else:
                ya = py + slope * (xa - px)
                yb = py + slope * (xb - px)
            if ya > yb:
                ya, yb = yb, ya
            gy_lo = max(ry0, int((ya - reach) // cell))
            gy_hi = min(ry1, int((yb + reach) // cell))
            for gy in range(gy_lo, gy_hi + 1):
                cell_key = (gx, gy)
                flat = cells.get(cell_key)
                if flat is None:
                    bucket = grid.get(cell_key)
                    if not bucket:
                        continue
                    flat = cells[cell_key] = [
                        (t.position.x, t.position.y, getattr(t, radius))
                        for t in bucket
                    ]
                found.extend(flat)
        return found

    def terrain_blocks(
        self,
        observer: Vec2,
        observer_height: float,
        target: Vec2,
        target_height: float,
        *,
        observer_ground: Optional[float] = None,
        target_ground: Optional[float] = None,
    ) -> bool:
        """True if terrain blocks the 3-D sight line.

        ``observer_ground``/``target_ground`` optionally forward
        already-computed ground elevations (see
        :meth:`Terrain.blocks_line_of_sight`).
        """
        return self.terrain.blocks_line_of_sight(
            observer, observer_height, target, target_height,
            observer_ground=observer_ground, target_ground=target_ground,
        )

    def is_traversable(self, p: Vec2, clearance: float = 1.5) -> bool:
        """True if a ground vehicle can occupy ``p``.

        A position is blocked by nearby trunks or by excessive slope.
        """
        if not self.terrain.contains(p):
            return False
        if self.terrain.slope_at(p) > 0.45:
            return False
        for tree in self.trees_within(p, clearance + 1.0):
            if tree.position.distance_to(p) < tree.trunk_radius + clearance:
                return False
        return True


def generate_forest(
    streams: RngStreams,
    *,
    width: float = 300.0,
    height: float = 300.0,
    tree_density: float = 0.02,
    clearings: Optional[Sequence[Zone]] = None,
    n_ridges: int = 4,
    ridge_height: float = 6.0,
) -> World:
    """Generate a deterministic forest worksite.

    Parameters
    ----------
    tree_density:
        Trees per square metre outside clearings (0.02 ≈ managed boreal stand).
    clearings:
        Zones kept free of trees (harvest site, landing area, routes).
    """
    terrain = generate_terrain(
        width, height, streams, n_ridges=n_ridges, ridge_height=ridge_height
    )
    rng = streams.stream("forest")
    clearings = list(clearings or [])
    n_trees = int(width * height * tree_density)
    trees = []
    attempts = 0
    while len(trees) < n_trees and attempts < n_trees * 10:
        attempts += 1
        p = Vec2(rng.uniform(0.0, width), rng.uniform(0.0, height))
        if any(zone.contains(p) for zone in clearings):
            continue
        canopy = rng.uniform(1.5, 3.5)
        trunk = rng.uniform(0.15, 0.45)
        tall = rng.uniform(12.0, 26.0)
        trees.append(
            Tree(position=p, canopy_radius=canopy, trunk_radius=trunk, height=tall)
        )
    world = World(terrain, trees=trees, zones=clearings)
    return world
