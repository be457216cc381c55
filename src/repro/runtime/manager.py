"""Fabric manager: on-line placement of relocatable tasks.

The point of position-abstracted bitstreams is that the run-time system
chooses where a task lands.  The manager implements that choice: it scans
the fabric for a free rectangle (first-fit or best-fit over the candidate
origins), asks the controller to decode the task there, and can
defragment by migrating resident tasks toward the origin corner.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import RuntimeManagementError
from repro.runtime.controller import ReconfigurationController, ResidentTask
from repro.runtime.costmodel import DecodeCacheStats
from repro.utils.geometry import Rect

#: Supported placement strategies.
FIRST_FIT = "first-fit"
BEST_FIT = "best-fit"


class FabricManager:
    """Placement policy layered over a :class:`ReconfigurationController`."""

    def __init__(
        self,
        controller: ReconfigurationController,
        strategy: str = FIRST_FIT,
    ):
        if strategy not in (FIRST_FIT, BEST_FIT):
            raise RuntimeManagementError(f"unknown strategy {strategy!r}")
        self.controller = controller
        self.strategy = strategy

    # -- free-region search ---------------------------------------------------------

    def _occupancy(self, ignore: Optional[str] = None) -> List[bytearray]:
        """``grid[y][x]`` is 1 where a resident task other than ``ignore``
        covers the cell, 0 where the cell is free."""
        fabric = self.controller.fabric
        grid = [bytearray(fabric.width) for _ in range(fabric.height)]
        for task in self.controller.resident.values():
            if task.name != ignore:
                box = task.region
                for row in grid[box.y:box.y2]:
                    row[box.x:box.x2] = b"\x01" * box.w
        return grid

    def _free_perimeter(self, region: Rect, grid: List[bytearray]) -> int:
        """Free cells on the one-cell ring around ``region``.

        The adjacency-aware best-fit score: cells of the surrounding ring
        that are outside the fabric or covered by a resident task count as
        *contact* (good — the placement hugs an edge or a neighbour);
        whatever remains is free perimeter whose fragmentation potential
        best-fit minimizes.  ``grid`` is the ``_occupancy`` of the
        resident set being scored against.
        """
        x, y, w, h = region.x, region.y, region.w, region.h
        height, width = len(grid), len(grid[0])
        free = 0
        if y > 0:
            free += grid[y - 1][x:x + w].count(0)
        if y + h < height:
            free += grid[y + h][x:x + w].count(0)
        for row in grid[y:y + h]:
            if x > 0 and not row[x - 1]:
                free += 1
            if x + w < width and not row[x + w]:
                free += 1
        return free

    def find_origin(
        self, w: int, h: int, ignore: Optional[str] = None
    ) -> Optional[Tuple[int, int]]:
        """An origin where a ``w x h`` task fits, or None.

        First-fit returns the raster-first free origin; best-fit minimizes
        the free perimeter around the placed rectangle (adjacency-aware
        fragmentation avoidance), breaking ties toward the origin corner
        and then raster order.

        ``ignore`` excludes one resident task from collision and scoring —
        pass the migrating task's own name so it may slide into a region
        overlapping its current footprint.

        The resident boxes are gathered once per call.  Row by row, a box
        whose rows meet the candidate rows blocks the origins ``x`` with
        ``box.x - w < x < box.x2``; the free origins of the row are the
        gaps between those sorted intervals.
        """
        fabric = self.controller.fabric
        width, height = fabric.width, fabric.height
        boxes = [
            task.region
            for task in self.controller.resident.values()
            if task.name != ignore
        ]
        grid = self._occupancy(ignore) if self.strategy == BEST_FIT else None
        best: Optional[Tuple[int, int]] = None
        best_score: Optional[Tuple[int, int]] = None
        last_x = width - w
        for y in range(height - h + 1):
            blocked = sorted(
                (box.x - w + 1, box.x2)
                for box in boxes
                if box.y < y + h and y < box.y2
            )
            blocked.append((last_x + 1, last_x + 1))
            x = 0
            for lo, hi in blocked:
                for fx in range(x, min(lo, last_x + 1)):
                    if grid is None:
                        return (fx, y)
                    score = (
                        self._free_perimeter(Rect(fx, y, w, h), grid=grid),
                        fx + y,
                    )
                    if best_score is None or score < best_score:
                        best, best_score = (fx, y), score
                x = max(x, hi)
        return best

    # -- high-level operations ----------------------------------------------------------

    def make_room(self, w: int, h: int) -> Optional[List[str]]:
        """Unload oldest-resident tasks until a ``w x h`` origin exists.

        Victims are chosen in placement order (the controller's resident
        dict preserves insertion order; a migration re-registers a task,
        so "oldest" means oldest *placement*).  Returns the evicted task
        names — possibly empty when a region is already free — or None
        when even an empty fabric cannot host ``w x h``.
        """
        fabric = self.controller.fabric
        if w > fabric.width or h > fabric.height:
            return None  # infeasible even empty: evict nothing
        evicted: List[str] = []
        while self.find_origin(w, h) is None:
            victim = next(iter(self.controller.resident), None)
            if victim is None:
                return None  # unreachable given the bounds check above
            self.controller.unload_task(victim)
            evicted.append(victim)
        return evicted

    def place_task(self, name: str, evict: bool = False) -> ResidentTask:
        """Load ``name`` from external memory at an automatically chosen spot.

        ``evict=True`` makes room by unloading oldest-resident tasks when
        no free region exists (the workload simulator's arrival policy);
        the default keeps the historical fail-fast behavior.
        """
        image = self.controller.memory.image(name)
        if image is None:
            raise RuntimeManagementError(f"no image named {name!r} in memory")
        if name in self.controller.resident:
            # Re-placing a resident task: release its own region first so
            # the search can reuse it.  Without this the stale footprint
            # blocks the search and ``evict=True`` unloads unrelated
            # victims before load_task rejects the duplicate anyway.  The
            # freed region always fits the image (it held it), so the
            # re-place below cannot fail and the task is never lost.
            self.controller.unload_task(name)
        origin = self.find_origin(image.width, image.height)
        if origin is None and evict:
            if self.make_room(image.width, image.height) is not None:
                origin = self.find_origin(image.width, image.height)
        if origin is None:
            raise RuntimeManagementError(
                f"no free {image.width}x{image.height} region for task {name!r}"
            )
        return self.controller.load_task(name, origin)

    def defragment(self) -> int:
        """Pack resident tasks toward the origin corner; return migrations.

        Tasks are revisited in raster order of their current origin and
        migrated to the first free origin (which can only be at or before
        their current position), so the loop terminates in one pass.  The
        search ignores the migrating task's own footprint, so a task can
        slide into a region overlapping its current one — without that, a
        task bordered by its own cells could never move and trivial
        fragmentation would survive.
        """
        moved = 0
        order = sorted(
            self.controller.resident.values(),
            key=lambda t: (t.region.y, t.region.x),
        )
        for task in order:
            current = task.region
            target = self.find_origin(current.w, current.h, ignore=task.name)
            if target is None:
                continue
            if target == (current.x, current.y):
                continue
            if target[1] * self.controller.fabric.width + target[0] < (
                current.y * self.controller.fabric.width + current.x
            ):
                self.controller.migrate_task(task.name, target)
                moved += 1
        return moved

    # -- introspection -----------------------------------------------------------------

    @property
    def cache_stats(self) -> Optional[DecodeCacheStats]:
        """Decode-cache hit/miss counters (None when caching is disabled)."""
        cache = self.controller.decode_cache
        return cache.stats if cache is not None else None

    @property
    def shared_dict_ids(self) -> List[int]:
        """Resident task-table ids (VERSION 4 shared dictionaries).

        A table appears here exactly while at least one resident task
        references it — eviction of the last referencing task drops it
        (the controller's refcount contract).
        """
        return sorted(self.controller.shared_dicts)
