"""The run-time reconfiguration controller (Section II-C, Figure 2).

The controller owns the fabric's configuration layer.  It fetches task
images from external memory, de-virtualizes Virtual Bit-Streams at
origin (0, 0) and writes the expanded frames at the requested position
("decoded and finalized in real-time and at run-time ... to be placed at
a given physical location"), tracks which region every task occupies,
and supports unloading and migration (writing the same VBS expansion at
a new origin).

All operations return cycle costs from :mod:`repro.runtime.costmodel`, so
experiments can compare raw-versus-VBS load latency and decoder
parallelism.

Repeated and relocated loads of the same image are served from an LRU
:class:`~repro.runtime.costmodel.DecodeCache` (content-digest keyed,
origin-independent entries): they skip the de-virtualization replay
entirely and copy the cached expansion once, straight into the fabric
configuration at the target offset; see ``docs/architecture.md`` for the
cache contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.arch.fabric import FabricArch
from repro.bitstream.config import FabricConfig
from repro.bitstream.raw import RawBitstream
from repro.errors import BitstreamError, RuntimeManagementError
from repro.runtime.costmodel import (
    CachedDecode,
    CostParams,
    DecodeCache,
    LoadCost,
    decode_cost,
    shared_dict_digest,
    write_cost,
)
from repro.runtime.memory import ExternalMemory, StoredImage
from repro.utils.bitarray import BitArray
from repro.utils.geometry import Rect
from repro.vbs.decode import DecodeStats, decode_vbs
from repro.vbs.devirt import DecodeMemo
from repro.vbs.encode import VirtualBitstream

if TYPE_CHECKING:
    from repro.vbs.encode import TaskEncodeResult


@dataclass
class ResidentTask:
    """A task currently configured on the fabric."""

    name: str
    region: Rect
    image: StoredImage
    load_cost: LoadCost
    decode_stats: Optional[DecodeStats]
    #: VERSION 4 shared-dictionary id the image references (None for
    #: self-contained containers).  The controller refcounts resident
    #: tables by this field.
    shared_dict_id: Optional[int] = None


class ReconfigurationController:
    """Decode-and-place engine over one fabric's configuration layer."""

    def __init__(
        self,
        fabric: FabricArch,
        memory: ExternalMemory,
        cost_params: Optional[CostParams] = None,
        decode_cache: "DecodeCache | None" = None,
        cache_capacity: "int | None" = 16,
        cache_capacity_bytes: Optional[int] = None,
        memo_entries: Optional[int] = 4096,
    ):
        self.fabric = fabric
        self.memory = memory
        self.cost_params = cost_params or CostParams(bus_bits=memory.bus_bits)
        #: The fabric-wide configuration layer (all macros, default zeros).
        self.config = FabricConfig(
            fabric.params, Rect(0, 0, fabric.width, fabric.height)
        )
        self.resident: Dict[str, ResidentTask] = {}
        #: Decode cache: repeated/relocated loads of the same image skip
        #: ClusterDecoder replay.  ``cache_capacity`` None or <=0 lifts
        #: the entry-count bound; ``cache_capacity_bytes`` adds an
        #: expanded-image byte budget (then the only bound).  With
        #: neither bound the cache is disabled entirely.
        if decode_cache is not None:
            self.decode_cache: Optional[DecodeCache] = decode_cache
        elif cache_capacity is None or cache_capacity <= 0:
            self.decode_cache = (
                DecodeCache(None, capacity_bytes=cache_capacity_bytes)
                if cache_capacity_bytes is not None
                else None
            )
        else:
            self.decode_cache = DecodeCache(
                cache_capacity, capacity_bytes=cache_capacity_bytes
            )
        #: Cross-task cluster-level result reuse (identical lists decode
        #: once even across different images sharing wiring patterns).
        #: Bounded, unlike an encoder-run memo: the controller lives for
        #: the whole serving session.  ``memo_entries=0`` or ``None``
        #: disables reuse entirely (every decode replays the router).
        self.decode_memo: Optional[DecodeMemo] = (
            DecodeMemo(max_entries=memo_entries) if memo_entries else None
        )
        #: Resident shared-dictionary tables (VERSION 4 task tables),
        #: faulted in from external memory on first reference and held
        #: exactly while at least one resident task references them —
        #: the refcounts below drop a table the moment its last
        #: referencing container leaves the fabric.
        self.shared_dicts: Dict[int, Tuple["BitArray", ...]] = {}
        self._shared_dict_refs: Dict[int, int] = {}
        #: Lifecycle counters of the resident tables (the workload
        #: simulator reports them as per-run deltas): ``faults`` counts
        #: tables brought resident from external memory, ``drops`` counts
        #: tables released when their last referencing task unloaded.
        self.shared_dict_faults = 0
        self.shared_dict_drops = 0
        #: ``dict_id -> (table, digest)``: the cache validator's memo.
        self._table_digests: Dict[int, Tuple[tuple, str]] = {}

    # -- placement bookkeeping ----------------------------------------------------

    def region_free(self, region: Rect, ignore: Optional[str] = None) -> bool:
        """True when ``region`` is inside the fabric and collision-free.

        ``ignore`` names a resident task whose footprint does not count as
        a collision — the migration/defragmentation case, where a task may
        slide into a region overlapping its own current position.
        """
        if not self.fabric.bounds.contains_rect(region):
            return False
        return all(
            task.name == ignore or not task.region.overlaps(region)
            for task in self.resident.values()
        )

    def _claim_region(self, name: str, region: Rect) -> None:
        if not self.fabric.bounds.contains_rect(region):
            raise RuntimeManagementError(
                f"task {name}: region {region} exceeds fabric "
                f"{self.fabric.width}x{self.fabric.height}"
            )
        for other in self.resident.values():
            if other.region.overlaps(region):
                raise RuntimeManagementError(
                    f"task {name}: region {region} collides with resident "
                    f"task {other.name} at {other.region}"
                )

    # -- configuration writes --------------------------------------------------------

    def _write_config(self, task_config: FabricConfig, dx: int, dy: int) -> int:
        """Write ``task_config`` translated by (dx, dy); return bits written.

        Everything is validated before the first mutation, so a write
        that raises leaves the fabric configuration untouched:
        ``task_config`` must describe the fabric's architecture, the
        translated region must lie inside the fabric and every logic
        entry must be NLB bits wide.  Cell coordinates and switch offsets
        are not re-checked per cell — a ``FabricConfig`` is validated
        where it enters the controller (the checked setters of
        ``decode_vbs`` and ``RawBitstream.to_config``, which bound them
        by the config's own architecture, or ``DecodeCache.load`` for
        restored entries), so the architecture check is what bounds them
        by the fabric's.  Each cell gets its own copy, so the fabric
        never aliases a cached expansion.
        """
        if task_config.params != self.fabric.params:
            raise BitstreamError(
                f"task configuration is for {task_config.params}, not the "
                f"fabric's {self.fabric.params}"
            )
        region = task_config.region.translated(dx, dy)
        if not self.config.region.contains_rect(region):
            raise BitstreamError(
                f"task region {region} outside fabric {self.config.region}"
            )
        nlb = self.fabric.params.nlb
        for bits in task_config.logic.values():
            if len(bits) != nlb:
                raise BitstreamError(
                    f"logic data must be {nlb} bits, got {len(bits)}"
                )
        logic, closed = self.config.logic, self.config.closed
        for (x, y), bits in task_config.logic.items():
            logic[x + dx, y + dy] = bits.copy()
        for (x, y), switches in task_config.closed.items():
            if switches:
                closed[x + dx, y + dy] = set(switches)
        # Every frame of the region is written, occupied or not (Eq. 1).
        return region.w * region.h * self.fabric.params.nraw

    def _clear_region(self, region: Rect) -> None:
        logic, closed = self.config.logic, self.config.closed
        for y in range(region.y, region.y2):
            for x in range(region.x, region.x2):
                logic.pop((x, y), None)
                closed.pop((x, y), None)

    # -- shared dictionaries (VERSION 4 task tables) ------------------------------

    def resolve_shared_dict(self, dict_id: int):
        """Shared-dictionary resolver handed to the container parser.

        Serves the resident table when one is held, faulting it in from
        external memory otherwise; returns None for an unknown id (the
        parser turns that into a loud :class:`~repro.errors.VbsError`).

        Republishing an id while resident tasks still reference its old
        table is refused loudly: decoding new containers against the
        stale resident copy (or evicted tasks' images against the new
        one) would silently fabricate logic fields — the caller must
        pick a fresh id or unload the referencing tasks first.
        """
        resident = self.shared_dicts.get(dict_id)
        stored = self.memory.shared_dict(dict_id)
        if resident is not None:
            if stored is not None and stored != resident:
                raise RuntimeManagementError(
                    f"shared dictionary {dict_id} was republished while "
                    f"{self._shared_dict_refs.get(dict_id, 0)} resident "
                    f"task(s) still reference the old table"
                )
            return resident
        return stored

    def _retain_shared_dict(self, dict_id: int) -> None:
        """Count one more resident container referencing ``dict_id``."""
        if dict_id not in self._shared_dict_refs:
            table = self.resolve_shared_dict(dict_id)
            if table is None:
                raise RuntimeManagementError(
                    f"no shared dictionary with id {dict_id} in memory"
                )
            self.shared_dicts[dict_id] = table
            self._shared_dict_refs[dict_id] = 0
            self.shared_dict_faults += 1
        self._shared_dict_refs[dict_id] += 1

    def _release_shared_dict(self, dict_id: int) -> None:
        """Drop the resident table when its last referencing task leaves."""
        refs = self._shared_dict_refs.get(dict_id)
        if refs is None:
            return
        if refs <= 1:
            del self._shared_dict_refs[dict_id]
            self.shared_dicts.pop(dict_id, None)
            self.shared_dict_drops += 1
        else:
            self._shared_dict_refs[dict_id] = refs - 1

    # -- de-virtualization with caching ------------------------------------------

    def _table_digest(self, dict_id: int, table: Tuple["BitArray", ...]) -> str:
        """``shared_dict_digest(table)``, memoized per table object.

        The memo holds the table itself, so the identity test cannot be
        fooled by a recycled ``id``; a republished id is a new tuple and
        is hashed afresh.
        """
        memo = self._table_digests.get(dict_id)
        if memo is None or memo[0] is not table:
            memo = (table, shared_dict_digest(table))
            self._table_digests[dict_id] = memo
        return memo[1]

    def _entry_fresh(self, entry: CachedDecode) -> bool:
        """Whether a cached shared-dict entry matches the published table."""
        if entry.shared_dict_id is None:
            return True
        table = self.resolve_shared_dict(entry.shared_dict_id)
        return (
            table is not None
            and self._table_digest(entry.shared_dict_id, table)
            == entry.shared_dict_digest
        )

    def _decode_image(
        self, image: StoredImage
    ) -> Tuple[FabricConfig, DecodeStats, bool, Optional[int]]:
        """De-virtualize a VBS image at origin (0, 0), through the cache.

        Returns ``(config, stats, cache_hit, shared_dict_id)``.  The
        cache stores the origin-(0, 0) expansion — position abstraction
        makes one entry serve every placement — and ``_write_config``
        writes it at the target offset, so a hit does zero router work
        and no translation (the entry remembers the shared-dictionary id
        so refcounting works without re-parsing).  The returned config
        may be the cached one: callers must only read it.  The container
        is parsed against the fabric's architecture, so a prelude that
        declares another channel width or LUT size fails loudly.

        A shared-dict entry is validated against the *currently
        published* table before it is served: the container bytes digest
        only the 16-bit id, so a republished id would otherwise hit a
        stale expansion (including across processes via the persisted
        cache).  A stale or unresolvable entry counts as a miss and is
        re-decoded.
        """
        if self.decode_cache is not None:
            key = DecodeCache.key_for(image)
            entry = self.decode_cache.get(key, validator=self._entry_fresh)
            if entry is not None:
                return entry.config, entry.stats, True, entry.shared_dict_id
        vbs = VirtualBitstream.from_bits(
            image.bits,
            params=self.fabric.params,
            shared_dicts=self.resolve_shared_dict,
        )
        base, stats = decode_vbs(vbs, memo=self.decode_memo)
        dict_id = vbs.layout.shared_dict_id
        if self.decode_cache is not None:
            self.decode_cache.put(key, CachedDecode(
                config=base,
                stats=stats,
                codec_tags=tuple(sorted(vbs.codec_tags())),
                layout=(
                    vbs.layout.width,
                    vbs.layout.height,
                    vbs.layout.cluster_size,
                    vbs.layout.compact_logic,
                ),
                shared_dict_id=dict_id,
                shared_dict_digest=(
                    shared_dict_digest(vbs.layout.dict_table)
                    if dict_id is not None
                    else None
                ),
            ))
        return base, stats, False, dict_id

    # -- task lifecycle ---------------------------------------------------------------

    def load_task(self, name: str, origin: Tuple[int, int]) -> ResidentTask:
        """Fetch, decode (if virtual) and configure a task at ``origin``."""
        if name in self.resident:
            raise RuntimeManagementError(f"task {name!r} is already loaded")
        image, fetch_cycles = self.memory.fetch(name)
        region = Rect(origin[0], origin[1], image.width, image.height)
        self._claim_region(name, region)

        cost = LoadCost(fetch_cycles=fetch_cycles)
        stats: Optional[DecodeStats] = None
        shared_dict_id: Optional[int] = None
        if image.kind == "vbs":
            task_config, stats, cost.cache_hit, shared_dict_id = (
                self._decode_image(image)
            )
            if not cost.cache_hit:
                cost.decode_cycles, cost.per_unit_cycles = decode_cost(
                    stats, self.cost_params
                )
        else:
            raw = RawBitstream(
                self.fabric.params, image.width, image.height, image.bits
            )
            task_config = raw.to_config()
        if (task_config.region.w, task_config.region.h) != (
            region.w, region.h
        ):
            # The claim covered the declared size; a larger container
            # would write onto cells another task may own.
            raise RuntimeManagementError(
                f"task {name}: image declares {region.w}x{region.h} "
                f"macros but decodes to "
                f"{task_config.region.w}x{task_config.region.h}"
            )
        # Retain the shared table *before* any fabric/resident mutation:
        # a cache-hit load whose table has left external memory must fail
        # cleanly, not leave a half-registered task behind.
        if shared_dict_id is not None:
            self._retain_shared_dict(shared_dict_id)
        try:
            bits_written = self._write_config(task_config, *origin)
        except BitstreamError:
            # The write changed nothing; neither may the failed load.
            if shared_dict_id is not None:
                self._release_shared_dict(shared_dict_id)
            raise
        cost.write_cycles = write_cost(bits_written, self.cost_params)

        task = ResidentTask(
            name, region, image, cost, stats,
            shared_dict_id=shared_dict_id,
        )
        self.resident[name] = task
        return task

    def unload_task(self, name: str) -> None:
        """Remove a task's configuration from the fabric.

        A task referencing a shared dictionary releases its reference;
        the resident table is dropped exactly when the last referencing
        task leaves (it stays available in external memory for later
        reloads).
        """
        task = self.resident.pop(name, None)
        if task is None:
            raise RuntimeManagementError(f"task {name!r} is not loaded")
        self._clear_region(task.region)
        if task.shared_dict_id is not None:
            self._release_shared_dict(task.shared_dict_id)

    def migrate_task(self, name: str, new_origin: Tuple[int, int]) -> ResidentTask:
        """Relocate a task: clear its region and re-decode at the new origin.

        This is the paper's "decoding the VBS on-the-fly during the task
        migration" — no position-specific bitstream was ever stored.
        """
        task = self.resident.get(name)
        if task is None:
            raise RuntimeManagementError(f"task {name!r} is not loaded")
        new_region = Rect(
            new_origin[0], new_origin[1], task.region.w, task.region.h
        )
        if not self.fabric.bounds.contains_rect(new_region):
            raise RuntimeManagementError(
                f"task {name}: migration target {new_region} exceeds fabric"
            )
        for other in self.resident.values():
            if other.name != name and other.region.overlaps(new_region):
                raise RuntimeManagementError(
                    f"task {name}: migration target collides with "
                    f"{other.name}"
                )
        if task.shared_dict_id is not None:
            # Validate the shared table *before* the unload, like every
            # other migrate precondition: a republished id (the resolver
            # raises) or a vanished table must fail while the task is
            # still resident, never lose it between unload and reload.
            if self.resolve_shared_dict(task.shared_dict_id) is None:
                raise RuntimeManagementError(
                    f"task {name}: shared dictionary "
                    f"{task.shared_dict_id} is no longer available"
                )
        self.unload_task(name)
        return self.load_task(name, new_origin)

    # -- convenience -------------------------------------------------------------------

    def store_vbs(self, name: str, vbs: VirtualBitstream) -> StoredImage:
        """Publish a Virtual Bit-Stream into external memory."""
        return self.memory.store(
            name, vbs.to_bits(), "vbs", vbs.layout.width, vbs.layout.height
        )

    def store_task(
        self, names: "Sequence[str]", result: "TaskEncodeResult"
    ) -> "list[StoredImage]":
        """Publish a task-scope encode: every container plus, when the
        task kept one, its shared dictionary table.

        The table is stored *before* the images so a load can never
        observe a container whose reference is unresolvable.
        """
        if len(names) != len(result.containers):
            raise RuntimeManagementError(
                f"{len(names)} names for {len(result.containers)} containers"
            )
        if result.shared:
            self.memory.store_shared_dict(result.dict_id, result.table)
        return [
            self.store_vbs(name, vbs)
            for name, vbs in zip(names, result.containers)
        ]

    def store_raw(self, name: str, raw: RawBitstream) -> StoredImage:
        """Publish a raw bitstream into external memory (baseline path)."""
        bits: BitArray = raw.bits
        return self.memory.store(name, bits, "raw", raw.width, raw.height)

    def utilization(self) -> float:
        """Fraction of fabric macros covered by resident task regions."""
        covered = sum(t.region.area for t in self.resident.values())
        return covered / self.fabric.bounds.area
