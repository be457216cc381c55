"""The Virtual Bit-Stream binary format (Table I of the paper).

Payload layout (all fields big-endian unsigned, sizes per Table I)::

    header:
        task width - 1        ceil(log2(max(w, h))) bits
        task height - 1       ceil(log2(max(w, h))) bits
        cluster count         ceil(log2(n_cluster_cells + 1)) bits
    per listed cluster (raster order; empty clusters are omitted):
        position X            ceil(log2(max(cgw, cgh))) bits
        position Y            same
        route count           route-count field (see below)
        if route count == RAW sentinel:
            c^2 * Nraw raw frame bits (cluster macros in raster order)
        else:
            c^2 * NLB logic-data bits
            route count x (In, Out) connection pairs, M bits each endpoint

with ``M = ceil(log2(4cW + c^2 L + 1))`` (Section II-B; M = 5 for the
paper's W = 5, L = 7 single-macro example).

Deviations from Table I (see "Reproduction deviations" in
docs/architecture.md): the route-count field precedes the logic data so
the raw-fallback escape (all-ones sentinel, Section III-B's "raw coding
... instead of the smart connection list") is decodable, and a fixed
63-bit container prelude carries the architecture parameters and task
dimensions so a VBS file is self-describing.  ``size_bits`` everywhere
reports the Table I payload accounting used in the paper's figures,
excluding the prelude.

Since container VERSION 2 every cluster record carries an explicit
``CODEC_TAG_BITS``-bit codec tag after its position fields, and the record
body is read and written by the codec registered under that tag
(``repro.vbs.codecs``).  The three legacy codings — connection list, raw
fallback, and the Section V compact-logic variant — keep their VERSION 1
record-body bit layouts exactly; the tag merely makes the choice explicit
per record instead of implicit in the raw sentinel and the layout-wide
compact flag, which is what lets new codecs (e.g. the zero-skip
run-length coding) join without another container bump.

Container VERSION 3 adds two things on top of VERSION 2, both gated so
old readers *safely reject* at the version field instead of mis-parsing:

* a **dictionary section** between the prelude and the Table I header —
  a ``DICT_COUNT_BITS`` pattern count followed by that many verbatim
  ``c^2 * NLB`` logic patterns.  Records coded by the dictionary codec
  reference these patterns by index instead of carrying a logic field;
* **stateful codecs**: the container walk threads a :class:`CodecState`
  through every record in raster order, so the delta codec can XOR-code
  a record's logic field against the nearest preceding smart record.

A container is written as VERSION 3 exactly when it needs either feature
(a non-empty dictionary table, or any record coded with a tag above
``MAX_V2_TAG``); everything else still serializes as VERSION 2, and the
legacy VERSION 1 layout remains both readable and writable for archival
round-trips (``to_bits(version=1)``).

Container VERSION 4 widens the per-record codec tag from
``CODEC_TAG_BITS`` (3) to ``WIDE_CODEC_TAG_BITS`` (5) — the 3-bit space
was saturated by the VERSION 3 family — and adds an optional **shared
dictionary reference**: a ``SHARED_DICT_ID_BITS`` id field right after
the prelude (0 = none).  A non-zero id means the container's pattern
table is *not* embedded; it lives in the run-time manager's external
memory under that id and is shared by every container of the same task,
so the table's storage is paid once per task instead of once per
container.  When the id is zero the embedded dictionary section follows
exactly as in VERSION 3.  The tag width is version-gated: VERSION 1-3
streams keep their byte-exact layouts, and a stream is only written as
VERSION 4 when it uses a wide-tag codec (tag above ``MAX_V3_TAG``) or a
shared dictionary reference — the encoder's family pass upgrades a
container only when the wider framing pays for itself.

Compact logic mode (the paper's future-work "smarter coding of the VBS to
gain ... in size", Section V) replaces the unconditional ``c^2 * NLB``
logic field by one presence bit per member macro followed by NLB bits for
present macros only — a large win for clusters covering sparse fabric.
It is off by default so the headline experiments use strict Table I
accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.arch.params import ArchParams
from repro.errors import VbsError
from repro.utils.bitarray import BitArray, bits_for

#: Container prelude field widths (not part of Table I accounting).
MAGIC = 0xB5
MAGIC_BITS = 8
#: Latest container version this build writes (streams that need no
#: VERSION 4/3 feature still serialize at the lowest version able to
#: carry them — see ``VirtualBitstream.wire_version``).
VERSION = 4
VERSION_BITS = 4
#: Every container version this build can parse.
SUPPORTED_VERSIONS = (1, 2, 3, VERSION)
#: Per-record codec selector of VERSION 2/3 containers; room for eight
#: codecs — saturated by the VERSION 3 family.
CODEC_TAG_BITS = 3
#: Per-record codec selector of VERSION 4 containers (32 tags).
WIDE_CODEC_TAG_BITS = 5
#: Highest codec tag a VERSION 2 container may carry (the PR-1 codec
#: set); any higher tag forces VERSION 3 so old readers reject cleanly.
MAX_V2_TAG = 3
#: Highest codec tag a VERSION <= 3 container can physically carry (the
#: 3-bit field tops out at 7); any higher tag needs the VERSION 4 wide
#: tag field, mirroring the VERSION 2 gate above.
MAX_V3_TAG = 7
#: Dictionary-section pattern count field (VERSION 3).
DICT_COUNT_BITS = 10
#: Shared-dictionary reference field of a VERSION 4 container: 0 means
#: "no shared table", any other value names a task-scope pattern table
#: owned by the run-time manager's external memory.
SHARED_DICT_ID_BITS = 16
#: Reference-index field of the best-of-k delta codec, and the number of
#: preceding smart records the :class:`CodecState` history retains.
DELTA_REF_BITS = 2
DELTA_REFS = 1 << DELTA_REF_BITS


def tag_bits_for_version(version: int) -> int:
    """Width of the per-record codec tag field at ``version``."""
    return WIDE_CODEC_TAG_BITS if version >= 4 else CODEC_TAG_BITS


@dataclass(frozen=True)
class PreludeFields:
    """The fixed 63-bit container prelude, parsed.

    The single owner of the prelude bit layout: the container parser and
    any prelude-only peek (e.g. ``repro vbs inspect`` reporting on a
    container whose shared table is unavailable) read through here, so
    the wire knowledge cannot drift between them.
    """

    version: int
    cluster_size: int
    channel_width: int
    lut_size: int
    compact_logic: bool
    width: int
    height: int


def read_prelude(r) -> PreludeFields:
    """Parse the container prelude from a :class:`BitReader`.

    Validates the magic; the caller owns the version gate (different
    consumers accept different version sets).
    """
    if r.read(MAGIC_BITS) != MAGIC:
        raise VbsError("bad magic: not a Virtual Bit-Stream container")
    return PreludeFields(
        version=r.read(VERSION_BITS),
        cluster_size=r.read(CLUSTER_BITS),
        channel_width=r.read(CHANNEL_BITS),
        lut_size=r.read(LUT_BITS),
        compact_logic=bool(r.read(COMPACT_BITS)),
        width=r.read(DIM_BITS),
        height=r.read(DIM_BITS),
    )
CLUSTER_BITS = 6
CHANNEL_BITS = 8
LUT_BITS = 4
COMPACT_BITS = 1
DIM_BITS = 16
PRELUDE_BITS = (
    MAGIC_BITS + VERSION_BITS + CLUSTER_BITS + CHANNEL_BITS + LUT_BITS
    + COMPACT_BITS + 2 * DIM_BITS
)


@dataclass(frozen=True)
class VbsLayout:
    """Derived field widths for a task of ``width x height`` macros."""

    params: ArchParams
    cluster_size: int
    width: int
    height: int
    compact_logic: bool = False
    #: Shared logic-pattern table of a VERSION 3/4 container (empty on
    #: VERSION <= 2 layouts).  Entries are full ``c^2 * NLB`` fields in
    #: first-use raster order; the dictionary codec references them by
    #: index.  On a layout with :attr:`shared_dict_id` set this holds the
    #: *external* table's patterns (resolved at parse/encode time) — the
    #: container then serializes only the id, never the patterns.
    dict_table: Tuple[BitArray, ...] = ()
    #: Per-record codec-tag field width used by the size accounting:
    #: ``CODEC_TAG_BITS`` for VERSION <= 3 containers,
    #: ``WIDE_CODEC_TAG_BITS`` for VERSION 4.
    tag_bits: int = CODEC_TAG_BITS
    #: Task-scope shared-dictionary id of a VERSION 4 container, or None
    #: (no shared table; ``dict_table`` is embedded when non-empty).
    shared_dict_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise VbsError("task must be at least 1x1 macros")
        if self.cluster_size < 1:
            raise VbsError("cluster size must be >= 1")
        if self.width >= (1 << DIM_BITS) or self.height >= (1 << DIM_BITS):
            raise VbsError("task dimensions exceed the container prelude range")
        if self.tag_bits not in (CODEC_TAG_BITS, WIDE_CODEC_TAG_BITS):
            raise VbsError(
                f"codec tag field must be {CODEC_TAG_BITS} or "
                f"{WIDE_CODEC_TAG_BITS} bits, got {self.tag_bits}"
            )
        if self.shared_dict_id is not None:
            if not (1 <= self.shared_dict_id < (1 << SHARED_DICT_ID_BITS)):
                raise VbsError(
                    f"shared dictionary id {self.shared_dict_id} outside "
                    f"[1, {1 << SHARED_DICT_ID_BITS})"
                )
            if self.tag_bits != WIDE_CODEC_TAG_BITS:
                raise VbsError(
                    "a shared dictionary reference is a VERSION 4 feature; "
                    "the layout must use the wide codec tag field"
                )
        if len(self.dict_table) >= (1 << DICT_COUNT_BITS):
            raise VbsError(
                f"dictionary table of {len(self.dict_table)} patterns "
                f"exceeds the {DICT_COUNT_BITS}-bit count field"
            )
        for i, pattern in enumerate(self.dict_table):
            if len(pattern) != self.logic_bits_per_cluster:
                raise VbsError(
                    f"dictionary pattern {i} is {len(pattern)} bits, "
                    f"expected {self.logic_bits_per_cluster}"
                )

    # -- cluster grid ------------------------------------------------------------

    @property
    def cluster_grid(self) -> Tuple[int, int]:
        """(columns, rows) of the cluster tiling (edge clusters may be partial)."""
        c = self.cluster_size
        return (math.ceil(self.width / c), math.ceil(self.height / c))

    @property
    def num_cluster_cells(self) -> int:
        cgw, cgh = self.cluster_grid
        return cgw * cgh

    def cluster_of_cell(self, x: int, y: int) -> Tuple[int, int]:
        return (x // self.cluster_size, y // self.cluster_size)

    def valid_members(self, cx: int, cy: int) -> List[Tuple[int, int]]:
        """Cluster-local (i, j) of member macros inside the task rectangle."""
        c = self.cluster_size
        out = []
        for j in range(c):
            for i in range(c):
                if cx * c + i < self.width and cy * c + j < self.height:
                    out.append((i, j))
        return out

    # -- field widths --------------------------------------------------------------

    @property
    def dim_bits(self) -> int:
        """Task width/height fields: ``ceil(log2(max(w, h)))`` (Table I)."""
        return bits_for(max(self.width, self.height))

    @property
    def count_bits(self) -> int:
        """Cluster-count field, able to code 0..num_cluster_cells inclusive."""
        return bits_for(self.num_cluster_cells + 1)

    @property
    def pos_bits(self) -> int:
        """Per-cluster position field (one coordinate)."""
        cgw, cgh = self.cluster_grid
        return bits_for(max(cgw, cgh))

    @property
    def m_bits(self) -> int:
        """Connection endpoint field: ``M = ceil(log2(4cW + c^2 L + 1))``."""
        return self.params.io_code_bits(self.cluster_size)

    @property
    def route_count_bits(self) -> int:
        return self.params.route_count_bits(self.cluster_size)

    @property
    def raw_sentinel(self) -> int:
        """Route-count value flagging a raw-coded cluster."""
        return (1 << self.route_count_bits) - 1

    @property
    def max_routes(self) -> int:
        """Largest encodable route count (sentinel excluded)."""
        return self.raw_sentinel - 1

    @property
    def logic_bits_per_cluster(self) -> int:
        return self.cluster_size * self.cluster_size * self.params.nlb

    @property
    def raw_bits_per_cluster(self) -> int:
        return self.cluster_size * self.cluster_size * self.params.nraw

    # -- dictionary section (VERSION 3/4) ----------------------------------------

    def with_dict_table(self, patterns: "Tuple[BitArray, ...]") -> "VbsLayout":
        """This layout with a (possibly empty) embedded pattern table."""
        import dataclasses

        return dataclasses.replace(self, dict_table=tuple(patterns))

    def with_wide_tags(self) -> "VbsLayout":
        """This layout under VERSION 4 accounting (5-bit codec tags)."""
        import dataclasses

        return dataclasses.replace(self, tag_bits=WIDE_CODEC_TAG_BITS)

    def with_shared_dict(
        self, dict_id: int, patterns: "Tuple[BitArray, ...]"
    ) -> "VbsLayout":
        """This layout referencing an external task-scope pattern table.

        Implies VERSION 4 (wide tags).  ``patterns`` is the resolved
        content of the external table — needed for encoding and decoding
        alike — but the container serializes only ``dict_id``.
        """
        import dataclasses

        return dataclasses.replace(
            self,
            tag_bits=WIDE_CODEC_TAG_BITS,
            shared_dict_id=dict_id,
            dict_table=tuple(patterns),
        )

    @property
    def dict_index_bits(self) -> int:
        """Width of a dictionary-reference field (table must be non-empty)."""
        if not self.dict_table:
            raise VbsError("layout has no dictionary table")
        return bits_for(len(self.dict_table))

    def dict_index(self, logic: BitArray) -> Optional[int]:
        """Table index of an exact-match logic pattern, or None."""
        if not self.dict_table:
            return None
        lookup = getattr(self, "_dict_lookup", None)
        if lookup is None:
            lookup = {
                pattern: i for i, pattern in enumerate(self.dict_table)
            }
            object.__setattr__(self, "_dict_lookup", lookup)
        return lookup.get(logic)

    @property
    def dict_section_bits(self) -> int:
        """Container cost of the pattern table.

        A shared table costs the container only its
        ``SHARED_DICT_ID_BITS`` reference — the patterns live once in
        external memory, amortized over every container of the task.  An
        embedded table costs its count field plus the verbatim patterns;
        an empty table costs 0 (the container then serializes without a
        section at all, as VERSION 2 when nothing else needs more).
        """
        if self.shared_dict_id is not None:
            return SHARED_DICT_ID_BITS
        if not self.dict_table:
            return 0
        return DICT_COUNT_BITS + len(self.dict_table) * self.logic_bits_per_cluster

    # -- size accounting --------------------------------------------------------------

    @property
    def header_bits(self) -> int:
        return 2 * self.dim_bits + self.count_bits

    @property
    def record_overhead_bits(self) -> int:
        """Per-record framing: position fields plus the codec tag."""
        return 2 * self.pos_bits + self.tag_bits

    def smart_record_bits(
        self, num_pairs: int, present_macros: Optional[int] = None
    ) -> int:
        """Payload bits of a connection-list cluster record.

        In compact-logic mode ``present_macros`` (macros with non-zero
        logic data) determines the logic-field cost: one presence flag per
        member slot plus NLB bits per present macro.
        """
        if self.compact_logic:
            n = self.cluster_size * self.cluster_size
            present = n if present_macros is None else present_macros
            logic_bits = n + present * self.params.nlb
        else:
            logic_bits = self.logic_bits_per_cluster
        return (
            self.record_overhead_bits
            + self.route_count_bits
            + logic_bits
            + num_pairs * 2 * self.m_bits
        )

    @property
    def raw_record_bits(self) -> int:
        """Payload bits of a raw-fallback cluster record."""
        return (
            self.record_overhead_bits
            + self.route_count_bits
            + self.raw_bits_per_cluster
        )

    def record_break_even_pairs(self) -> int:
        """Pairs at which a smart record stops beating the raw record."""
        budget = self.raw_bits_per_cluster - self.logic_bits_per_cluster
        return budget // (2 * self.m_bits)


@dataclass
class CodecState:
    """Inter-record state threaded through a container walk in raster order.

    ``prev_logic`` is the normalized logic field of the nearest preceding
    *smart* (non-raw) record, or ``None`` at the start of the container.
    ``history`` extends the same rule to the ``DELTA_REFS`` most recent
    smart records (newest first) — the candidate reference set of the
    best-of-k delta codec.  ``prev_raw`` mirrors the rule on the raw
    side: the frames of the nearest preceding *raw* record, the
    reference of the ``raw-delta`` codec.  Raw records never touch the
    logic-side state and smart records never touch ``prev_raw`` — the
    two reference chains are independent, and both rules must be
    computable identically by the encoder, the size accounting, and the
    decoder, which all walk the same record sequence.  Stateless codecs
    ignore the state entirely; the delta codec XOR-codes against
    ``prev_logic`` (treated as all-zeros when ``None``), ``delta-k``
    against the history entry its 2-bit reference index names (missing
    entries are all-zeros references), ``raw-delta`` against
    ``prev_raw`` (all-zeros when ``None``).
    """

    prev_logic: Optional[BitArray] = None
    history: Tuple[BitArray, ...] = ()
    prev_raw: Optional[BitArray] = None

    def __post_init__(self) -> None:
        if self.prev_logic is not None and not self.history:
            self.history = (self.prev_logic,)

    def observe(self, rec: "ClusterRecord") -> None:
        """Advance the state past ``rec`` (call after coding its body)."""
        if not rec.raw and rec.logic is not None:
            self.prev_logic = rec.logic
            self.history = (rec.logic,) + self.history[: DELTA_REFS - 1]
        elif rec.raw and rec.raw_frames is not None:
            self.prev_raw = rec.raw_frames


@dataclass
class ClusterRecord:
    """One listed cluster of a Virtual Bit-Stream."""

    pos: Tuple[int, int]
    raw: bool
    logic: Optional[BitArray] = None        # c^2 * NLB bits (smart records)
    pairs: Optional[List[Tuple[int, int]]] = None
    raw_frames: Optional[BitArray] = None   # c^2 * Nraw bits (raw records)
    orders_tried: int = 1
    #: Registered codec name; ``None`` falls back to the legacy choice
    #: implied by ``raw`` and the layout-wide compact flag.
    codec: Optional[str] = None

    def codec_name(self, layout: VbsLayout) -> str:
        """The registry name of the codec coding this record."""
        if self.codec is not None:
            return self.codec
        if self.raw:
            return "raw"
        return "compact" if layout.compact_logic else "list"

    def validate(self, layout: VbsLayout) -> None:
        cgw, cgh = layout.cluster_grid
        cx, cy = self.pos
        if not (0 <= cx < cgw and 0 <= cy < cgh):
            raise VbsError(f"cluster position {self.pos} outside grid {cgw}x{cgh}")
        if self.codec is not None:
            from repro.vbs.codecs import codec_by_name

            codec = codec_by_name(self.codec)
            if codec.codes_raw != self.raw:
                raise VbsError(
                    f"record at {self.pos}: codec {self.codec!r} disagrees "
                    f"with raw={self.raw}"
                )
            if codec.tag > MAX_V3_TAG and layout.tag_bits < WIDE_CODEC_TAG_BITS:
                raise VbsError(
                    f"record at {self.pos}: codec {self.codec!r} (tag "
                    f"{codec.tag}) does not fit the {layout.tag_bits}-bit "
                    f"tag field; it needs a VERSION 4 wide-tag layout"
                )
            if not codec.encodable(self, layout):
                raise VbsError(
                    f"record at {self.pos}: codec {self.codec!r} cannot "
                    f"represent this record under the container layout"
                )
        if self.raw:
            if self.raw_frames is None or len(self.raw_frames) != layout.raw_bits_per_cluster:
                raise VbsError(f"raw record at {self.pos} has wrong frame size")
        else:
            if self.logic is None or len(self.logic) != layout.logic_bits_per_cluster:
                raise VbsError(f"record at {self.pos} has wrong logic size")
            if self.pairs is None:
                raise VbsError(f"record at {self.pos} missing connection list")
            if len(self.pairs) > layout.max_routes:
                raise VbsError(
                    f"record at {self.pos}: {len(self.pairs)} routes exceed "
                    f"the {layout.max_routes}-route field"
                )
            io_limit = layout.params.cluster_io_count(layout.cluster_size)
            for a, b in self.pairs:
                if not (0 <= a < io_limit and 0 <= b < io_limit):
                    raise VbsError(
                        f"record at {self.pos}: endpoint ({a},{b}) outside "
                        f"I/O space [0,{io_limit})"
                    )

    def present_macros(self, layout: VbsLayout) -> int:
        """Member macros whose logic-data slice is non-zero."""
        if self.logic is None:
            return 0
        nlb = layout.params.nlb
        n = layout.cluster_size * layout.cluster_size
        return sum(
            1 for k in range(n) if self.logic.slice(k * nlb, nlb).count()
        )

    def size_bits(
        self, layout: VbsLayout, state: "Optional[CodecState]" = None
    ) -> int:
        from repro.vbs.codecs import codec_by_name

        return codec_by_name(self.codec_name(layout)).record_bits(
            self, layout, state=state
        )
