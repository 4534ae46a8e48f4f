"""Query model shared by the workload generators, DB simulator and TDE.

A :class:`Query` is a typed, resource-annotated unit of work. The simulator
does not parse SQL; instead each query carries a :class:`QueryFootprint`
describing the resources its execution demands (working-area memory for
sorts/joins, maintenance memory for index builds, temp-table bytes, bytes
read and written, parallelisable fraction, planner sensitivity). These
footprints are what drive throttles: a sort whose ``sort_mb`` exceeds
``work_mem`` spills to disk exactly like PostgreSQL's executor would.

Footprint magnitudes for the standard benchmarks follow Fig. 2 of the
paper (e.g. TPC-C uses ~0.5 MB of working memory; the aggregation queries
added to the adulterated TPC-C need ~350 MB).

Generators materialise a window's query-log sample with
:func:`instantiate_many`. Each family draws, in order, one value per
parameter and then one uniform per positive jitterable footprint field.
The values are exactly those of the scalar reference
(``QueryFamily._draw_param`` then ``QueryFootprint.jittered``): an
``int``/``str`` parameter is ``Generator.integers`` over 999 999 outcomes,
a ``float`` parameter and each jitter factor one ``Generator.random``
double. For a ``PCG64`` bit generator the whole sample is decoded from one
``random_raw`` block instead of four or more numpy calls per query. The
decoder relies on these numpy behaviours, which the parity and property
tests pin down:

* a double is the next 64-bit word ``u`` as ``(u >> 11) * 2**-53``;
* a bounded integer whose range fits 32 bits takes a 32-bit draw: the
  low half of a fresh word, whose high half is kept in the bit
  generator's ``has_uint32``/``uinteger`` buffer for the next 32-bit draw
  (doubles and ``random_raw`` leave that buffer alone);
* that draw is Lemire's multiply-shift: ``m = w * 999_999``, rejected and
  redrawn while ``m mod 2**32`` is below ``(2**32 - 999_999) % 999_999``,
  else ``m >> 32``.

Other bit generators take the same values from scalar ``integers`` and
``random`` calls.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

__all__ = ["QueryType", "QueryFootprint", "QueryFamily", "Query", "instantiate_many"]

# The jitter band of ``QueryFootprint.jittered(relative=0.15)``, computed
# with the same expressions so the constants are bit-identical to what the
# method derives; ``instantiate_many`` inlines the jitter.
_JITTER_LO = 1.0 - 0.15
_JITTER_SPAN = (1.0 + 0.15) - _JITTER_LO

#: Parameter kinds a family may declare; ``int`` and ``str`` take a
#: bounded 32-bit draw, ``float`` a 64-bit double.
_PARAM_KINDS = frozenset({"int", "str", "float"})
#: Outcomes of every bounded parameter draw: ``integers(1, 1_000_000)``
#: and ``integers(0, 999_999)`` both span 999 999 values.
_OUTCOMES = 999_999
#: Lemire rejection bound for ``_OUTCOMES`` (971 590).
_REJECT_BELOW = (2**32 - _OUTCOMES) % _OUTCOMES
_LOW32 = 0xFFFFFFFF
_DOUBLE_SCALE = 1.0 / 9007199254740992.0  # 2**-53


class QueryType(enum.Enum):
    """Broad statement type, used for read/write accounting and grouping."""

    SELECT = "select"
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"
    JOIN = "join"
    AGGREGATE = "aggregate"
    ORDER_BY = "order_by"
    INDEX_CREATE = "index_create"
    INDEX_DROP = "index_drop"
    TEMP_TABLE = "temp_table"
    ALTER_TABLE = "alter_table"

    @property
    def is_write(self) -> bool:
        """Whether the statement dirties pages / produces WAL."""
        return self in _WRITE_TYPES

    @property
    def is_maintenance(self) -> bool:
        """DDL-style statements charged to maintenance working memory."""
        return self in _MAINTENANCE_TYPES


_WRITE_TYPES = frozenset(
    {
        QueryType.INSERT,
        QueryType.UPDATE,
        QueryType.DELETE,
        QueryType.INDEX_CREATE,
        QueryType.INDEX_DROP,
        QueryType.TEMP_TABLE,
        QueryType.ALTER_TABLE,
    }
)

_MAINTENANCE_TYPES = frozenset(
    {
        QueryType.INDEX_CREATE,
        QueryType.INDEX_DROP,
        QueryType.DELETE,
        QueryType.ALTER_TABLE,
    }
)


@dataclass(frozen=True, slots=True)
class QueryFootprint:
    """Resource demand of one execution of a query.

    Attributes
    ----------
    rows_examined / rows_returned:
        Tuple traffic, feeds the pg_stat-style metrics.
    sort_mb:
        Working-area memory (MB) the executor needs for sorts, hash joins
        and aggregations. Compared against ``work_mem`` /
        ``sort_buffer_size``; the shortfall spills to disk.
    maintenance_mb:
        Memory (MB) needed by maintenance operations (index builds, bulk
        deletes). Compared against ``maintenance_work_mem`` /
        ``key_buffer_size``.
    temp_mb:
        Temporary-table bytes (MB). Compared against ``temp_buffers`` /
        ``tmp_table_size``.
    read_kb / write_kb:
        Logical data read and written (KB); reads may hit the buffer pool,
        writes dirty pages and produce WAL.
    parallel_fraction:
        Amdahl-style fraction of the work that parallel workers can share.
    planner_sensitivity:
        In [0, 1]; how strongly execution time reacts to planner-estimate
        knobs being away from their (latent) optimum.
    """

    rows_examined: int = 1
    rows_returned: int = 1
    sort_mb: float = 0.0
    maintenance_mb: float = 0.0
    temp_mb: float = 0.0
    read_kb: float = 4.0
    write_kb: float = 0.0
    parallel_fraction: float = 0.0
    planner_sensitivity: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "sort_mb",
            "maintenance_mb",
            "temp_mb",
            "read_kb",
            "write_kb",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 <= self.parallel_fraction <= 1.0:
            raise ValueError("parallel_fraction must be in [0, 1]")
        if not 0.0 <= self.planner_sensitivity <= 1.0:
            raise ValueError("planner_sensitivity must be in [0, 1]")

    def jittered(self, rng: np.random.Generator, relative: float = 0.15) -> "QueryFootprint":
        """A copy with each positive resource scaled by ``1 ± relative``.

        Built without ``dataclasses.replace`` (which re-runs
        ``__post_init__``): this sits in the per-query generation hot
        path, and jittering already-validated non-negative values by a
        positive factor cannot violate the invariants. Uniform draws are
        made only for strictly positive fields, in declaration order, as
        one batched ``rng.random(size=k)`` — the Generator fills a batch
        from the same stream doubles repeated scalar calls would consume,
        and ``lo + span * u`` transforms each exactly like
        ``rng.uniform(lo, hi)``, so the values match the validating
        scalar-draw construction bit-for-bit.
        """
        lo = 1.0 - relative
        span = (1.0 + relative) - lo
        fields = (
            self.sort_mb,
            self.maintenance_mb,
            self.temp_mb,
            self.read_kb,
            self.write_kb,
        )
        k = sum(1 for v in fields if v > 0.0)
        if k:
            draws = iter(rng.random(size=k).tolist())
            fields = tuple(
                v * (lo + span * next(draws)) if v > 0.0 else v for v in fields
            )
        clone = object.__new__(QueryFootprint)
        set_ = object.__setattr__
        set_(clone, "rows_examined", self.rows_examined)
        set_(clone, "rows_returned", self.rows_returned)
        set_(clone, "sort_mb", fields[0])
        set_(clone, "maintenance_mb", fields[1])
        set_(clone, "temp_mb", fields[2])
        set_(clone, "read_kb", fields[3])
        set_(clone, "write_kb", fields[4])
        set_(clone, "parallel_fraction", self.parallel_fraction)
        set_(clone, "planner_sensitivity", self.planner_sensitivity)
        return clone


@dataclass(frozen=True, slots=True)
class QueryFamily:
    """A parameterised query template with a fixed resource profile.

    Generators emit queries by instantiating families; the DB simulator
    costs whole batches by ``count × footprint`` per family, which keeps
    10 000-requests-per-second experiments tractable.
    """

    name: str
    query_type: QueryType
    template: str
    weight: float
    footprint: QueryFootprint
    param_spec: tuple[str, ...] = field(default_factory=tuple)
    #: Precomputed templating result (or None when the family's text does
    #: not canonicalise — see ``family_template_info``). Excluded from
    #: equality/repr; derived from ``template``/``param_spec``.
    _template_info: object = field(default=None, compare=False, repr=False)
    #: ``template.split("%s")`` when the placeholder count matches
    #: ``param_spec`` (None otherwise): instantiation then builds the text
    #: with one join instead of repeated ``str.replace`` scans.
    _parts: object = field(default=None, compare=False, repr=False)
    #: ``(positive_field_indices, base_values)`` over the footprint's five
    #: jitterable fields, so per-query jitter skips rediscovering which
    #: fields draw.
    _jitter: object = field(default=None, compare=False, repr=False)
    #: Draw plan in stream order: ``True`` for each bounded 32-bit
    #: parameter draw (``int``/``str``), ``False`` for each 64-bit double
    #: (``float`` parameters, then one per positive jitter field).
    _plan: tuple[bool, ...] = field(default=(), compare=False, repr=False)
    #: How many entries of ``_plan`` are 32-bit draws.
    _n32: int = field(default=0, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError("weight must be >= 0")
        if not self.name:
            raise ValueError("family name must be non-empty")
        for kind in self.param_spec:
            if kind not in _PARAM_KINDS:
                raise ValueError(f"unknown param kind {kind!r}")
        # Late import: templating imports Query from this module.
        from repro.workloads.templating import family_template_info

        set_ = object.__setattr__
        set_(
            self,
            "_template_info",
            family_template_info(self.template, tuple(self.param_spec)),
        )
        parts = tuple(self.template.split("%s"))
        set_(self, "_parts", parts if len(parts) == len(self.param_spec) + 1 else None)
        fp = self.footprint
        base = (fp.sort_mb, fp.maintenance_mb, fp.temp_mb, fp.read_kb, fp.write_kb)
        positives = tuple(i for i, v in enumerate(base) if v > 0.0)
        set_(self, "_jitter", (positives, base))
        plan = tuple(kind != "float" for kind in self.param_spec)
        plan += (False,) * len(positives)
        set_(self, "_plan", plan)
        set_(self, "_n32", sum(plan))

    def instantiate(self, rng: np.random.Generator) -> "Query":
        """Materialise one query with concrete parameters and jitter.

        Equal to ``instantiate_many([self], rng)[0]``: the parameters and
        footprint jitter are the values ``_draw_param`` and
        ``QueryFootprint.jittered`` draw, and *rng* ends in the same state.
        """
        return instantiate_many([self], rng)[0]

    @staticmethod
    def _draw_param(kind: str, rng: np.random.Generator) -> object:
        """One parameter by scalar draw: the distribution reference.

        :func:`instantiate_many` reproduces these values draw for draw;
        the parity tests use this as their oracle.
        """
        if kind == "int":
            return int(rng.integers(1, 1_000_000))
        if kind == "str":
            return "'v{:06d}'".format(int(rng.integers(0, 999_999)))
        if kind == "float":
            # Same stream double uniform(0, 10_000) would consume.
            return round(10_000.0 * rng.random(), 2)
        raise ValueError(f"unknown param kind {kind!r}")


@dataclass(frozen=True, slots=True)
class Query:
    """One concrete query as it would appear in the streaming query log.

    ``template``/``params`` are the precomputed templating results for
    generator-instantiated queries (empty template = not precomputed);
    :class:`~repro.workloads.templating.TemplateCatalog` uses them to skip
    re-deriving the template from the text on every observed query.
    """

    family: str
    query_type: QueryType
    text: str
    footprint: QueryFootprint
    template: str = ""
    params: tuple[str, ...] = ()

    @property
    def is_write(self) -> bool:
        return self.query_type.is_write


def instantiate_many(
    families: Sequence[QueryFamily], rng: np.random.Generator
) -> list[Query]:
    """Materialise one query per family, in order, from *rng*'s stream.

    Returns what calling ``family.instantiate(rng)`` for each family in
    turn returns, and leaves *rng* in the same state. The draws come first
    (one ``random_raw`` block for ``PCG64``, see the module docstring;
    scalar calls otherwise); one loop then renders every query: the text
    is one join over the precomputed template segments, the template
    parameters are picked from the rendered pieces, the footprint jitter
    follows the family's plan (bit-identical to
    ``QueryFootprint.jittered``), and both result objects bypass the
    dataclass constructors because the values are already validated.
    """
    if not families:
        return []
    bit_generator = rng.bit_generator
    if type(bit_generator) is np.random.PCG64:
        ints, doubles = _pcg64_draws(families, bit_generator)
    else:
        ints, doubles = _scalar_draws(families, rng)

    queries: list[Query] = []
    new = object.__new__
    (
        set_rows_examined,
        set_rows_returned,
        set_sort_mb,
        set_maintenance_mb,
        set_temp_mb,
        set_read_kb,
        set_write_kb,
        set_parallel_fraction,
        set_planner_sensitivity,
    ) = _FOOTPRINT_SETTERS
    set_family, set_type, set_text, set_footprint, set_template, set_params = (
        _QUERY_SETTERS
    )
    i = d = 0
    for fam in families:
        rendered: list[str] = []
        for kind in fam.param_spec:
            if kind == "float":
                rendered.append(str(round(10_000.0 * doubles[d], 2)))
                d += 1
            elif kind == "int":
                rendered.append(str(ints[i] + 1))
                i += 1
            else:
                rendered.append("'v%06d'" % ints[i])
                i += 1
        parts = fam._parts
        if parts is None:
            text = fam.template
            for piece in rendered:
                text = text.replace("%s", piece, 1)
        elif rendered:
            chunks = [parts[0]]
            for j, piece in enumerate(rendered):
                chunks.append(piece)
                chunks.append(parts[j + 1])
            text = "".join(chunks)
        else:
            text = fam.template

        positives, base = fam._jitter
        vals = list(base)
        for j in positives:
            vals[j] = vals[j] * (_JITTER_LO + _JITTER_SPAN * doubles[d])
            d += 1
        fp = fam.footprint
        clone = new(QueryFootprint)
        set_rows_examined(clone, fp.rows_examined)
        set_rows_returned(clone, fp.rows_returned)
        set_sort_mb(clone, vals[0])
        set_maintenance_mb(clone, vals[1])
        set_temp_mb(clone, vals[2])
        set_read_kb(clone, vals[3])
        set_write_kb(clone, vals[4])
        set_parallel_fraction(clone, fp.parallel_fraction)
        set_planner_sensitivity(clone, fp.planner_sensitivity)

        info = fam._template_info
        if info is None:
            template = ""
            extracted: tuple[str, ...] = ()
        elif rendered:
            template = info.template
            extracted = tuple(
                [s if type(s) is str else rendered[s] for s in info.slots]
            )
        else:
            # No parameters: the extraction is the constant static slots.
            template = info.template
            extracted = info.slots

        query = new(Query)
        set_family(query, fam.name)
        set_type(query, fam.query_type)
        set_text(query, text)
        set_footprint(query, clone)
        set_template(query, template)
        set_params(query, extracted)
        queries.append(query)
    return queries


# Slot setters of the two result classes, in field order. Calling a slot
# descriptor directly skips the frozen ``__setattr__`` guard the way
# ``object.__setattr__`` does, at half the cost per field.
_FOOTPRINT_SETTERS = tuple(
    getattr(QueryFootprint, name).__set__ for name in QueryFootprint.__slots__
)
_QUERY_SETTERS = tuple(getattr(Query, name).__set__ for name in Query.__slots__)


def _scalar_draws(
    families: Sequence[QueryFamily], rng: np.random.Generator
) -> tuple[list[int], list[float]]:
    """The families' draws by scalar ``integers``/``random`` calls.

    Bounded values are returned as drawn over ``[0, 999_999)``; the
    renderer adds one for ``int`` parameters.
    """
    ints: list[int] = []
    doubles: list[float] = []
    for fam in families:
        for bounded in fam._plan:
            if bounded:
                ints.append(int(rng.integers(0, _OUTCOMES)))
            else:
                doubles.append(rng.random())
    return ints, doubles


def _pcg64_draws(
    families: Sequence[QueryFamily], bit_generator: np.random.PCG64
) -> tuple[list[int], list[float]]:
    """The families' draws decoded from one raw ``PCG64`` block.

    Pulls the fewest words the draws can need (no Lemire rejections), and
    one more word at a time, re-decoding, in the rare case rejections run
    the block short; every pulled word is consumed, so the bit generator
    ends where the scalar calls would leave it. The 32-bit buffer is then
    written back.
    """
    n32 = n64 = 0
    for fam in families:
        n32 += fam._n32
        n64 += len(fam._plan) - fam._n32
    state = bit_generator.state
    has = bool(state["has_uint32"])
    entry = state["uinteger"]
    raw = bit_generator.random_raw(n64 + (max(n32 - has, 0) + 1) // 2)
    decoded = _decode(families, raw, has, entry)
    while decoded is None:
        raw = np.append(raw, bit_generator.random_raw(1))
        decoded = _decode(families, raw, has, entry)
    ints, doubles, has_after, buffered = decoded
    if has_after != has or buffered != entry:
        state = bit_generator.state
        state["has_uint32"] = int(has_after)
        state["uinteger"] = buffered
        bit_generator.state = state
    return ints, doubles


def _decode(
    families: Sequence[QueryFamily], raw: np.ndarray, has: bool, entry: int
) -> tuple[list[int], list[float], bool, int] | None:
    """Replay numpy's draw order over *raw*; ``None`` if it runs short.

    *has*/*entry* are the bit generator's 32-bit buffer on entry. Returns
    the bounded values, the doubles, and the buffer afterwards.
    """
    # Every 32-bit half in stream order: the entry buffer, then each
    # word's low and high half. Decoded in bulk; the loop only picks.
    halves = np.empty(2 * raw.size + 1, dtype=np.uint64)
    halves[0] = entry
    halves[1::2] = raw & _LOW32
    halves[2::2] = raw >> 32
    scaled = halves * _OUTCOMES
    bounded = (scaled >> 32).tolist()
    accept = ((scaled & _LOW32) >= _REJECT_BELOW).tolist()
    unit = ((raw >> 11) * _DOUBLE_SCALE).tolist()
    words = raw.size
    ints: list[int] = []
    doubles: list[float] = []
    p = 0  # next unread word
    b = 0  # half index of the buffered 32-bit value
    for fam in families:
        for is_bounded in fam._plan:
            if not is_bounded:
                if p == words:
                    return None
                doubles.append(unit[p])
                p += 1
                continue
            while True:
                if has:
                    h = b
                    has = False
                elif p < words:
                    h = 2 * p + 1
                    b = h + 1
                    has = True
                    p += 1
                else:
                    return None
                if accept[h]:
                    break
            ints.append(bounded[h])
    return ints, doubles, has, int(halves[b])
