"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

import repro.workloads
from repro.dbsim import (
    KnobConfiguration,
    SimulatedDatabase,
    mysql_catalog,
    postgres_catalog,
)
from repro.tuners import TrainingSample, WorkloadRepository, vector_to_config
from repro.workloads import (
    MixWorkload,
    Query,
    QueryFamily,
    QueryFootprint,
    QueryType,
    TPCCWorkload,
    WorkloadGenerator,
    YCSBWorkload,
)
from repro.workloads.query import _OUTCOMES, _REJECT_BELOW
from repro.workloads.templating import _extract_literals


@pytest.fixture
def pg_catalog():
    return postgres_catalog()


@pytest.fixture
def my_catalog():
    return mysql_catalog()


@pytest.fixture
def pg_db():
    """PostgreSQL-flavoured instance on m4.large with 26 GB of data."""
    return SimulatedDatabase("postgres", "m4.large", data_size_gb=26.0, seed=7)


@pytest.fixture
def my_db():
    """MySQL-flavoured instance on m4.large with 26 GB of data."""
    return SimulatedDatabase("mysql", "m4.large", data_size_gb=26.0, seed=7)


@pytest.fixture
def tpcc():
    return TPCCWorkload(seed=11)


@pytest.fixture
def ycsb():
    return YCSBWorkload(seed=11)


def make_samples(
    catalog,
    workload_id: str = "tpcc",
    n: int = 12,
    seed: int = 0,
    vm: str = "m4.large",
    data_size_gb: float = 26.0,
    window_s: float = 20.0,
    rps: float = 12_000.0,
) -> list[TrainingSample]:
    """Run a workload under *n* random budget-fitted configs and collect samples.

    The offered rate is deliberately above the VM's capacity so achieved
    throughput *measures* each configuration instead of saturating at the
    offered load — how a real offline tuning session stresses the DBMS.
    """
    rng = np.random.default_rng(seed)
    db = SimulatedDatabase(catalog.flavor, vm, data_size_gb=data_size_gb, seed=seed)
    workload = (
        TPCCWorkload(rps=rps, seed=seed + 1)
        if workload_id == "tpcc"
        else YCSBWorkload(rps=rps, seed=seed + 1)
    )
    samples = []
    for _ in range(n):
        vec = rng.uniform(0, 1, size=len(catalog))
        config = vector_to_config(vec, catalog).fitted_to_budget(
            db.vm.db_memory_limit_mb, db.active_connections
        )
        # Restart per configuration (clean write-back state), warm up one
        # window, then measure — the protocol of a real tuning session.
        db.apply_config(config, mode="restart")
        db.run(workload.batch(window_s))
        result = db.run(workload.batch(window_s))
        samples.append(
            TrainingSample(workload_id, config, result.metrics, timestamp_s=db.clock_s)
        )
    return samples


@pytest.fixture
def trained_repo(pg_catalog):
    """Repository with a dozen TPCC samples under varied configs."""
    repo = WorkloadRepository()
    repo.add_many(make_samples(pg_catalog, "tpcc", n=12, seed=3))
    return repo


def generator_families() -> list[QueryFamily]:
    """Every family of every workload generator ``repro.workloads`` exports."""
    families: list[QueryFamily] = []
    for name in sorted(repro.workloads.__all__):
        cls = getattr(repro.workloads, name)
        if (
            isinstance(cls, type)
            and issubclass(cls, WorkloadGenerator)
            and cls not in (WorkloadGenerator, MixWorkload)
        ):
            families.extend(cls(seed=0).families.values())
    return families


def _edge_family(name: str, template: str, spec: tuple[str, ...], **footprint) -> QueryFamily:
    return QueryFamily(
        name=name,
        query_type=QueryType.SELECT,
        template=template,
        weight=1.0,
        footprint=QueryFootprint(**footprint),
        param_spec=spec,
    )


#: Families covering draw shapes the generators lack: no parameters, a
#: float before bounded draws, a placeholder-count mismatch, and two
#: bounded draws with no jitter (so a Lemire rejection of the first half
#: runs the bulk decoder past its initial raw block).
EDGE_FAMILIES = [
    _edge_family("one_int", "SELECT c FROM t WHERE id = %s", ("int",), sort_mb=1.5),
    _edge_family(
        "mixed",
        "SELECT %s, %s FROM t WHERE a = %s AND b < %s",
        ("float", "int", "str", "int"),
        sort_mb=1.5,
        read_kb=32.0,
        write_kb=8.0,
    ),
    _edge_family("no_params", "VACUUM ANALYZE orders", ()),
    _edge_family("mismatch", "SELECT %s FROM t", ("int", "str")),
    _edge_family(
        "no_jitter",
        "SELECT c FROM t WHERE a = %s AND b = %s",
        ("int", "int"),
        read_kb=0.0,
    ),
]


def reference_instantiate(family: QueryFamily, rng: np.random.Generator) -> Query:
    """Scalar oracle for ``instantiate_many``: one numpy call per draw.

    Parameters come from ``QueryFamily._draw_param`` and are substituted
    left to right, the footprint from ``QueryFootprint.jittered``, and the
    template and its parameters from re-extracting the literals of the
    text (the per-query templating path).
    """
    text = family.template
    for kind in family.param_spec:
        text = text.replace("%s", str(QueryFamily._draw_param(kind, rng)), 1)
    footprint = family.footprint.jittered(rng)
    template, params = ("", ()) if family._template_info is None else _extract_literals(text)
    return Query(family.name, family.query_type, text, footprint, template, params)


def rejecting_seeds(count: int) -> list[int]:
    """Seeds whose first raw word has a 32-bit half that Lemire rejects.

    With no prior draw the first bounded draw takes the word's low half;
    after one prior scalar draw it takes the buffered high half. Run at
    both parities, every seed puts a rejection on the bulk path's first
    draw in one of them, so the decoder must skip a half and, near the
    end of its block, pull another word. (The first seeds found reject
    the low half once and the high half three times.)
    """
    seeds = []
    seed = 0
    while len(seeds) < count:
        word = int(np.random.default_rng(seed).bit_generator.random_raw())
        if any(
            (half * _OUTCOMES) % 2**32 < _REJECT_BELOW
            for half in (word & 0xFFFFFFFF, word >> 32)
        ):
            seeds.append(seed)
        seed += 1
    return seeds


def rng_state(rng: np.random.Generator) -> object:
    """The bit generator's state with arrays as lists, for ``==``."""

    def plain(value: object) -> object:
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        if isinstance(value, np.ndarray):
            return value.tolist()
        return value

    return plain(rng.bit_generator.state)
