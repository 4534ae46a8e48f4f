"""Version-keyed cache invalidation and vectorised-path parity tests.

The perf work caches derived tuning state (Lasso rankings, decile bin
edges, GPR fits, per-family service times) behind the repository version
counter / the database config epoch, and replaces scalar hot paths with
batched equivalents. These tests pin down the two properties that make
that safe: caches refresh exactly when their inputs change, and the
vectorised paths match their scalar references bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from numpy.random import MT19937, Philox

from repro.common.timeseries import TimeSeries
from repro.dbsim import SimulatedDatabase
from repro.dbsim.config import fit_values_to_budget
from repro.dbsim.executor import ServiceTimeCache, family_service_time_ms
from repro.tuners import TrainingSample, TuningRequest, WorkloadRepository
from repro.tuners.base import (
    config_to_vector,
    values_to_vectors,
    vector_to_config,
    vectors_to_values,
)
from repro.tuners.lasso import (
    _cd_gram,
    _cd_gram_batch,
    _standardised_problem,
    lasso_coordinate_descent,
)
from repro.tuners.ottertune import OtterTuneTuner
from repro.tuners.workload_mapping import WorkloadMapper
from repro.workloads.query import (
    QueryFamily,
    QueryFootprint,
    QueryType,
    instantiate_many,
)

from tests.conftest import (
    EDGE_FAMILIES,
    generator_families,
    make_samples,
    reference_instantiate,
    rejecting_seeds,
    rng_state,
)


# -- refresh policy ------------------------------------------------------------


class TestFreshEnough:
    def test_exact_below_limit(self, pg_catalog):
        repo = WorkloadRepository()
        first, second = make_samples(pg_catalog, "tpcc", n=2, seed=1)
        repo.add(first)
        v = repo.version
        assert repo.fresh_enough(v, scale=10)
        repo.add(second)
        assert not repo.fresh_enough(v, scale=10)
        assert repo.fresh_enough(repo.version, scale=10)

    def test_stale_window_above_limit(self):
        repo = WorkloadRepository()
        repo.exact_refresh_limit = 0  # every scale counts as "at scale"
        repo._version = 100
        scale = 1
        within = 100 - (repo.stale_refresh_every - 1)
        assert repo.fresh_enough(within, scale=scale)
        assert not repo.fresh_enough(100 - repo.stale_refresh_every, scale=scale)

    def test_scale_at_limit_stays_exact(self):
        repo = WorkloadRepository()
        repo._version = 5
        assert not repo.fresh_enough(4, scale=repo.exact_refresh_limit)


# -- derived-model caches ------------------------------------------------------


@pytest.fixture
def repo_and_request(pg_catalog):
    repo = WorkloadRepository()
    repo.add_many(make_samples(pg_catalog, "tpcc", n=8, seed=3))
    repo.add_many(make_samples(pg_catalog, "ycsb", n=8, seed=4))
    sample = repo.samples("tpcc")[0]
    request = TuningRequest(
        "db0", "tpcc", sample.config, sample.metrics, timestamp_s=0.0
    )
    return repo, request, sample


class TestRankingCache:
    def test_recomputed_only_on_version_bump(self, pg_catalog, repo_and_request):
        repo, request, sample = repo_and_request
        tuner = OtterTuneTuner(pg_catalog, repo, memory_limit_mb=6553.6, seed=1)
        calls = []
        inner = tuner.ranked_knobs
        tuner.ranked_knobs = lambda x, y: calls.append(1) or inner(x, y)

        first = tuner.recommend(request).ranked_knobs
        second = tuner.recommend(request).ranked_knobs
        assert len(calls) == 1
        assert first == second

        repo.add(TrainingSample("tpcc", sample.config, sample.metrics, 99.0))
        tuner.recommend(request)
        assert len(calls) == 2

    def test_ranking_matches_uncached(self, pg_catalog, repo_and_request):
        repo, request, _ = repo_and_request
        tuner = OtterTuneTuner(pg_catalog, repo, memory_limit_mb=6553.6, seed=1)
        cached = tuner.recommend(request).ranked_knobs
        ds = repo.dataset("tpcc")
        gpr, x, y = tuner._fitted_surrogate(request)
        assert cached == tuner.ranked_knobs(x, y)
        assert ds.size >= 5  # ranking is non-trivial at this size


class TestMapperEdgeCache:
    def test_edges_reused_until_add(self, repo_and_request):
        repo, _, sample = repo_and_request
        mapper = WorkloadMapper(repo)
        edges = mapper._bin_edges()
        assert mapper._bin_edges() is edges  # same object: cache hit
        repo.add(TrainingSample("tpcc", sample.config, sample.metrics, 99.0))
        refreshed = mapper._bin_edges()
        assert refreshed is not edges

    def test_edges_shared_across_mappers(self, repo_and_request):
        repo, _, _ = repo_and_request
        edges = WorkloadMapper(repo)._bin_edges()
        assert WorkloadMapper(repo)._bin_edges() is edges

    def test_mapping_result_refreshes_after_add(self, repo_and_request):
        repo, _, sample = repo_and_request
        mapper = WorkloadMapper(repo)
        result = mapper.map_workload("tpcc")
        assert mapper.map_workload("tpcc") is result
        repo.add(TrainingSample("ycsb", sample.config, sample.metrics, 99.0))
        assert mapper.map_workload("tpcc") is not result


class TestGPRFitCache:
    def test_fit_reused_at_same_version(self, pg_catalog, repo_and_request):
        repo, request, sample = repo_and_request
        tuner = OtterTuneTuner(pg_catalog, repo, memory_limit_mb=6553.6, seed=1)
        gpr1, _, _ = tuner._fitted_surrogate(request)
        gpr2, _, _ = tuner._fitted_surrogate(request)
        assert gpr1 is gpr2
        repo.add(TrainingSample("tpcc", sample.config, sample.metrics, 99.0))
        gpr3, _, _ = tuner._fitted_surrogate(request)
        assert gpr3 is not gpr1

    def test_fit_is_exact_even_at_scale(self, pg_catalog, repo_and_request):
        """The surrogate never amortises: one version bump = one refit."""
        repo, request, sample = repo_and_request
        repo.exact_refresh_limit = 0  # rankings/edges would now amortise
        tuner = OtterTuneTuner(pg_catalog, repo, memory_limit_mb=6553.6, seed=1)
        gpr1, _, _ = tuner._fitted_surrogate(request)
        repo.add(TrainingSample("tpcc", sample.config, sample.metrics, 99.0))
        gpr2, _, _ = tuner._fitted_surrogate(request)
        assert gpr2 is not gpr1


# -- executor service-time memo ------------------------------------------------


class TestServiceTimeCache:
    def _family(self):
        return QueryFamily(
            name="f",
            query_type=QueryType.SELECT,
            template="SELECT 1",
            weight=1.0,
            footprint=QueryFootprint(sort_mb=2.0, read_kb=64.0),
        )

    def test_hit_returns_exact_value(self, pg_db):
        cache = ServiceTimeCache()
        fam = self._family()
        args = (
            fam.footprint,
            pg_db.config,
            pg_db.vm,
            0.9,
            pg_db._planner,
            1.5,
            1.0,
            1.0,
        )
        direct = family_service_time_ms(*args)
        first = cache.service_time_ms(0, "w", "f", *args)
        second = cache.service_time_ms(0, "w", "f", *args)
        assert first == direct == second
        assert cache.misses == 1 and cache.hits == 1

    def test_epoch_bump_flushes(self, pg_db):
        cache = ServiceTimeCache()
        fam = self._family()
        args = (
            fam.footprint,
            pg_db.config,
            pg_db.vm,
            0.9,
            pg_db._planner,
            1.5,
            1.0,
            1.0,
        )
        cache.service_time_ms(0, "w", "f", *args)
        cache.service_time_ms(1, "w", "f", *args)
        assert cache.misses == 2 and cache.hits == 0

    def test_database_bumps_epoch_on_apply(self, pg_db):
        epoch = pg_db.config_epoch
        bigger = pg_db.config.with_values({"work_mem": 64.0})
        pg_db.apply_config(bigger, mode="reload")
        assert pg_db.config_epoch == epoch + 1
        restart = pg_db.config.with_values({"shared_buffers": 2048})
        pg_db.apply_config(restart, mode="restart")
        assert pg_db.config_epoch == epoch + 2

    def test_reconfigured_run_uses_fresh_service_times(self, pg_db, tpcc):
        """End to end: a reload must change results despite the memo."""
        pg_db.run(tpcc.batch(20.0))
        baseline = pg_db.run(tpcc.batch(20.0)).throughput
        assert pg_db._service_cache.hits > 0
        boosted = pg_db.config.with_values(
            {"shared_buffers": 4096, "work_mem": 256.0}
        )
        pg_db.apply_config(boosted, mode="restart")
        pg_db.run(tpcc.batch(20.0))
        assert pg_db.run(tpcc.batch(20.0)).throughput != baseline


# -- vectorised-path parity ----------------------------------------------------


class TestLassoBatchParity:
    def test_batch_matches_scalar_per_alpha(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 9))
        y = x @ rng.normal(size=9) + 0.1 * rng.normal(size=40)
        xs, ys = _standardised_problem(x, y)
        n, d = xs.shape
        gram = (xs.T @ xs) / n
        corr = (xs.T @ ys) / n
        alphas = np.geomspace(np.abs(corr).max(), 1e-3, 12)
        batch = _cd_gram_batch(gram, corr, alphas, max_iter=500, tol=1e-6)
        for i, alpha in enumerate(alphas):
            scalar = _cd_gram(
                gram, corr, float(alpha), np.zeros(d), max_iter=500, tol=1e-6
            )
            assert np.array_equal(batch[i], scalar), f"alpha[{i}] diverged"

    def test_entry_matches_public_solver(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(30, 6))
        y = x @ rng.normal(size=6)
        w = lasso_coordinate_descent(x, y, alpha=0.05)
        xs, ys = _standardised_problem(x, y)
        n, d = xs.shape
        gram = (xs.T @ xs) / n
        corr = (xs.T @ ys) / n
        batch = _cd_gram_batch(
            gram, corr, np.array([0.05]), max_iter=500, tol=1e-6
        )
        assert np.array_equal(batch[0], w)

    def test_degenerate_column_is_ignored(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(20, 4))
        x[:, 2] = 3.0  # constant: zero variance after standardisation
        y = x @ np.array([1.0, -2.0, 0.0, 0.5])
        w = lasso_coordinate_descent(x, y, alpha=0.01)
        assert w[2] == 0.0


class TestBatchedRepairParity:
    @pytest.mark.parametrize("limit,conns", [(6553.6, 40), (2048.0, 80), (512.0, 10)])
    def test_repair_matches_scalar_bitwise(self, pg_catalog, limit, conns):
        """Same knob values in → bit-identical repaired values out."""
        from repro.dbsim.config import KnobConfiguration

        rng = np.random.default_rng(3)
        vectors = rng.uniform(0.0, 1.0, size=(25, len(pg_catalog)))
        values = vectors_to_values(vectors, pg_catalog)
        fitted = fit_values_to_budget(values, pg_catalog, limit, conns)
        names = pg_catalog.names()
        for i in range(len(values)):
            config = KnobConfiguration(
                pg_catalog, dict(zip(names, values[i]))
            ).fitted_to_budget(limit, conns)
            scalar = np.array([config[n] for n in names])
            assert np.array_equal(scalar, fitted[i]), i

    def test_vector_round_trip_matches_scalar(self, pg_catalog):
        """Full batched pipeline vs config round trip.

        The batched transform evaluates ``**`` with numpy's vectorised
        pow, which may differ from the scalar ``float.__pow__`` in the
        last ulp on log-scaled knobs, so the round trip is compared to
        float precision rather than bitwise (the repair itself is bitwise,
        see above).
        """
        rng = np.random.default_rng(3)
        vectors = rng.uniform(0.0, 1.0, size=(25, len(pg_catalog)))
        limit, conns = 6553.6, 40
        values = vectors_to_values(vectors, pg_catalog)
        fitted = fit_values_to_budget(values, pg_catalog, limit, conns)
        batched = values_to_vectors(fitted, pg_catalog)
        for i in range(len(vectors)):
            config = vector_to_config(vectors[i], pg_catalog).fitted_to_budget(
                limit, conns
            )
            np.testing.assert_allclose(
                batched[i], config_to_vector(config), rtol=0.0, atol=1e-9
            )

    def test_repaired_rows_fit_budget(self, pg_catalog):
        rng = np.random.default_rng(4)
        vectors = rng.uniform(0.0, 1.0, size=(10, len(pg_catalog)))
        limit, conns = 2048.0, 80
        values = vectors_to_values(vectors, pg_catalog)
        fitted = fit_values_to_budget(values, pg_catalog, limit, conns)
        for row in values_to_vectors(fitted, pg_catalog):
            config = vector_to_config(row, pg_catalog)
            assert config.memory_footprint_mb(conns) <= limit


class TestInstantiateParity:
    """``instantiate_many`` against the one-call-per-draw scalar oracle."""

    _reference = staticmethod(reference_instantiate)

    def _assert_matches(self, families, make_rng, prior_draws: int = 0):
        fast, ref = make_rng(), make_rng()
        for rng in (fast, ref):
            for _ in range(prior_draws):
                rng.integers(0, 10)
        got = instantiate_many(families, fast)
        want = [self._reference(family, ref) for family in families]
        assert got == want
        assert [q.text for q in got] == [q.text for q in want]
        # The bulk path must leave the identical stream position and
        # 32-bit buffer behind: the next bounded draw and double agree.
        assert rng_state(fast) == rng_state(ref)
        assert fast.integers(0, 999_999) == ref.integers(0, 999_999)
        assert fast.random() == ref.random()

    @pytest.mark.parametrize(
        "template,spec",
        [
            ("SELECT c FROM t WHERE id = %s", ("int",)),
            ("SELECT %s, %s FROM t WHERE a = %s AND b < %s",
             ("int", "str", "float", "int")),
            ("VACUUM ANALYZE orders", ()),
        ],
    )
    def test_text_footprint_and_stream_match(self, template, spec):
        family = QueryFamily(
            name="fam",
            query_type=QueryType.SELECT,
            template=template,
            weight=1.0,
            footprint=QueryFootprint(sort_mb=1.5, read_kb=32.0, write_kb=8.0),
            param_spec=spec,
        )
        for seed in range(20):
            self._assert_matches([family], lambda: np.random.default_rng(seed))
            self._assert_matches([family], lambda: np.random.default_rng(seed), 1)

    def test_edge_families_match(self):
        for family in EDGE_FAMILIES:
            for seed in range(20):
                self._assert_matches([family], lambda: np.random.default_rng(seed))

    def test_real_workload_families(self):
        # ``instantiate`` is the one-family bulk call.
        for family in generator_families() + EDGE_FAMILIES:
            fast, ref = np.random.default_rng(13), np.random.default_rng(13)
            assert family.instantiate(fast) == self._reference(family, ref)
            assert fast.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("prior_draws", [0, 1, 2, 3])
    def test_every_generator_family(self, prior_draws):
        families = generator_families()
        for seed in range(12):
            order = np.random.default_rng(1000 + seed).permutation(len(families))
            self._assert_matches(
                [families[i] for i in order],
                lambda: np.random.default_rng(seed),
                prior_draws,
            )

    def test_empty_list(self):
        self._assert_matches([], lambda: np.random.default_rng(5))
        self._assert_matches([], lambda: np.random.default_rng(5), prior_draws=1)

    def test_rejected_first_draw(self):
        families = generator_families() + EDGE_FAMILIES
        for seed in rejecting_seeds(4):
            for prior_draws in (0, 1):
                for family in families:
                    self._assert_matches(
                        [family], lambda: np.random.default_rng(seed), prior_draws
                    )
                self._assert_matches(
                    families, lambda: np.random.default_rng(seed), prior_draws
                )

    @pytest.mark.parametrize("bit_generator", [MT19937, Philox])
    def test_other_bit_generators(self, bit_generator):
        families = generator_families() + EDGE_FAMILIES
        for prior_draws in (0, 1):
            self._assert_matches(
                families,
                lambda: np.random.Generator(bit_generator(0)),
                prior_draws,
            )

    def test_precomputed_template_matches_text(self, tpcc):
        from repro.workloads.templating import make_template

        rng = np.random.default_rng(2)
        for family in tpcc.families.values():
            query = family.instantiate(rng)
            if query.template:
                assert query.template == make_template(query.text)


class TestTopSamplesParity:
    def test_matches_stable_sort(self, pg_catalog):
        repo = WorkloadRepository()
        samples = make_samples(pg_catalog, "tpcc", n=10, seed=5)
        # Inject duplicate objectives to exercise stable ordering.
        dup = samples[0]
        samples.append(
            TrainingSample(dup.workload_id, dup.config, dup.metrics, 50.0)
        )
        repo.add_many(samples)
        rows = repo.samples("tpcc")
        for k in (1, 3, 8, 11):
            expected = sorted(rows, key=lambda s: -s.objective)[:k]
            assert repo.top_samples("tpcc", k) == expected

    def test_unknown_workload_is_empty(self):
        assert WorkloadRepository().top_samples("nope", 3) == []


class TestTimeSeriesBulkOps:
    def test_extend_series_matches_extend(self):
        src = TimeSeries("m")
        src.extend([(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)])
        a, b = TimeSeries("m"), TimeSeries("m")
        a.extend(iter(src))
        b.extend_series(src)
        assert a.times.tolist() == b.times.tolist()
        assert a.values.tolist() == b.values.tolist()

    def test_extend_series_rejects_backwards_boundary(self):
        dst = TimeSeries("m")
        dst.append(5.0, 1.0)
        src = TimeSeries("m")
        src.append(4.0, 1.0)
        with pytest.raises(ValueError):
            dst.extend_series(src)

    def test_drop_before_trims_strict_prefix(self):
        series = TimeSeries("m")
        series.extend([(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0)])
        series.drop_before(2.0)
        assert series.times.tolist() == [2.0, 3.0]
        assert series.values.tolist() == [3.0, 4.0]
        series.drop_before(10.0)
        assert len(series) == 0
