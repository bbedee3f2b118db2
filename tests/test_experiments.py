import math

import numpy as np
import pytest

from sparsekm import engine, experiments
from sparsekm.errors import SOutOfRange, SparsityOutOfRange, ValidationError
from sparsekm.experiments import (
    BenchmarkRun,
    GAUSSIAN_DEFAULT_S,
    _summarize,
    default_gaussian_m,
    run_curve_benchmark,
    run_gaussian_benchmark,
)


class TestDefaults:
    def test_pinned_dimensions(self):
        assert default_gaussian_m(50) == 25
        assert default_gaussian_m(200) == 160

    def test_fallback_is_eighty_percent(self):
        assert default_gaussian_m(10) == 8
        assert default_gaussian_m(500) == 400

    def test_default_soft_budget(self):
        assert GAUSSIAN_DEFAULT_S == pytest.approx(math.sqrt(10.0), rel=1e-15)


class TestSummarize:
    def test_single_run_sd_is_nan(self):
        recs = [BenchmarkRun(0, "standard", 0.25)]
        (s,) = _summarize(recs)
        assert s.method == "standard"
        assert s.mean_cer == 0.25
        assert math.isnan(s.sd_cer)
        assert s.n_runs == 1

    def test_mean_and_sample_sd(self):
        recs = [
            BenchmarkRun(0, "a", 0.1),
            BenchmarkRun(1, "a", 0.3),
            BenchmarkRun(0, "b", 0.5),
            BenchmarkRun(1, "b", 0.5),
        ]
        by_method = {s.method: s for s in _summarize(recs)}
        assert by_method["a"].mean_cer == pytest.approx(0.2)
        assert by_method["a"].sd_cer == pytest.approx(np.std([0.1, 0.3], ddof=1))
        assert by_method["b"].sd_cer == 0.0


class TestArgumentsCheckedFirst:
    """An out-of-range m or s is rejected before any data is drawn or fitted."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the benchmark started before its arguments were checked")

        for module, name in [(engine, "weighted_kmeans"), (experiments, "weighted_kmeans"),
                             (experiments, "gen_mv"), (experiments, "gen_fd")]:
            monkeypatch.setattr(module, name, forbidden)

    def test_gaussian_m_and_s(self):
        for m in (60, 50, -1, 1.5):
            with pytest.raises(SparsityOutOfRange):
                run_gaussian_benchmark(50, runs=2, m=m)
        for s in (100.0, 0.5, float("nan")):
            with pytest.raises(SOutOfRange):
                run_gaussian_benchmark(50, runs=2, s=s)

    def test_curve_m(self):
        for m in (1.5, 1.0, 0.0, float("nan")):
            with pytest.raises(SparsityOutOfRange):
                run_curve_benchmark(runs=2, m=m)


class TestGaussianBenchmark:
    def test_records_cover_methods_and_runs(self):
        records, summaries, details = run_gaussian_benchmark(20, runs=3, seed=1)
        assert len(records) == 9
        assert {r.method for r in records} == {"standard", "soft-sparse", "hard-sparse"}
        assert sorted({r.run for r in records}) == [0, 1, 2]
        assert all(0.0 <= r.cer <= 1.0 for r in records)
        assert details == []
        by_method = {s.method: s for s in summaries}
        for method, s in by_method.items():
            vals = [r.cer for r in records if r.method == method]
            assert s.mean_cer == pytest.approx(np.mean(vals), abs=1e-15)
            assert s.n_runs == 3

    def test_fractional_runs_rejected(self):
        for runs in (1.9, float("nan")):
            with pytest.raises(ValidationError, match=f"whole number, got {runs}"):
                run_gaussian_benchmark(20, runs=runs)

    def test_deterministic_per_seed(self):
        a = run_gaussian_benchmark(20, runs=2, seed=5)[0]
        b = run_gaussian_benchmark(20, runs=2, seed=5)[0]
        assert [(r.run, r.method, r.cer) for r in a] == [
            (r.run, r.method, r.cer) for r in b
        ]
        c = run_gaussian_benchmark(20, runs=2, seed=6)[0]
        assert [r.cer for r in a] != [r.cer for r in c]

    def test_details_on_request(self):
        _, _, details = run_gaussian_benchmark(20, runs=2, seed=2, keep_details=True)
        assert [d.run for d in details] == [0, 1]
        assert details[0].data.n_features == 20
        assert details[0].truth.k == 3
        assert details[0].hard.weights.m == default_gaussian_m(20)


class TestCurveBenchmark:
    def test_two_runs_shape_and_ordering(self):
        records, summaries, details = run_curve_benchmark(runs=2, seed=0)
        assert {r.method for r in records} == {"standard", "sparse"}
        assert len(records) == 4
        assert details == []
        by_method = {s.method: s for s in summaries}
        assert by_method["sparse"].mean_cer < by_method["standard"].mean_cer

    def test_deterministic_per_seed(self):
        a = run_curve_benchmark(runs=1, seed=3)[0]
        b = run_curve_benchmark(runs=1, seed=3)[0]
        assert [(r.method, r.cer) for r in a] == [(r.method, r.cer) for r in b]

    def test_details_on_request(self):
        _, _, details = run_curve_benchmark(runs=1, seed=0, keep_details=True)
        (det,) = details
        assert det.run == 0
        assert det.data.n_obs == 200
        assert det.sparse.weights.support_measure() > 0.0


class TestPinnedOutputs:
    """Exact records and objective traces of both harnesses: a change in the
    per-run or per-method seeding, or in the order of the fits, shows here."""

    def test_gaussian(self):
        records, _, details = run_gaussian_benchmark(20, runs=2, seed=5, keep_details=True)
        assert [(r.run, r.method, r.cer) for r in records] == [
            (0, "standard", 0.0),
            (0, "soft-sparse", 0.022033898305084745),
            (0, "hard-sparse", 0.04293785310734463),
            (1, "standard", 0.022033898305084745),
            (1, "soft-sparse", 0.022033898305084745),
            (1, "hard-sparse", 0.13728813559322034),
        ]
        assert [d.soft.objective_trace for d in details] == [
            (23.700008110648543, 23.72763920610929),
            (23.34941902973844,),
        ]
        assert [d.hard.objective_trace for d in details] == [
            (18.163849074067276, 18.32812342722633),
            (17.485459699360636, 17.976265705718944),
        ]

    def test_curves(self):
        records, _, details = run_curve_benchmark(runs=2, seed=0, keep_details=True)
        assert [(r.run, r.method, r.cer) for r in records] == [
            (0, "standard", 0.45105527638190956),
            (0, "sparse", 0.13944723618090452),
            (1, "standard", 0.45105527638190956),
            (1, "sparse", 0.048994974874371856),
        ]
        assert [d.sparse.objective_trace for d in details] == [
            (1011.6989821805877, 1473.0495825874857, 1618.3764948353191),
            (952.6984604608219, 1536.4808113154766, 1655.0059838890954, 1656.2530465379607),
        ]
