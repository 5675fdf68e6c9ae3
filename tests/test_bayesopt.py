"""Bayesian-Optimization substrate tests: kernels, GP, acquisition, optimizer, LWS."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bayesopt import (
    AcquisitionFunction,
    BayesianOptimizer,
    GaussianProcessRegressor,
    LWSConfig,
    LowCostWeightSearch,
    Matern52Kernel,
    RBFKernel,
    expected_improvement,
    make_kernel,
    random_weights,
    upper_confidence_bound,
    vector_to_weights,
    weight_simplex_grid,
    weights_to_vector,
)
from repro.exceptions import SearchError
from repro.masking import MASK_LEVELS


class TestKernels:
    @pytest.mark.parametrize("kernel_cls", [RBFKernel, Matern52Kernel])
    def test_kernel_diagonal_is_signal_variance(self, kernel_cls):
        kernel = kernel_cls(length_scale=0.3, signal_variance=2.0)
        x = np.random.default_rng(0).random((5, 3))
        gram = kernel(x, x)
        assert np.allclose(np.diag(gram), 2.0)

    @pytest.mark.parametrize("kernel_cls", [RBFKernel, Matern52Kernel])
    def test_kernel_symmetry_and_psd(self, kernel_cls):
        kernel = kernel_cls(length_scale=0.5)
        x = np.random.default_rng(1).random((8, 2))
        gram = kernel(x, x)
        assert np.allclose(gram, gram.T)
        eigenvalues = np.linalg.eigvalsh(gram + 1e-10 * np.eye(8))
        assert (eigenvalues > -1e-8).all()

    def test_kernel_decays_with_distance(self):
        kernel = RBFKernel(length_scale=0.2)
        near = kernel(np.array([[0.0]]), np.array([[0.1]]))[0, 0]
        far = kernel(np.array([[0.0]]), np.array([[1.0]]))[0, 0]
        assert near > far

    def test_kernel_validation(self):
        with pytest.raises(SearchError):
            RBFKernel(length_scale=0.0)
        with pytest.raises(SearchError):
            RBFKernel(length_scale=1.0)(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_registry(self):
        assert isinstance(make_kernel("rbf"), RBFKernel)
        assert isinstance(make_kernel("matern52", length_scale=0.4), Matern52Kernel)
        with pytest.raises(KeyError):
            make_kernel("linear")


class TestGaussianProcess:
    def test_posterior_interpolates_training_points(self):
        x = np.linspace(0, 1, 6).reshape(-1, 1)
        y = np.sin(2 * np.pi * x).ravel()
        gp = GaussianProcessRegressor(RBFKernel(length_scale=0.2), noise=1e-6)
        gp.fit(x, y)
        mean, std = gp.predict(x)
        assert np.allclose(mean, y, atol=1e-2)
        assert (std < 0.1).all()

    def test_uncertainty_grows_away_from_data(self):
        x = np.array([[0.0], [0.1], [0.2]])
        y = np.array([0.0, 0.1, 0.2])
        gp = GaussianProcessRegressor(RBFKernel(length_scale=0.1)).fit(x, y)
        _, std_near = gp.predict(np.array([[0.1]]))
        _, std_far = gp.predict(np.array([[2.0]]))
        assert std_far[0] > std_near[0]

    def test_predict_before_fit_raises(self):
        with pytest.raises(SearchError):
            GaussianProcessRegressor().predict(np.zeros((1, 2)))

    def test_fit_validation(self):
        gp = GaussianProcessRegressor()
        with pytest.raises(SearchError):
            gp.fit(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(SearchError):
            gp.fit(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(SearchError):
            GaussianProcessRegressor(noise=0.0)

    def test_duplicate_inputs_do_not_crash(self):
        x = np.zeros((5, 2))
        y = np.ones(5)
        gp = GaussianProcessRegressor().fit(x, y)
        mean, _ = gp.predict(np.zeros((1, 2)))
        assert mean[0] == pytest.approx(1.0, abs=0.1)

    def test_log_marginal_likelihood_finite(self):
        rng = np.random.default_rng(0)
        x = rng.random((10, 2))
        y = rng.random(10)
        gp = GaussianProcessRegressor().fit(x, y)
        assert np.isfinite(gp.log_marginal_likelihood())

    @given(st.integers(min_value=3, max_value=12))
    @settings(max_examples=15, deadline=None)
    def test_posterior_mean_bounded_by_data_range(self, n):
        rng = np.random.default_rng(n)
        x = rng.random((n, 2))
        y = rng.uniform(0.2, 0.8, size=n)
        gp = GaussianProcessRegressor(normalize_y=True).fit(x, y)
        mean, _ = gp.predict(rng.random((20, 2)))
        assert mean.min() > -1.0 and mean.max() < 2.0


class TestAcquisition:
    def test_ei_zero_when_certain_and_worse(self):
        ei = expected_improvement(np.array([0.1]), np.array([0.0]), best_value=0.5)
        assert ei[0] == pytest.approx(0.0)

    def test_ei_positive_when_better(self):
        ei = expected_improvement(np.array([0.9]), np.array([0.01]), best_value=0.5)
        assert ei[0] > 0.3

    def test_ei_rewards_uncertainty(self):
        low_std = expected_improvement(np.array([0.5]), np.array([0.01]), 0.5)
        high_std = expected_improvement(np.array([0.5]), np.array([0.3]), 0.5)
        assert high_std[0] > low_std[0]

    def test_ei_is_bitwise_equal_to_the_scipy_stats_norm_formula(self):
        from scipy import stats

        rng = np.random.default_rng(3)
        best = 0.5
        # Edge points: z = 0 (mean at the incumbent), std = 0 (certain
        # posterior), and |z| ~ 90 where the density underflows to zero.
        mean = np.concatenate([rng.normal(0.5, 0.3, 100_000), [0.5, 0.9, 0.1, 90.5, -89.5]])
        std = np.concatenate([rng.uniform(1e-6, 0.5, 100_000), [0.3, 0.0, 0.0, 1.0, 1.0]])
        improvement = mean - best
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(std > 0, improvement / std, 0.0)
        np.testing.assert_array_equal(z[-5:], [0.0, 0.0, 0.0, 90.0, -90.0])
        reference = improvement * stats.norm.cdf(z) + std * stats.norm.pdf(z)
        reference = np.where(std > 1e-12, reference, np.maximum(improvement, 0.0))
        ei = expected_improvement(mean, std, best)
        assert ei.dtype == reference.dtype
        assert ei.tobytes() == reference.tobytes()

    def test_ei_shape_validation(self):
        with pytest.raises(SearchError):
            expected_improvement(np.zeros(3), np.zeros(2), 0.0)

    def test_ucb(self):
        assert upper_confidence_bound(np.array([1.0]), np.array([0.5]), kappa=2.0)[0] == pytest.approx(2.0)
        with pytest.raises(SearchError):
            upper_confidence_bound(np.array([1.0]), np.array([0.5]), kappa=-1.0)

    def test_acquisition_wrapper(self):
        gp = GaussianProcessRegressor().fit(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
        candidates = np.linspace(0, 1, 5).reshape(-1, 1)
        for kind in ("ei", "ucb"):
            scores = AcquisitionFunction(kind=kind)(gp, candidates, best_value=0.5)
            assert scores.shape == (5,)
        with pytest.raises(SearchError):
            AcquisitionFunction(kind="pi")


class TestBayesianOptimizer:
    def _objective(self, point):
        # Smooth concave objective with maximum at (0.6, 0.4).
        return float(1.0 - (point[0] - 0.6) ** 2 - (point[1] - 0.4) ** 2)

    def test_optimizer_finds_near_optimal_candidate(self):
        grid = weight_simplex_grid(levels=("a", "b"), resolution=10)
        optimizer = BayesianOptimizer(candidates=grid)
        best = optimizer.optimize(self._objective, budget=12, initial_random=3,
                                  rng=np.random.default_rng(0))
        assert best.value >= 0.95

    def test_optimizer_beats_or_matches_random_search(self):
        grid = weight_simplex_grid(levels=("a", "b"), resolution=20)
        rng = np.random.default_rng(1)
        optimizer = BayesianOptimizer(candidates=grid)
        bo_best = optimizer.optimize(self._objective, budget=10, initial_random=3, rng=rng).value
        random_best = max(
            self._objective(grid[i]) for i in np.random.default_rng(1).integers(0, len(grid), 5)
        )
        assert bo_best >= random_best - 1e-9

    def test_tell_and_best_observation(self):
        optimizer = BayesianOptimizer(candidates=np.array([[0.0], [1.0]]))
        optimizer.tell(np.array([0.0]), 0.3)
        optimizer.tell(np.array([1.0]), 0.7)
        assert optimizer.best_observation.value == pytest.approx(0.7)

    def test_tell_dimension_check(self):
        optimizer = BayesianOptimizer(candidates=np.array([[0.0, 1.0]]))
        with pytest.raises(SearchError):
            optimizer.tell(np.array([0.0]), 1.0)

    def test_suggest_without_observations_is_random_candidate(self):
        candidates = np.array([[0.0], [0.5], [1.0]])
        optimizer = BayesianOptimizer(candidates=candidates)
        point = optimizer.suggest(rng=np.random.default_rng(0))
        assert any(np.allclose(point, candidate) for candidate in candidates)

    def test_suggest_excludes_observed(self):
        candidates = np.array([[0.0], [1.0]])
        optimizer = BayesianOptimizer(candidates=candidates)
        optimizer.tell(np.array([0.0]), 0.9)
        point = optimizer.suggest(rng=np.random.default_rng(0))
        assert np.allclose(point, [1.0])

    def test_empty_candidates_rejected(self):
        with pytest.raises(SearchError):
            BayesianOptimizer(candidates=np.empty((0, 2)))

    def test_best_observation_requires_history(self):
        optimizer = BayesianOptimizer(candidates=np.array([[0.0]]))
        with pytest.raises(SearchError):
            _ = optimizer.best_observation


class TestWeightGridAndConversion:
    def test_grid_rows_sum_to_one(self):
        grid = weight_simplex_grid(resolution=4)
        assert np.allclose(grid.sum(axis=1), 1.0)
        assert grid.shape[1] == len(MASK_LEVELS)

    def test_grid_size_matches_stars_and_bars(self):
        grid = weight_simplex_grid(levels=("a", "b", "c"), resolution=4)
        # C(4 + 3 - 1, 3 - 1) = 15 compositions of 4 into 3 parts.
        assert grid.shape[0] == 15

    @given(resolution=st.integers(min_value=1, max_value=6))
    @settings(max_examples=10, deadline=None)
    def test_grid_entries_nonnegative(self, resolution):
        grid = weight_simplex_grid(resolution=resolution)
        assert (grid >= 0).all()
        assert np.allclose(grid.sum(axis=1), 1.0)

    def test_vector_weight_roundtrip(self):
        vector = np.array([0.1, 0.2, 0.3, 0.4])
        weights = vector_to_weights(vector)
        assert set(weights) == set(MASK_LEVELS)
        assert np.allclose(weights_to_vector(weights), vector)

    def test_vector_dimension_check(self):
        with pytest.raises(SearchError):
            vector_to_weights(np.array([0.5, 0.5]))

    def test_random_weights_on_simplex(self):
        weights = random_weights(np.random.default_rng(0))
        assert sum(weights.values()) == pytest.approx(1.0)
        assert all(value >= 0 for value in weights.values())


class TestLowCostWeightSearch:
    @staticmethod
    def _synthetic_performance(weights):
        """A downstream 'performance' that prefers a specific weight mix."""
        target = {"sensor": 0.2, "point": 0.4, "subperiod": 0.2, "period": 0.2}
        return 1.0 - sum((weights[k] - target[k]) ** 2 for k in target)

    def test_search_finds_good_weights(self):
        config = LWSConfig(budget=10, initial_random=3, grid_resolution=5, seed=0)
        result = LowCostWeightSearch(config).search(
            self._synthetic_performance, rng=np.random.default_rng(0)
        )
        assert result.best_performance > 0.9
        assert result.num_evaluations == 10
        assert sum(result.best_weights.values()) == pytest.approx(1.0)

    def test_performance_trace_monotone(self):
        config = LWSConfig(budget=6, initial_random=2, seed=1)
        result = LowCostWeightSearch(config).search(
            self._synthetic_performance, rng=np.random.default_rng(1)
        )
        trace = result.performance_trace()
        assert all(b >= a for a, b in zip(trace, trace[1:]))

    def test_convergence_stops_early(self):
        config = LWSConfig(budget=20, initial_random=2, convergence_patience=2, seed=0)
        calls = []

        def constant_performance(weights):
            calls.append(weights)
            return 0.5

        LowCostWeightSearch(config).search(constant_performance, rng=np.random.default_rng(0))
        assert len(calls) < 20

    def test_beats_random_weight_selection(self):
        config = LWSConfig(budget=8, initial_random=2, grid_resolution=5, seed=3)
        lws = LowCostWeightSearch(config).search(
            self._synthetic_performance, rng=np.random.default_rng(3)
        )
        rng = np.random.default_rng(3)
        random_best = max(
            self._synthetic_performance(random_weights(rng)) for _ in range(4)
        )
        assert lws.best_performance >= random_best - 0.05

    def test_config_validation(self):
        with pytest.raises(SearchError):
            LWSConfig(budget=0)
        with pytest.raises(SearchError):
            LWSConfig(budget=2, initial_random=3)
        with pytest.raises(SearchError):
            LWSConfig(initial_random=0)
