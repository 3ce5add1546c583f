import json

import numpy as np
import pytest

from mixlab.errors import DimensionMismatch, InsufficientRecords, ZeroVariance
from mixlab.mixtures import MixtureWeights, normalize_to_simplex
from mixlab.pipeline import plan_seed_mixtures
from mixlab.records import BenchmarkSpec, PerformanceRecord, bundled_suite, table2_fixture
from mixlab.surrogate import (
    FitConfig,
    SurrogateModel,
    cross_validated_fit,
    design_matrix,
    least_squares_fit,
    model_from_coefficients,
    predict,
    predict_many,
    quadratic_pairs,
    r_squared,
)
from tests.conftest import fit_records

OUT_SUITE = [BenchmarkSpec("obj", 1, "out"), BenchmarkSpec("dummy", 1, "in")]


def synthetic_records(model: SurrogateModel, n: int, seed: int) -> list[PerformanceRecord]:
    """Noiseless records whose out-score equals the model's prediction."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        w = normalize_to_simplex(rng.uniform(0.05, 1.0, size=model.m))
        y = predict(model, w)
        assert 0.0 < y < 1.0, "test model must stay inside [0,1]"
        records.append(PerformanceRecord(
            id=f"r{i}",
            datasets=w.dataset_labels(),
            weights=w,
            scores={"obj": y, "dummy": 0.5},
        ))
    return records


def simplex_points(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    return rng.dirichlet(np.ones(m), size=n)


def full_monomial_matrix(W: np.ndarray, degree: int) -> np.ndarray:
    """Reference basis: [1, w_1..w_m] plus every w_i*w_j with i <= j at degree 2."""
    columns = [np.ones(len(W)), *W.T]
    if degree == 2:
        columns.extend(W[:, i] * W[:, j] for i, j in quadratic_pairs(W.shape[1]))
    return np.column_stack(columns)


class TestDesignMatrix:
    def test_degree_two_row(self):
        X = design_matrix(np.array([[0.3, 0.7]]), degree=2)
        assert X[0] == pytest.approx([0.3, 0.7, 0.21])

    def test_interaction_order_is_lexicographic(self):
        X = design_matrix(np.array([[0.2, 0.3, 0.5]]), degree=2)
        assert X[0] == pytest.approx([0.2, 0.3, 0.5, 0.06, 0.1, 0.15])

    def test_vertex_row(self):
        X = design_matrix(np.array([[0.0, 1.0, 0.0]]), degree=2)
        assert X[0].tolist() == [0, 1, 0, 0, 0, 0]

    def test_degree_one_row(self):
        X = design_matrix(np.array([[0.5, 0.5]]), degree=1)
        assert X[0] == pytest.approx([0.5, 0.5])

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_column_counts(self, m):
        mixtures = np.full((1, m), 1.0 / m)
        assert design_matrix(mixtures, 1).shape == (1, m)
        assert design_matrix(mixtures, 2).shape == (1, m * (m + 1) // 2)

    def test_pair_order_is_lexicographic(self):
        assert quadratic_pairs(3) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


class TestLeastSquares:
    def test_mean_minimizes(self):
        assert least_squares_fit(np.array([[1.0], [1.0]]), np.array([2.0, 4.0])) == pytest.approx([3.0])

    def test_identity(self):
        y = np.array([0.3, 0.1, 0.7])
        assert least_squares_fit(np.eye(3), y) == pytest.approx(y)

    def test_square_invertible(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(4, 4)) + 4 * np.eye(4)
        y = rng.normal(size=4)
        assert least_squares_fit(X, y) == pytest.approx(np.linalg.solve(X, y))

    def test_min_norm_when_underdetermined(self):
        # one equation, two unknowns: x + y = 2; min-norm solution is (1, 1)
        coef = least_squares_fit(np.array([[1.0, 1.0]]), np.array([2.0]))
        assert coef == pytest.approx([1.0, 1.0])


class TestPredict:
    def test_linear(self):
        model = SurrogateModel(degree=1, intercept=0.1, linear=np.array([0.2, 0.0]))
        assert predict(model, MixtureWeights((1.0, 0.0))) == pytest.approx(0.3)

    def test_quadratic_with_zero_interactions_reduces_to_linear(self):
        linear = SurrogateModel(degree=1, intercept=0.2, linear=np.array([0.1, -0.3]))
        quad = SurrogateModel(degree=2, intercept=0.2, linear=np.array([0.1, -0.3]),
                              quad=np.zeros((2, 2)))
        for w in ([1.0, 0.0], [0.25, 0.75], [0.5, 0.5]):
            mix = MixtureWeights(tuple(w))
            assert predict(quad, mix) == pytest.approx(predict(linear, mix))

    def test_quadratic_half_form(self):
        # 0.5 * w'Cw with C = 2I at the centroid: 0.5 * 2 * (0.25 + 0.25) = 0.5
        model = SurrogateModel(degree=2, intercept=0.0, linear=np.zeros(2), quad=2 * np.eye(2))
        assert predict(model, MixtureWeights((0.5, 0.5))) == pytest.approx(0.5)
        # and with C = I it halves to 0.25
        model = SurrogateModel(degree=2, intercept=0.0, linear=np.zeros(2), quad=np.eye(2))
        assert predict(model, MixtureWeights((0.5, 0.5))) == pytest.approx(0.25)

    def test_dimension_mismatch(self):
        model = SurrogateModel(degree=1, intercept=0.0, linear=np.zeros(3))
        with pytest.raises(DimensionMismatch):
            predict(model, MixtureWeights((1.0, 0.0)))

    def test_symmetric_form_matches_monomial_fit(self):
        # the b/a/C parameterization must reproduce X @ beta exactly
        rng = np.random.default_rng(2)
        m = 4
        beta = rng.normal(size=m * (m + 1) // 2)
        model = model_from_coefficients(beta, m, degree=2)
        assert model.intercept == 0.0
        assert model.linear.tolist() == beta[:m].tolist()
        assert (model.quad == model.quad.T).all()
        assert np.diag(model.quad).tolist() == [0.0] * m
        mixtures = [normalize_to_simplex(rng.uniform(0.01, 1, m)) for _ in range(20)]
        X = design_matrix(np.array([w.weights for w in mixtures]), 2)
        direct = X @ beta
        via_model = np.array([predict(model, w) for w in mixtures])
        assert via_model == pytest.approx(direct, abs=1e-12)
        assert predict_many(model, np.array([w.to_array() for w in mixtures])) == pytest.approx(direct, abs=1e-12)

    def test_second_differences_constant_along_direction(self):
        rng = np.random.default_rng(3)
        model = model_from_coefficients(rng.normal(size=3 + 3), 3, degree=2)
        base = np.array([0.5, 0.3, 0.2])
        direction = np.array([1.0, -0.5, -0.5])  # stays on the sum=1 plane

        def g(t):
            return predict(model, base + t * direction)

        h = 0.05
        second = [g(t + h) - 2 * g(t) + g(t - h) for t in (-0.1, 0.0, 0.1, 0.2)]
        assert max(second) - min(second) < 1e-12


class TestRSquared:
    def test_perfect(self):
        assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_mean_predictor(self):
        assert r_squared([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]) == pytest.approx(0.0)

    def test_half_half(self):
        assert r_squared([0.5, 0.5], [0.0, 1.0]) == pytest.approx(0.0)

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            r_squared([1.0, 2.0], [3.0, 3.0])


class TestCrossValidatedFit:
    def test_recovers_linear(self):
        truth = SurrogateModel(degree=1, intercept=0.3, linear=np.array([0.2, 0.0, 0.1]))
        records = synthetic_records(truth, 24, seed=4)
        model, report = fit_records(records, FitConfig(degree=1, seed=0), suite=OUT_SUITE)
        assert all(r2 >= 0.999 for r2 in report.test_r2)
        # the intercept is not identifiable on the simplex, so compare predictions
        held_out = np.vstack([np.eye(3), simplex_points(np.random.default_rng(40), 20, 3)])
        assert predict_many(model, held_out) == pytest.approx(predict_many(truth, held_out), abs=1e-8)

    def test_recovers_quadratic(self):
        quad = np.array([[0.4, -0.2, 0.0], [-0.2, 0.3, 0.1], [0.0, 0.1, -0.2]])
        truth = SurrogateModel(degree=2, intercept=0.4, linear=np.array([0.1, -0.05, 0.0]), quad=quad)
        records = synthetic_records(truth, 40, seed=5)
        model, report = fit_records(records, FitConfig(degree=2, seed=1), suite=OUT_SUITE)
        assert all(r2 >= 0.999 for r2 in report.test_r2)

    def test_determinism(self):
        truth = SurrogateModel(degree=1, intercept=0.4, linear=np.array([0.1, 0.05]))
        records = synthetic_records(truth, 12, seed=6)
        _, first = fit_records(records, FitConfig(degree=2, seed=9), suite=OUT_SUITE)
        _, second = fit_records(records, FitConfig(degree=2, seed=9), suite=OUT_SUITE)
        assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())

    def test_best_split_maximizes_test_r2(self):
        truth = SurrogateModel(degree=1, intercept=0.4, linear=np.array([0.1, 0.05, -0.1]))
        records = synthetic_records(truth, 15, seed=7)
        _, report = fit_records(records, FitConfig(degree=1, seed=2), suite=OUT_SUITE)
        assert report.test_r2[report.best_split] == max(report.test_r2)

    def test_nested_models_on_bundled_seed_rows(self):
        records = [r for r in table2_fixture() if r.weights is not None]
        assert len(records) == 11
        _, lin = fit_records(records, FitConfig(degree=1, seed=3), suite=bundled_suite())
        _, quad = fit_records(records, FitConfig(degree=2, seed=3), suite=bundled_suite())
        # identical seed gives identical splits, so train R^2 compares row-wise
        for lo, hi in zip(lin.train_r2, quad.train_r2):
            assert hi >= lo - 1e-12

    @pytest.mark.parametrize("W, y", [
        (np.full((6, 3), 1 / 3), np.linspace(0.1, 0.9, 5)),  # a score short
        (np.full((5, 3), 1 / 3), np.linspace(0.1, 0.9, 6)),  # a mixture short
        (np.full(6, 0.5), np.linspace(0.1, 0.9, 6)),  # not an (n, m) array
    ])
    def test_rows_must_pair_with_scores(self, W, y):
        with pytest.raises(DimensionMismatch):
            cross_validated_fit(W, y, FitConfig(degree=1))

    def test_insufficient_records(self):
        truth = SurrogateModel(degree=1, intercept=0.4, linear=np.array([0.1, 0.05]))
        records = synthetic_records(truth, 4, seed=8)
        with pytest.raises(InsufficientRecords):
            fit_records(records, FitConfig(degree=1), suite=OUT_SUITE)
        # a valid fraction that rounds to no test row among the records is a data error
        records = synthetic_records(truth, 5, seed=8)
        with pytest.raises(InsufficientRecords, match="no test rows"):
            fit_records(records, FitConfig(degree=1, test_fraction=0.1), suite=OUT_SUITE)

    @pytest.mark.parametrize("settings", [
        dict(degree=3), dict(n_splits=0), dict(test_fraction=0.0), dict(test_fraction=1.0),
        dict(test_fraction=1.5),
    ])
    def test_bad_settings_rejected_before_fitting(self, settings):
        # cross_validated_fit takes its settings as a FitConfig, so they fail before any fitting
        with pytest.raises(ValueError):
            FitConfig(**settings)

    def test_constant_scores_raise_zero_variance(self):
        constant = SurrogateModel(degree=1, intercept=0.5, linear=np.zeros(2))
        records = synthetic_records(constant, 10, seed=12)
        with pytest.raises(ZeroVariance):
            fit_records(records, FitConfig(degree=1), suite=OUT_SUITE)

    @pytest.mark.parametrize("m, degree, count", [(4, 1, 4), (4, 2, 10), (5, 2, 15)])
    def test_coefficient_count_reported(self, m, degree, count):
        truth = SurrogateModel(degree=1, intercept=0.4, linear=np.linspace(0.1, 0.0, m))
        records = synthetic_records(truth, 20, seed=9)
        _, report = fit_records(records, FitConfig(degree=degree, seed=0), suite=OUT_SUITE)
        assert report.coefficient_count == count


class TestScheffeBasis:
    """The Scheffé fit predicts what a minimum-norm fit on all 1 + m + m(m+1)/2 monomials does."""

    @staticmethod
    def max_gap(W: np.ndarray, y: np.ndarray, degree: int, rng: np.random.Generator) -> float:
        m = W.shape[1]
        model = model_from_coefficients(least_squares_fit(design_matrix(W, degree), y), m, degree)
        reference, *_ = np.linalg.lstsq(full_monomial_matrix(W, degree), y, rcond=None)
        probe = np.vstack([np.eye(m), simplex_points(rng, 50, m)])
        return float(np.abs(predict_many(model, probe) - full_monomial_matrix(probe, degree) @ reference).max())

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_matches_full_monomial_fit_on_random_designs(self, m, degree):
        rng = np.random.default_rng(100 * m + degree)
        columns = m if degree == 1 else m * (m + 1) // 2
        for _ in range(20):
            W = simplex_points(rng, columns + 5, m)
            assert np.linalg.matrix_rank(design_matrix(W, degree)) == columns
            assert self.max_gap(W, rng.normal(size=len(W)), degree, rng) <= 1e-9

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("replicates", [1, 2, 3])
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_matches_full_monomial_fit_on_pilot_plans(self, m, replicates, degree):
        rng = np.random.default_rng(1000 * m + 10 * replicates + degree)
        W = np.array([mx.weights for mx in plan_seed_mixtures(m) for _ in range(replicates)])
        for _ in range(20):
            assert self.max_gap(W, rng.uniform(size=len(W)), degree, rng) <= 1e-12


class TestModelSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        model = model_from_coefficients(rng.normal(size=3 + 3), 3, degree=2)
        path = tmp_path / "model.json"
        model.save(path)
        again = SurrogateModel.load(path)
        assert again.degree == model.degree
        assert again.intercept == model.intercept
        assert again.linear == pytest.approx(model.linear)
        assert again.quad == pytest.approx(model.quad)

    def test_hand_built_model_round_trip(self, tmp_path):
        # a b / a / C file with an intercept and a diagonal, as no Scheffé fit writes
        quad = np.array([[0.4, -0.2, 0.1], [-0.2, -0.6, 0.3], [0.1, 0.3, 0.8]])
        model = SurrogateModel(degree=2, intercept=0.25, linear=np.array([0.1, -0.3, 0.2]), quad=quad)
        path = tmp_path / "model.json"
        model.save(path)
        again = SurrogateModel.load(path)
        assert again.intercept == 0.25
        assert again.linear.tolist() == model.linear.tolist()
        assert again.quad.tolist() == quad.tolist()
        W = simplex_points(np.random.default_rng(11), 10, 3)
        expected = [0.25 + w @ model.linear + 0.5 * w @ quad @ w for w in W]
        assert predict_many(again, W) == pytest.approx(expected, abs=1e-15)

    def test_linear_round_trip(self, tmp_path):
        model = SurrogateModel(degree=1, intercept=0.5, linear=np.array([0.25, -0.25]))
        path = tmp_path / "model.json"
        model.save(path)
        again = SurrogateModel.load(path)
        assert again.quad is None
        assert again.linear == pytest.approx(model.linear)

