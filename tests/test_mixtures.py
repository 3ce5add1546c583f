import math

import pytest
from hypothesis import given, strategies as st

from mixlab.errors import DegenerateCatalog, IndexOutOfRange, NegativeEntry, NotNormalized
from mixlab.mixtures import (
    MixtureWeights,
    format_mixture,
    normalize_to_simplex,
    parse_mixture,
    read_mixture_file,
    seed_all,
    seed_exclude_one,
    seed_single,
    validate,
)
from tests.conftest import write_mixture_file


class TestValidate:
    def test_uniform_point(self):
        w = validate([0.2, 0.2, 0.2, 0.2, 0.2])
        assert w.weights == (0.2, 0.2, 0.2, 0.2, 0.2)

    def test_vertex(self):
        assert validate([1.0, 0.0]).weights == (1.0, 0.0)

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            validate([0.5, 0.6])

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry):
            validate([-0.1, 1.1])

    def test_empty(self):
        with pytest.raises(DegenerateCatalog):
            validate([])

    def test_never_renormalizes(self):
        # values inside the tolerance are passed through untouched
        raw = [0.5, 0.5 + 5e-10]
        assert validate(raw).weights == tuple(raw)

    def test_tolerance_boundary(self):
        with pytest.raises(NotNormalized):
            validate([0.5, 0.5 + 2e-9])

    def test_non_finite_entries(self):
        for raw in ([math.nan, 1.0], [0.5, math.nan, 0.5], [math.inf, 1.0]):
            with pytest.raises(NotNormalized):
                validate(raw)
        with pytest.raises(NegativeEntry):
            validate([-math.inf, 1.0])


class TestSeedGenerators:
    def test_single_first(self):
        assert seed_single(0, 5).weights == (1, 0, 0, 0, 0)

    def test_single_last(self):
        assert seed_single(4, 5).weights == (0, 0, 0, 0, 1)

    def test_single_middle(self):
        assert seed_single(2, 3).weights == (0, 0, 1)

    def test_single_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            seed_single(5, 5)

    def test_exclude_one_first(self):
        assert seed_exclude_one(0, 5).weights == (0, 0.25, 0.25, 0.25, 0.25)

    def test_exclude_one_reduces_to_single(self):
        assert seed_exclude_one(1, 2).weights == (1, 0)

    def test_exclude_one_last(self):
        assert seed_exclude_one(4, 5).weights == (0.25, 0.25, 0.25, 0.25, 0)

    def test_exclude_one_degenerate(self):
        with pytest.raises(DegenerateCatalog):
            seed_exclude_one(0, 1)

    def test_exclude_one_zero_position(self):
        for m in (2, 3, 5, 8):
            for i in range(m):
                w = seed_exclude_one(i, m)
                zeros = [j for j, v in enumerate(w.weights) if v == 0.0]
                assert zeros == [i]

    def test_all_five(self):
        assert seed_all(5).weights == (0.2,) * 5

    def test_all_single_domain(self):
        assert seed_all(1).weights == (1.0,)

    def test_all_four(self):
        assert seed_all(4).weights == (0.25,) * 4

    def test_all_empty(self):
        with pytest.raises(DegenerateCatalog):
            seed_all(0)

    @given(st.integers(min_value=1, max_value=24), st.data())
    def test_generators_pass_validate(self, m, data):
        validate(seed_all(m).weights)
        i = data.draw(st.integers(min_value=0, max_value=m - 1))
        validate(seed_single(i, m).weights)
        if m >= 2:
            validate(seed_exclude_one(i, m).weights)

    @given(
        st.integers(min_value=2, max_value=8),
        st.floats(min_value=0.0, max_value=1.0),
        st.randoms(use_true_random=False),
    )
    def test_convex_combination_stays_valid(self, m, t, rnd):
        a = seed_single(rnd.randrange(m), m).to_array()
        b = seed_all(m).to_array()
        validate(t * a + (1 - t) * b)


class TestNormalizeToSimplex:
    def test_rescales(self):
        assert normalize_to_simplex([2.0, 2.0]).weights == (0.5, 0.5)

    def test_zero_sum(self):
        with pytest.raises(NotNormalized):
            normalize_to_simplex([0.0, 0.0])

    def test_negative(self):
        with pytest.raises(NegativeEntry):
            normalize_to_simplex([1.0, -1.0])
        with pytest.raises(NegativeEntry):
            normalize_to_simplex([-math.inf, 1.0])

    def test_non_finite(self):
        for raw in ([math.nan, 1.0], [math.inf, 1.0], [1.0, math.nan, math.inf]):
            with pytest.raises(NotNormalized):
                normalize_to_simplex(raw)
        with pytest.warns(RuntimeWarning), pytest.raises(NotNormalized):
            normalize_to_simplex([1e308, 1e308])  # finite entries, overflowing sum


class TestMixtureFile:
    def test_round_trip(self, tmp_path):
        w = normalize_to_simplex([1.0, 2.0, 3.0, 4.0])
        path = tmp_path / "mix.txt"
        write_mixture_file(w, path)
        again = read_mixture_file(path)
        assert all(math.isclose(a, b, abs_tol=1e-10) for a, b in zip(w.weights, again.weights))

    def test_ten_significant_digits(self):
        line = format_mixture(normalize_to_simplex([1.0, 2.0]))
        assert line == "0.3333333333,0.6666666667"

    def test_parse_rejects_garbage(self):
        with pytest.raises(NotNormalized):
            parse_mixture("a,b,c")

    def test_parse_validates(self):
        with pytest.raises(NotNormalized):
            parse_mixture("0.9,0.2")

    def test_parse_rejects_non_finite(self):
        for line in ("nan,1", "1,NaN", "inf,0"):
            with pytest.raises(NotNormalized):
                parse_mixture(line)
        with pytest.raises(NegativeEntry):
            parse_mixture("-inf,1")


def test_support_and_labels():
    w = MixtureWeights((0.5, 0.0, 0.5))
    assert w.support() == (0, 2)
    assert w.dataset_labels() == (1, 3)
