import numpy as np
import pytest

from tsnet import GeneratorSpec, InvalidParam, generate
from tsnet.generators import KINDS, _fgn


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(InvalidParam):
            GeneratorSpec(kind="brownian", n=10)

    def test_n_too_small(self):
        with pytest.raises(InvalidParam):
            GeneratorSpec(kind="constant", n=1)

    @pytest.mark.parametrize("kind, n", [
        ("linear", 2.5),  # generated 3 samples, labelled linear-2.5-s0
        ("constant", 5.0),
        ("fgn", 5.0),
        ("iid_gaussian", "5"),
    ])
    def test_n_must_be_integer(self, kind, n):
        with pytest.raises(InvalidParam, match="n must be an integer"):
            GeneratorSpec(kind=kind, n=n, params={"hurst": 0.8} if kind == "fgn" else {})

    @pytest.mark.parametrize("seed", [-1, 1.5, None])
    def test_seed_must_be_non_negative_integer(self, seed):
        with pytest.raises(InvalidParam, match="seed"):
            GeneratorSpec(kind="iid_gaussian", n=5, seed=seed)

    def test_numpy_integers_accepted(self):
        spec = GeneratorSpec(kind="iid_gaussian", n=np.int64(5), seed=np.int64(3))
        assert generate(spec).values.tolist() == generate(
            GeneratorSpec(kind="iid_gaussian", n=5, seed=3)).values.tolist()

    def test_unknown_param_for_kind(self):
        with pytest.raises(InvalidParam):
            GeneratorSpec(kind="linear", n=10, params={"hurst": 0.5})
        with pytest.raises(InvalidParam):
            GeneratorSpec(kind="iid_uniform", n=10, params={"value": 2.0})

    @pytest.mark.parametrize("h", [0.0, 1.0, -0.2, 1.3])
    def test_fgn_hurst_range(self, h):
        with pytest.raises(InvalidParam):
            GeneratorSpec(kind="fgn", n=16, params={"hurst": h})

    def test_fgn_hurst_required(self):
        with pytest.raises(InvalidParam):
            GeneratorSpec(kind="fgn", n=16)

    @pytest.mark.parametrize("kind, params", [
        ("constant", {"value": float("inf")}),
        ("linear", {"slope": float("nan")}),
        ("linear", {"intercept": "1"}),
        ("periodic", {"amplitude": None}),
        ("fgn", {"hurst": float("nan")}),
        ("constant", {"value": 10**400}),  # an int past float64
    ])
    def test_param_must_be_finite_number(self, kind, params):
        with pytest.raises(InvalidParam, match=next(iter(params))):
            GeneratorSpec(kind=kind, n=16, params=params)

    def test_linear_values_must_fit_float64(self):
        with pytest.raises(InvalidParam):
            GeneratorSpec(kind="linear", n=4, params={"slope": 1e308})
        with pytest.raises(InvalidParam):
            GeneratorSpec(kind="linear", n=4, params={"slope": -1e308, "intercept": -1e308})
        GeneratorSpec(kind="linear", n=2, params={"slope": 1e308})

    def test_all_kinds_listed(self):
        assert set(KINDS) == {
            "constant",
            "linear",
            "convex",
            "sawtooth",
            "periodic",
            "iid_uniform",
            "iid_gaussian",
            "fgn",
            "spike",
        }


class TestDeterministicKinds:
    def test_constant(self):
        ts = generate(GeneratorSpec(kind="constant", n=5, params={"value": 2.5}))
        assert ts.values.tolist() == [2.5] * 5

    def test_linear(self):
        ts = generate(
            GeneratorSpec(kind="linear", n=4, params={"slope": 2.0, "intercept": 1.0})
        )
        assert ts.values.tolist() == [1.0, 3.0, 5.0, 7.0]

    def test_convex(self):
        ts = generate(GeneratorSpec(kind="convex", n=4))
        assert ts.values.tolist() == [0.0, 1.0, 4.0, 9.0]

    def test_sawtooth(self):
        ts = generate(GeneratorSpec(kind="sawtooth", n=7, params={"period": 3}))
        assert ts.values.tolist() == [0.0, 1.0, 2.0, 0.0, 1.0, 2.0, 0.0]
        same = generate(GeneratorSpec(kind="sawtooth", n=7, params={"period": 3.0}))
        assert same.values.tolist() == ts.values.tolist()
        for period in (1, 2.5, 0.0):  # 2.5 is not cut to 2
            with pytest.raises(InvalidParam):
                GeneratorSpec(kind="sawtooth", n=7, params={"period": period})

    def test_periodic(self):
        ts = generate(
            GeneratorSpec(kind="periodic", n=9, params={"period": 8, "amplitude": 3.0})
        )
        assert ts.values[0] == pytest.approx(0.0, abs=1e-12)
        assert ts.values[2] == pytest.approx(3.0, abs=1e-12)
        assert ts.values.max() <= 3.0 + 1e-12
        for period in (0, -8.0):
            with pytest.raises(InvalidParam):
                GeneratorSpec(kind="periodic", n=9, params={"period": period})

    def test_spike(self):
        ts = generate(GeneratorSpec(kind="spike", n=9))
        assert ts.values[4] == 1.0
        assert ts.values.sum() == 1.0


class TestStochasticKinds:
    def test_seed_reproducibility(self):
        for kind, params in [
            ("iid_uniform", {}),
            ("iid_gaussian", {}),
            ("fgn", {"hurst": 0.7}),
        ]:
            a = generate(GeneratorSpec(kind=kind, n=64, seed=9, params=params))
            b = generate(GeneratorSpec(kind=kind, n=64, seed=9, params=params))
            c = generate(GeneratorSpec(kind=kind, n=64, seed=10, params=params))
            assert np.array_equal(a.values, b.values)
            assert not np.array_equal(a.values, c.values)

    def test_uniform_range(self):
        ts = generate(GeneratorSpec(kind="iid_uniform", n=5000, seed=0))
        assert ts.values.min() >= 0.0 and ts.values.max() < 1.0
        assert ts.values.mean() == pytest.approx(0.5, abs=0.03)

    def test_gaussian_moments(self):
        ts = generate(GeneratorSpec(kind="iid_gaussian", n=20_000, seed=0))
        assert ts.values.mean() == pytest.approx(0.0, abs=0.03)
        assert ts.values.std() == pytest.approx(1.0, abs=0.03)

    def test_label_encodes_spec(self):
        ts = generate(GeneratorSpec(kind="iid_uniform", n=16, seed=3))
        assert ts.label == "iid_uniform-16-s3"


class TestFgnCorrelation:
    @pytest.mark.parametrize("h", [0.3, 0.5, 0.8])
    def test_lag1_matches_theory(self, h):
        values = _fgn(120_000, h, np.random.default_rng(5))
        expected = 0.5 * (2.0 ** (2 * h) - 2.0)
        observed = float(np.corrcoef(values[:-1], values[1:])[0, 1])
        assert observed == pytest.approx(expected, abs=0.02)

    def test_unit_variance(self):
        values = _fgn(120_000, 0.8, np.random.default_rng(6))
        assert float(values.var()) == pytest.approx(1.0, abs=0.05)

    def test_cumulative_scaling(self):
        # the integrated path of persistent noise spreads superlinearly:
        # var of the H-step partial sum ~ s^{2H}
        h = 0.8
        values = _fgn(200_000, h, np.random.default_rng(7))
        for lag in (10, 100):
            profile = np.cumsum(values)
            increments = profile[lag:] - profile[:-lag]
            ratio = np.log(increments.var()) / np.log(lag)
            assert ratio == pytest.approx(2 * h, abs=0.1)
