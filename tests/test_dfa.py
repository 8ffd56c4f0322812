import dataclasses

import numpy as np
import pytest

from tsnet import (
    DegenerateFit,
    GeneratorSpec,
    InvalidParam,
    ScaleOutOfRange,
    SeriesTooShort,
    TimeSeries,
    build_report,
    classify_persistence,
    default_scales,
    dfa_fluctuation,
    fit_hurst,
    generate,
    run_stages,
)

from oracles import dfa_polyfit


def fixed_walk(n=256, seed=2024):
    return np.cumsum(np.random.default_rng(seed).standard_normal(n))


# F(n) for the seed-2024 walk at order 2, frozen from the independent
# polyfit-per-window implementation
FROZEN_SCALES = [8, 16, 32, 64]
FROZEN_F = [
    0.44927157519340655,
    1.4832921891444242,
    3.9287733886466687,
    12.203455637754281,
]


class TestFluctuation:
    def test_frozen_values(self):
        r = dfa_fluctuation(fixed_walk(), scales=FROZEN_SCALES, order=2)
        assert r.fluctuations == pytest.approx(FROZEN_F, rel=1e-10)
        assert r.order == 2
        assert r.scales.tolist() == FROZEN_SCALES

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_matches_polyfit_oracle(self, order, rng):
        y = rng.normal(size=400)
        scales = [order + 2, 13, 24, 50, 100]  # includes non-dividing sizes
        scales = [s for s in scales if s >= order + 2]
        mine = dfa_fluctuation(y, scales=scales, order=order).fluctuations
        ref = dfa_polyfit(y, scales, order)
        assert mine == pytest.approx(ref, rel=1e-8)

    def test_linear_series_detrends_to_zero(self):
        y = 5.0 + 2.0 * np.arange(4096, dtype=float)
        r = dfa_fluctuation(y, order=2)
        assert np.all(r.fluctuations / np.abs(y).max() <= 1e-9)

    def test_all_samples_contribute(self):
        # scale 24 does not divide 256; back windows must cover the tail
        y = fixed_walk()
        y2 = y.copy()
        y2[-1] += 50.0  # perturb only the final sample
        a = dfa_fluctuation(y, scales=[24], order=1).fluctuations[0]
        b = dfa_fluctuation(y2, scales=[24], order=1).fluctuations[0]
        assert a != b

    def test_integral_floats_are_ints(self):
        res = dfa_fluctuation(fixed_walk(), scales=[8.0, np.int64(16)], order=2.0)
        assert type(res.order) is int and res.scales.dtype == np.int64
        ref = dfa_fluctuation(fixed_walk(), scales=[8, 16], order=2)
        assert np.array_equal(res.fluctuations, ref.fluctuations)

    def test_scale_bounds(self):
        y = fixed_walk(200)
        with pytest.raises(ScaleOutOfRange):
            dfa_fluctuation(y, scales=[3], order=2)  # below order+2
        with pytest.raises(ScaleOutOfRange):
            dfa_fluctuation(y, scales=[51], order=2)  # above n//4
        dfa_fluctuation(y, scales=[4, 50], order=2)  # both ends inclusive

    def test_bad_args(self):
        with pytest.raises(InvalidParam):
            dfa_fluctuation(fixed_walk(), scales=[8], order=-1)
        with pytest.raises(InvalidParam):
            dfa_fluctuation(fixed_walk(), scales=[])
        # int() alone would truncate 10.7 to 10 and raise a bare ValueError
        # on nan, and np.vander a TypeError on a float order
        for scales in ([10.7, 20.2], [10, np.nan], [10, np.float64(np.inf)]):
            with pytest.raises(InvalidParam, match="scale"):
                dfa_fluctuation(fixed_walk(), scales=scales)
        for order in (1.5, np.nan, np.float64(np.inf)):
            with pytest.raises(InvalidParam, match="order"):
                dfa_fluctuation(fixed_walk(), scales=[8], order=order)
        with pytest.raises(SeriesTooShort):
            dfa_fluctuation(np.array([1.0, 2.0, 3.0]))  # default grid impossible
        # repeated scales leave ln n without variance, so the fit fails, and
        # the report says so in its hurst section
        with pytest.raises(DegenerateFit):
            fit_hurst(dfa_fluctuation(fixed_walk(), scales=[16, 16]))
        stages = run_stages(TimeSeries(fixed_walk()), dfa_scales=[16, 16])
        assert build_report(stages)["hurst"]["error"] == "DegenerateFit"


class TestDefaultScales:
    def test_grid_shape(self):
        s = default_scales(16384)
        assert s[0] == 8 and s[-1] == 16384 // 4
        assert len(s) <= 20
        assert np.all(np.diff(s) > 0)

    def test_high_order_raises_floor(self):
        s = default_scales(4096, order=7)
        assert s[0] == 9  # order + 2

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            default_scales(31)
        assert default_scales(32).tolist() == [8]


class TestHurst:
    def test_white_noise_single_seed(self):
        ts = generate(GeneratorSpec(kind="iid_gaussian", n=8192, seed=1))
        r = fit_hurst(dfa_fluctuation(ts))
        assert r.hurst == pytest.approx(0.5, abs=0.07)
        assert r.fit_r2 > 0.98
        assert r.fit_range[0] >= 8 and r.fit_range[1] <= 8192 // 4

    def test_persistent_noise_single_seed(self):
        ts = generate(GeneratorSpec(kind="fgn", n=8192, seed=1, params={"hurst": 0.8}))
        r = fit_hurst(dfa_fluctuation(ts))
        assert r.hurst == pytest.approx(0.8, abs=0.07)

    def test_fit_range_subsetting(self):
        y = fixed_walk(1024)
        grid = default_scales(1024)
        scales = grid[(grid >= 16) & (grid <= 128)]
        r = fit_hurst(dfa_fluctuation(y, scales=scales, order=2))
        assert 16 <= r.fit_range[0] <= r.fit_range[1] <= 128

    def test_constant_series_degenerate(self):
        # 0.1, 3.7 and 1e-5 have float means an ulp off the value; the
        # deviations are still exactly 0
        for value in (3.0, 0.1, 3.7, 1e-5):
            for scales in ([8, 16], None):
                r = dfa_fluctuation(np.full(256, value), scales=scales, order=1)
                assert np.all(r.fluctuations == 0.0), value
                with pytest.raises(DegenerateFit):
                    fit_hurst(r)

    def test_result_fields_set(self):
        r = fit_hurst(dfa_fluctuation(fixed_walk(512)))
        assert r.hurst is not None and r.fit_r2 is not None
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.hurst = 0.5


class TestClassification:
    def test_labels(self):
        assert classify_persistence(0.5) == "uncorrelated"
        assert classify_persistence(0.5 + 5e-10) == "uncorrelated"  # inside tol
        assert classify_persistence(0.49) == "anti-persistent"
        assert classify_persistence(0.84) == "persistent"

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidParam):
            classify_persistence(float("nan"))
