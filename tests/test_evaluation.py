import math
import warnings

import numpy as np
import pytest

from eegfx.evaluation import (
    DetectionCounts,
    KdeModel,
    SignificanceReport,
    bayes_error,
    epoch_metrics,
    err0,
    feature_significance,
    fit_kde,
    improvement_rate,
    rank_features,
    significance_csv,
)
from eegfx import evaluation
from eegfx.feature_table import FeatureTable
from oracles import direct_bayes_error, direct_kde_density

# |err_b(binned) - err_b(direct sum)| on the same grid
ORACLE_ATOL = 1e-4


def _matches_direct_sum(model, n_grid=4096):
    err_b = bayes_error(model, n_grid=n_grid)
    assert abs(err_b - direct_bayes_error(model, n_grid)) <= ORACLE_ATOL
    return err_b


def _standardized(rng, n):
    x = rng.standard_normal(n)
    return (x - x.mean()) / x.std(ddof=1)


def _labeled_table(seizure_values, normal_values, name="F"):
    values = np.concatenate([seizure_values, normal_values])
    labels = np.concatenate(
        [np.ones(len(seizure_values), dtype=int), np.zeros(len(normal_values), dtype=int)]
    )
    return FeatureTable(
        records=tuple("r" for _ in values),
        epoch_starts=np.arange(float(len(values))),
        labels=labels,
        feature_names=(name,),
        values=values[:, None],
    )


def test_bandwidth_formula():
    rng = np.random.default_rng(0)
    x = _standardized(rng, 100)
    model = fit_kde((x, x + 5.0))
    expected = 1.06 * 100 ** (-0.2)
    assert model.bandwidths[0] == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.4222, abs=5e-4)


def test_default_priors_follow_counts():
    rng = np.random.default_rng(1)
    model = fit_kde((rng.standard_normal(100), rng.standard_normal(300)))
    assert model.priors == pytest.approx((0.25, 0.75))


def test_explicit_priors_override_counts():
    rng = np.random.default_rng(2)
    model = fit_kde((rng.standard_normal(50), rng.standard_normal(50)), priors=(0.1, 0.9))
    assert model.priors == (0.1, 0.9)


def test_fit_kde_input_validation():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(50)
    with pytest.raises(ValueError, match="two classes"):
        fit_kde((x,))
    with pytest.raises(ValueError, match="at least 2"):
        fit_kde((x, np.array([1.0])))
    with pytest.raises(ValueError, match="finite"):
        fit_kde((x, np.array([1.0, np.nan, 2.0])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            fit_kde((x, np.array([1.0, np.inf, 2.0])))
    with pytest.raises(ValueError, match="priors"):
        fit_kde((x, x), priors=(0.7, 0.7))


def test_model_validation():
    x = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="bandwidths"):
        KdeModel(class_samples=(x, x), bandwidths=(0.0, 1.0), priors=(0.5, 0.5))
    with pytest.raises(ValueError, match="bandwidths"):
        KdeModel(class_samples=(x, x), bandwidths=(math.inf, 1.0), priors=(0.5, 0.5))
    with pytest.raises(ValueError, match="non-finite"):
        KdeModel(class_samples=(x, np.array([0.0, -np.inf])), bandwidths=(1.0, 1.0),
                 priors=(0.5, 0.5))
    with pytest.raises(ValueError, match="priors"):
        KdeModel(class_samples=(x, x), bandwidths=(1.0, 1.0), priors=(-0.5, 1.5))


def test_each_class_density_integrates_to_one():
    rng = np.random.default_rng(4)
    model = fit_kde((rng.standard_normal(500), 2.0 + 0.5 * rng.standard_normal(400)))
    grid = model.evaluation_grid()
    for i in (0, 1):
        dens = model.density(i)
        assert np.all(dens >= 0.0)
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-3)


def test_mixture_density_integrates_to_one():
    rng = np.random.default_rng(5)
    model = fit_kde((rng.standard_normal(300), rng.standard_normal(600) - 1.0))
    grid = model.evaluation_grid()
    mix = model.priors[0] * model.density(0) + model.priors[1] * model.density(1)
    assert 0.995 <= np.trapezoid(mix, grid) <= 1.005


def test_grid_density_tracks_the_direct_sum():
    rng = np.random.default_rng(17)
    model = fit_kde((rng.standard_normal(300), rng.lognormal(0.0, 1.0, 700)))
    grid = model.evaluation_grid(1024)
    for i in (0, 1):
        want = direct_kde_density(model.class_samples[i], model.bandwidths[i], grid)
        got = model.density(i, 1024)
        assert got.shape == grid.shape
        assert np.max(np.abs(got - want)) <= 1e-3 * want.max()


def test_grid_needs_two_points():
    model = fit_kde((np.array([0.0, 1.0]), np.array([2.0, 3.0])))
    with pytest.raises(ValueError, match="2 points"):
        model.evaluation_grid(1)
    with pytest.raises(ValueError, match="2 points"):
        bayes_error(model, n_grid=1)


def test_identical_sample_sets_hit_min_prior():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(400)
    for p in (0.5, 0.25, 0.1):
        model = fit_kde((x, x), priors=(p, 1.0 - p))
        assert _matches_direct_sum(model) == pytest.approx(min(p, 1.0 - p), abs=1e-3)


def test_well_separated_classes_have_negligible_error():
    rng = np.random.default_rng(7)
    a = rng.standard_normal(300)
    model = fit_kde((a, a + 200.0))
    assert _matches_direct_sum(model) < 1e-4


def test_two_gaussians_at_plus_minus_one():
    rng = np.random.default_rng(8)
    model = fit_kde((rng.standard_normal(4000) - 1.0, rng.standard_normal(4000) + 1.0))
    # analytic Bayes error of the true mixture is Phi(-1) = 0.15866
    assert _matches_direct_sum(model) == pytest.approx(0.15866, abs=0.02)


def test_error_invariant_under_monotone_rescaling():
    rng = np.random.default_rng(9)
    a = rng.standard_normal(2000) - 0.5
    b = rng.standard_normal(2000) + 0.5
    raw = _matches_direct_sum(fit_kde((a, b)))
    affine = _matches_direct_sum(fit_kde((-2.0 * a + 3.0, -2.0 * b + 3.0)))
    assert abs(raw - affine) < 1e-12
    for warp in (lambda x: x + 0.1 * np.tanh(x), lambda x: np.exp(0.2 * x)):
        warped = _matches_direct_sum(fit_kde((warp(a), warp(b))))
        assert abs(raw - warped) < 2e-3


def test_grid_refinement_is_converged():
    rng = np.random.default_rng(10)
    model = fit_kde((rng.standard_normal(1000), rng.standard_normal(1000) + 0.7))
    coarse = _matches_direct_sum(model, n_grid=4096)
    assert abs(coarse - _matches_direct_sum(model, n_grid=8192)) < 1e-4


def test_identical_distributions_never_beat_min_prior_by_much():
    rng = np.random.default_rng(11)
    for _ in range(5):
        model = fit_kde((rng.standard_normal(500), rng.standard_normal(500)))
        assert _matches_direct_sum(model) <= 0.5 + 2e-2


def test_zero_variance_class_uses_fallback_bandwidth():
    rng = np.random.default_rng(12)
    flat = np.full(50, 5.0)
    spread = rng.uniform(0.0, 10.0, size=200)
    model = fit_kde((flat, spread))
    assert model.bandwidths[0] == pytest.approx(1e-3 * 10.0, rel=0.2)
    err = _matches_direct_sum(model)
    assert math.isfinite(err)
    assert 0.0 <= err <= 1.0


def test_err0_matches_published_arithmetic():
    assert round(err0(4677, 263424), 4) == 0.0174
    with pytest.raises(ValueError):
        err0(0, 100)
    with pytest.raises(ValueError):
        err0(100, 0)


def test_improvement_rate_endpoints():
    assert improvement_rate(0.2, 0.2) == 0.0
    assert improvement_rate(0.0, 0.2) == 100.0
    with pytest.raises(ValueError):
        improvement_rate(0.1, 0.0)


def test_report_validation():
    with pytest.raises(ValueError):
        SignificanceReport("F", "L", err_b=1.5, err_0=0.5, rate=0.0, significant=False)
    with pytest.raises(ValueError):
        SignificanceReport("F", "L", err_b=0.5, err_0=0.0, rate=0.0, significant=False)


def test_significance_of_identical_feature_is_near_zero():
    rng = np.random.default_rng(13)
    shared = rng.standard_normal(300)
    report = feature_significance(_labeled_table(shared, shared.copy(), name="VarL"), "Var", "L")
    assert abs(report.rate) < 0.5
    assert not report.significant


def test_significance_of_label_plus_noise_is_high():
    rng = np.random.default_rng(14)
    seizure = 1.0 + 0.01 * rng.standard_normal(100)
    normal = 0.01 * rng.standard_normal(400)
    report = feature_significance(_labeled_table(seizure, normal), "F")
    assert abs(report.err_b - direct_bayes_error(fit_kde((seizure, normal)))) <= ORACLE_ATOL
    assert report.rate > 90.0
    assert report.significant
    assert report.err_0 == pytest.approx(100 / 500)


def test_significance_err0_comes_from_table_counts():
    rng = np.random.default_rng(15)
    report = feature_significance(
        _labeled_table(rng.standard_normal(40), rng.standard_normal(160)), "F"
    )
    assert report.err_0 == pytest.approx(err0(40, 160))


def test_significance_rejects_bad_columns():
    rng = np.random.default_rng(16)
    table = _labeled_table(rng.standard_normal(10), rng.standard_normal(10))
    with pytest.raises(KeyError):
        feature_significance(table, "Missing", "L")
    nan_table = _labeled_table(np.array([np.nan, 1.0, 2.0]), rng.standard_normal(10))
    with pytest.raises(ValueError, match="feature F: .*non-finite"):
        feature_significance(nan_table, "F")


def _scale_pair():
    # 50 N(0, 1) seizure values against 400 N(1, 1) normal ones
    rng = np.random.default_rng(0)
    return rng.normal(0.0, 1.0, 50), rng.normal(1.0, 1.0, 400)


def test_err_b_is_invariant_under_power_of_two_scaling():
    seizure, normal = _scale_pair()
    unit = feature_significance(_labeled_table(seizure, normal), "F").err_b
    assert unit == 0.11111108349479876
    exponents = sorted(set(range(-1000, 1001, 7)) | {-1000, -501, -500, 500, 510, 1000})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = {
            k: feature_significance(
                _labeled_table(np.ldexp(seizure, k), np.ldexp(normal, k)), "F"
            ).err_b
            for k in exponents
        }
    assert {k: v for k, v in scaled.items() if v != unit} == {}


def test_decimal_extremes_score_like_unit_scale():
    # 1e-300 used to fall back to the zero-variance bandwidth (0.0806) and
    # 1e307 to refuse the bandwidth; a decimal scale rounds each value
    seizure, normal = _scale_pair()
    unit = feature_significance(_labeled_table(seizure, normal), "F").err_b
    for scale in (1e-300, 1e-310, 1e300, 1e307):
        table = _labeled_table(seizure * scale, normal * scale)
        assert feature_significance(table, "F").err_b == pytest.approx(unit, rel=1e-9)


def test_column_inside_the_magnitude_window_is_fitted_once(monkeypatch):
    seizure, normal = _scale_pair()
    calls = []

    def spy(classes, priors=None):
        calls.append(max(float(np.abs(c).max()) for c in classes))
        return fit_kde(classes, priors)

    monkeypatch.setattr(evaluation, "fit_kde", spy)
    for k in (-500, 0, 497):  # the largest |value| is about 4
        calls.clear()
        feature_significance(_labeled_table(np.ldexp(seizure, k), np.ldexp(normal, k)), "F")
        assert len(calls) == 1
    calls.clear()
    feature_significance(_labeled_table(np.ldexp(seizure, 600), np.ldexp(normal, 600)), "F")
    assert len(calls) == 2 and 0.5 <= calls[1] < 1.0


def _ranking_table():
    rng = np.random.default_rng(3)
    labels = np.repeat([0, 1], 40)
    shared = rng.standard_normal(80) + labels
    broken = rng.standard_normal(80)
    broken[5] = np.nan
    infinite = rng.standard_normal(80)
    infinite[7] = np.inf
    columns = {
        "BL": shared, "BrokenR": broken, "AL": shared, "Weak": rng.standard_normal(80),
        "Inf": infinite, "StrongR": rng.standard_normal(80) + 3 * labels,
    }
    return FeatureTable(
        records=("r",) * 80,
        epoch_starts=np.arange(80.0),
        labels=labels,
        feature_names=tuple(columns),
        values=np.column_stack(list(columns.values())),
    )


def test_rank_features_orders_by_rate_then_column_name():
    table = _ranking_table()
    reports, skipped = rank_features(table)
    assert [f"{r.feature_id}{r.hemisphere}" for r in reports] == ["StrongR", "AL", "BL", "Weak"]
    assert [(r.feature_id, r.hemisphere) for r in reports[1:3]] == [("A", "L"), ("B", "L")]
    assert reports[1].rate == reports[2].rate
    for r in reports:
        assert r == feature_significance(table, r.feature_id, r.hemisphere)


def test_rank_features_skips_with_the_refusal_message():
    table = _ranking_table()
    _, skipped = rank_features(table)
    assert list(skipped) == ["BrokenR", "Inf"]
    for column, (feature, side) in zip(skipped, (("Broken", "R"), ("Inf", ""))):
        with pytest.raises(ValueError) as exc:
            feature_significance(table, feature, side)
        assert skipped[column] == str(exc.value)
        assert skipped[column].startswith(f"feature {column}: ")


def test_rank_features_passes_threshold_and_grid():
    table = _ranking_table()
    reports, _ = rank_features(table, threshold=1000.0, n_grid=512)
    assert not any(r.significant for r in reports)
    assert reports[0] == feature_significance(table, "Strong", "R", 1000.0, 512)


@pytest.mark.parametrize("n_seizure, n_normal", [(1, 30), (30, 1), (0, 30), (30, 0)])
def test_rank_features_refuses_a_class_under_two_epochs(n_seizure, n_normal, monkeypatch):
    rng = np.random.default_rng(17)
    table = _labeled_table(rng.standard_normal(n_seizure), rng.standard_normal(n_normal), "MeanL")
    monkeypatch.setattr(evaluation, "feature_significance", None)  # never reached
    with pytest.raises(ValueError) as exc:
        rank_features(table)
    message = str(exc.value)
    assert "both classes" in message
    assert f"{n_seizure} seizure and {n_normal} normal epochs" in message
    assert "MeanL" not in message


def test_significance_csv_shape():
    report = SignificanceReport("Energy", "L", err_b=0.01, err_0=0.02, rate=50.0, significant=True)
    text = significance_csv([report])
    assert text.splitlines()[0] == "feature,hemisphere,err_b,err_0,rate,significant"
    assert text.splitlines()[1] == "Energy,L,0.01,0.02,50,true"


def test_epoch_metrics_arithmetic():
    assert epoch_metrics(DetectionCounts(tp=3, fp=1, fn=2, tn=4)) == (0.7, 0.6, 0.8)


def test_epoch_metrics_perfect_detector():
    assert epoch_metrics(DetectionCounts(tp=10, fp=0, fn=0, tn=90)) == (1.0, 1.0, 1.0)


def test_epoch_metrics_all_normal_detector():
    acc, sen, spec = epoch_metrics(DetectionCounts(tp=0, fp=0, fn=25, tn=75))
    assert acc == 0.75
    assert sen == 0.0
    assert spec == 1.0


def test_epoch_metrics_guards():
    with pytest.raises(ValueError, match="denominator"):
        epoch_metrics(DetectionCounts(tp=0, fp=0, fn=0, tn=10))
    with pytest.raises(ValueError):
        DetectionCounts(tp=-1, fp=0, fn=0, tn=0)
    with pytest.raises(ValueError):
        DetectionCounts(tp=1.5, fp=0, fn=0, tn=0)
