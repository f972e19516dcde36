"""Seeded sampling, the experiments, and the Monte-Carlo privacy-loss oracle."""

import csv
import math
import re
import runpy
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import gaussdp.mech
import gaussdp.rng
from gaussdp.calib import (
    MECHANISM_ORDER,
    Mechanism,
    NoiseScale,
    PrivacyBudget,
    Sensitivity,
    calibrate,
    solve_dp_opt,
    solve_pdp_opt,
)
from gaussdp.mech import (
    ExperimentReport,
    QueryAnswer,
    histogram_counts,
    histogram_experiment,
    mean_experiment,
    privacy_loss_sample,
    privacy_loss_tails,
    randomize,
    read_categorical_counts,
    sample_noise,
    synthetic_census_rows,
    write_categorical_csv,
)
from gaussdp.rng import generator
from test_rng import reference_standard_normal

UNIT = Sensitivity(1.0)

DP_CHAIN = (
    Mechanism.DP_OPT,
    Mechanism.MECH1,
    Mechanism.MECH2,
    Mechanism.DWORK2014,
    Mechanism.DWORK2006,
)


def test_sample_noise_zero_sigma():
    sample = sample_noise(3, 0.0, seed=42)
    assert np.array_equal(sample.values, np.zeros(3))


def test_sample_noise_deterministic():
    a = sample_noise(1000, 1.3, seed=99)
    b = sample_noise(1000, 1.3, seed=99)
    assert np.array_equal(a.values, b.values)
    c = sample_noise(1000, 1.3, seed=100)
    assert not np.array_equal(a.values, c.values)


def test_sample_noise_moments():
    sample = sample_noise(100_000, 1.0, seed=7)
    assert -0.02 <= sample.values.mean() <= 0.02
    assert 0.98 <= sample.values.var() <= 1.02


def test_sample_noise_validation():
    with pytest.raises(ValueError):
        sample_noise(0, 1.0, seed=1)
    with pytest.raises(ValueError):
        sample_noise(3, -1.0, seed=1)
    with pytest.raises(ValueError, match="sigma must be finite and >= 0, got inf"):
        sample_noise(3, float("inf"), seed=1)


def test_randomize_zero_sigma_is_identity():
    answer = QueryAnswer(np.array([1.0, -2.0, 3.5]))
    noisy = randomize(answer, NoiseScale(0.0, Mechanism.DP_OPT), seed=5)
    assert np.array_equal(noisy.values, answer.values)


def test_randomize_additivity_exact():
    answer = QueryAnswer(np.linspace(-1.0, 1.0, 16))
    noise = NoiseScale(0.7, Mechanism.MECH2)
    noisy = randomize(answer, noise, seed=11)
    reference = answer.values + sample_noise(answer.dim, 0.7, seed=11).values
    assert np.array_equal(noisy.values, reference)


def test_randomize_chi_square_expectation():
    # E ||Qtilde - Q||^2 = d sigma^2; 1000 trials at d = 10, sigma = 0.35
    d, sigma, trials = 10, 0.35, 1000
    answer = QueryAnswer(np.arange(1.0, d + 1.0))
    noise = NoiseScale(sigma, Mechanism.DP_OPT)
    total = 0.0
    for t in range(trials):
        noisy = randomize(answer, noise, seed=t)
        total += float(np.sum((noisy.values - answer.values) ** 2))
    mean_sq = total / trials
    assert abs(mean_sq - d * sigma * sigma) <= 0.05 * d * sigma * sigma


# --- privacy-loss sampler ---------------------------------------------------


def test_loss_zero_distance():
    assert privacy_loss_sample(0.0, 1.0, 1.0, 100, seed=1) == 0.0


@pytest.mark.parametrize(
    "distance, sigma, epsilon, message",
    [
        (math.nan, 1.0, 1.0, "distance must be finite and >= 0, got nan"),
        (math.inf, 1.0, 1.0, "distance must be finite and >= 0, got inf"),
        (-1.0, 1.0, 1.0, "distance must be finite and >= 0, got -1.0"),
        (1.0, math.nan, 1.0, "sigma must be finite and positive, got nan"),
        (1.0, math.inf, 1.0, "sigma must be finite and positive, got inf"),
        (1.0, 0.0, 1.0, "sigma must be finite and positive, got 0.0"),
        (1.0, 1.0, math.nan, "epsilon must be finite and >= 0, got nan"),
        (1.0, 1.0, math.inf, "epsilon must be finite and >= 0, got inf"),
        (1.0, 1.0, -0.5, "epsilon must be finite and >= 0, got -0.5"),
    ],
)
def test_loss_rejects_inputs_outside_the_domain(distance, sigma, epsilon, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        privacy_loss_tails(distance, sigma, epsilon, 100, seed=1)


def test_loss_at_zero_epsilon():
    # Pr[|L| > 0] = 1 for a non-degenerate loss
    assert privacy_loss_sample(1.0, 1.0, 0.0, 1000, seed=2) == 1.0


def test_loss_tails_where_the_squares_leave_the_double_range():
    # distance / sigma = 1e400: every loss is +inf, the limit (1, 0)
    assert privacy_loss_tails(1e200, 1e-200, 1.0, 10, seed=1) == (1.0, 0.0)
    # the squares underflow or overflow, the ratio is 1
    unit = privacy_loss_tails(1.0, 1.0, 0.5, 1000, seed=3)
    for scale in (1e-200, 1e200):
        assert privacy_loss_tails(scale, scale, 0.5, 1000, seed=3) == unit


def test_loss_at_pdp_boundary():
    eps, delta, n = 1.0, 0.01, 1_000_000
    sigma = solve_pdp_opt(PrivacyBudget(eps, delta), UNIT).noise.sigma
    got = privacy_loss_sample(1.0, sigma, eps, n, seed=314)
    assert abs(got - delta) <= 3.0 * math.sqrt(delta * (1 - delta) / n)


def test_loss_monotone_in_sigma():
    a = privacy_loss_sample(1.0, 1.0, 1.0, 1_000_000, seed=8)
    b = privacy_loss_sample(1.0, 2.0, 1.0, 1_000_000, seed=8)
    assert b < a


def test_loss_worst_case_at_full_distance():
    # the violation frequency decreases with the output distance S
    at_half = privacy_loss_sample(0.5, 2.0, 1.0, 1_000_000, seed=9)
    at_full = privacy_loss_sample(1.0, 2.0, 1.0, 1_000_000, seed=9)
    assert at_half < at_full


@pytest.mark.parametrize("kind", [Mechanism.PDP_OPT, Mechanism.MECH3, Mechanism.MECH4])
@pytest.mark.parametrize("eps", [0.5, 1.0, 5.0])
@pytest.mark.parametrize("delta", [1e-3, 1e-2])
def test_pdp_empirical_soundness(kind, eps, delta):
    n = 1_000_000
    budget = PrivacyBudget(eps, delta)
    sigma = calibrate(kind, budget, UNIT).sigma
    got = privacy_loss_sample(1.0, sigma, eps, n, seed=1234)
    stderr = math.sqrt(delta * (1 - delta) / n)
    assert got <= delta + 3.0 * stderr


def test_dp_empirical_soundness():
    eps, delta, n = 1.0, 1e-2, 1_000_000
    sigma = solve_dp_opt(PrivacyBudget(eps, delta), UNIT).noise.sigma
    above, below = privacy_loss_tails(1.0, sigma, eps, n, seed=4321)
    got = above - math.exp(eps) * below
    stderr = (
        math.sqrt(
            above * (1 - above)
            + math.exp(2 * eps) * below * (1 - below)
            + 2.0 * math.exp(eps) * above * below
        )
        / math.sqrt(n)
    )
    assert abs(got - delta) <= 3.0 * stderr


# --- mean experiment --------------------------------------------------------


def test_mean_experiment_dp_chain_ordering():
    budget = PrivacyBudget(0.1, 1e-4)
    reports = dict(
        zip(DP_CHAIN, mean_experiment(1000, 10, budget, DP_CHAIN, trials=200, seed=6))
    )
    metrics = [reports[k].metric for k in DP_CHAIN]
    assert all(a < b for a, b in zip(metrics, metrics[1:]))
    for first, second in zip(DP_CHAIN, DP_CHAIN[1:]):
        gap = reports[second].metric - reports[first].metric
        combined = math.hypot(
            reports[first].metric_stderr, reports[second].metric_stderr
        )
        assert gap > combined, (first, second)


def test_mean_experiment_chi_square_magnitude():
    budget = PrivacyBudget(0.5, 1e-4)
    (report,) = mean_experiment(1000, 10, budget, (Mechanism.DP_OPT,), trials=1000, seed=3)
    sigma = calibrate(
        Mechanism.DP_OPT, budget, Sensitivity(math.sqrt(10) / 1000)
    ).sigma
    # reconstruct the empirical mean of squared errors from (mean, stderr)
    mean_sq = report.metric**2 + report.metric_stderr**2 * (report.trials - 1)
    expected = 10 * sigma * sigma
    assert abs(mean_sq - expected) <= 0.10 * expected


def test_sensitivity_halves_exactly_with_doubled_n():
    # Delta = sqrt(d)/n, so doubling n halves Delta and therefore sigma,
    # exactly (all the scalings are by powers of two)
    d, n = 10, 1000
    budget = PrivacyBudget(0.1, 1e-4)
    small = Sensitivity(math.sqrt(d) / (2 * n))
    large = Sensitivity(math.sqrt(d) / n)
    assert small.l2 == large.l2 / 2.0
    for kind in Mechanism:
        assert (
            calibrate(kind, budget, small).sigma
            == calibrate(kind, budget, large).sigma / 2.0
        ), kind


def test_mean_experiment_reproducible():
    budget = PrivacyBudget(0.1, 1e-4)
    a = mean_experiment(200, 5, budget, (Mechanism.MECH1,), trials=20, seed=17)
    b = mean_experiment(200, 5, budget, (Mechanism.MECH1,), trials=20, seed=17)
    assert a == b


def test_mean_experiment_sensitivity_override():
    budget = PrivacyBudget(0.1, 1e-4)
    (a,) = mean_experiment(100, 4, budget, (Mechanism.MECH2,), 10, 0, sensitivity=1.0)
    (b,) = mean_experiment(100, 4, budget, (Mechanism.MECH2,), 10, 0, sensitivity=2.0)
    assert abs(b.metric - 2.0 * a.metric) <= 1e-12 * b.metric


def test_mean_experiment_propagates_domain_errors():
    with pytest.raises(ValueError):
        mean_experiment(100, 4, PrivacyBudget(1, 0.6), (Mechanism.MECH2,), 10, 0)


def test_experiments_reject_a_non_finite_report():
    # every sigma near 1e300 squares beyond the double range in the l2
    # error; at eps 1e-160 the classical sigmas (5e160) do in the MSE
    _, rows = synthetic_census_rows(200, seed=0)
    tiny_eps = PrivacyBudget(1e-160, 1e-5)
    cases = [
        (lambda: mean_experiment(10, 3, PrivacyBudget(1e-300, 1e-300), MECHANISM_ORDER, 3, 0),
         "dwork2006 at sigma=6.441127269719674e+300: its error leaves the double range"),
        (lambda: histogram_experiment(rows, tiny_eps, MECHANISM_ORDER, 3, 0),
         "dwork2006 at sigma=4.940864832300146e+160: its error leaves the double range"),
    ]
    for run, message in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nor does numpy warn on the way
            with pytest.raises(ValueError) as info:
                run()
        assert str(info.value) == message
    # dp-opt's sigma there is about 4e4, and its report stays finite
    (report,) = histogram_experiment(rows, tiny_eps, (Mechanism.DP_OPT,), 3, 0)
    assert math.isfinite(report.metric) and math.isfinite(report.metric_stderr)


# --- histogram experiment ---------------------------------------------------


def test_histogram_counts_cross_product():
    rows = [("a", "x"), ("b", "y"), ("a", "x")]
    counts = histogram_counts(rows)
    # domain is the full cross-product {a,b} x {x,y}, zero cells included
    assert counts.tolist() == [2.0, 0.0, 0.0, 1.0]


def test_histogram_counts_errors():
    with pytest.raises(ValueError):
        histogram_counts([])
    with pytest.raises(ValueError):
        histogram_counts([("a", "x"), ("b",)])


def test_histogram_counts_of_a_count_mapping():
    # a mapping from record to count gives the count vector of its records
    _, rows = synthetic_census_rows(2000, seed=8)
    assert histogram_counts(Counter(rows)).tolist() == histogram_counts(rows).tolist()
    # values compare as their str, so ("a", 1) and ("a", "1") share a cell
    counts = {("a", 1): 2, ("b", "2"): 1, ("a", "1"): 3}
    assert histogram_counts(counts).tolist() == [5.0, 0.0, 0.0, 1.0]


def test_histogram_counts_refuses_a_domain_too_large_before_allocating(monkeypatch):
    # 8 records whose 8 columns all differ span 8^8 cells, over the limit
    rows = [tuple(f"{i}" for _ in range(8)) for i in range(8)]
    monkeypatch.setattr(np, "zeros", lambda *args: pytest.fail("allocated"))
    with pytest.raises(ValueError, match=(
        r"^histogram domain has 16777216 cells \(cross-product of observed values\); "
        r"limit is 10000000$"
    )):
        histogram_counts(rows)


@pytest.mark.parametrize("values", [[[1.0]], [], np.empty((0, 3))], ids=["2-d", "empty", "0x3"])
def test_query_answer_must_be_a_non_empty_vector(values):
    with pytest.raises(ValueError, match=r"^QueryAnswer.values must be a non-empty 1-d vector$"):
        QueryAnswer(values)


@pytest.mark.parametrize("values, shown", [
    ([10**400], "1" + "0" * 400),
    ([1.0, -(10**400)], "-1" + "0" * 400),
    ([math.inf, math.nan], "inf"),
    ([2.0, math.nan], "nan"),
    (np.array([0.5, -np.inf]), "-inf"),
], ids=["huge-int", "huge-negative-int", "inf-nan", "nan", "array-inf"])
def test_query_answer_must_be_finite(values, shown):
    # an int past the double range is named as given, not numpy's OverflowError,
    # and no randomize can add noise to a non-finite answer
    with pytest.raises(ValueError, match=rf"^QueryAnswer.values must be finite, got {shown}$"):
        QueryAnswer(values)


@pytest.mark.parametrize("count", [0, -3, 0.5, math.inf, -math.inf, math.nan])
def test_histogram_counts_rejects_bad_count(count):
    # a fraction is refused as given, not truncated to the count below it
    bound = "an integer >= 1" if count == 0.5 else "finite and positive"
    with pytest.raises(ValueError, match=rf"^count of \('b', 'y'\) must be {bound}, got {count!r}$"):
        histogram_counts({("a", "x"): 2, ("b", "y"): count})


def test_histogram_experiment_of_record_counts():
    # README-sized: the same reports from the records and from their counts
    _, rows = synthetic_census_rows(5000, 6)
    budget = PrivacyBudget(0.1, 1e-6)
    reports = histogram_experiment(rows, budget, MECHANISM_ORDER, 200, 6)
    assert histogram_experiment(Counter(rows), budget, MECHANISM_ORDER, 200, 6) == reports


def test_histogram_mse_magnitude():
    _, rows = synthetic_census_rows(500, seed=4)
    budget = PrivacyBudget(0.5, 1e-6)
    (report,) = histogram_experiment(rows, budget, (Mechanism.MECH4,), trials=1000, seed=5)
    sigma = calibrate(Mechanism.MECH4, budget, UNIT).sigma
    assert abs(report.metric - sigma * sigma) <= 0.10 * sigma * sigma


def test_histogram_dp_chain_ordering():
    _, rows = synthetic_census_rows(2000, seed=6)
    budget = PrivacyBudget(0.1, 1e-6)
    metrics = [
        report.metric
        for report in histogram_experiment(rows, budget, DP_CHAIN, trials=200, seed=2)
    ]
    assert all(a < b for a, b in zip(metrics, metrics[1:]))


def test_histogram_reproducible():
    _, rows = synthetic_census_rows(100, seed=0)
    budget = PrivacyBudget(1.0, 1e-4)
    a = histogram_experiment(rows, budget, (Mechanism.DP_OPT,), trials=10, seed=3)
    b = histogram_experiment(rows, budget, (Mechanism.DP_OPT,), trials=10, seed=3)
    assert a == b


# --- shared runs over several mechanisms -------------------------------------


def _counting_generator(monkeypatch):
    # the generators built by the experiments, and any built by the block
    # draw, which should build none
    calls = []
    real = gaussdp.rng.generator

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(gaussdp.mech, "generator", counting)
    monkeypatch.setattr(gaussdp.rng, "generator", counting)
    return calls


def _recording_rows(monkeypatch):
    # (key, row) of every trial draw made by the experiments
    drawn = []
    real = gaussdp.mech.standard_normal_rows

    def recording(n, seed, keys):
        rows = real(n, seed, keys)
        drawn.extend(zip(keys, rows.copy()))
        return rows

    monkeypatch.setattr(gaussdp.mech, "standard_normal_rows", recording)
    return drawn


def test_mean_experiment_shared_run_matches_single_runs():
    budget = PrivacyBudget(0.3, 1e-5)
    shared = mean_experiment(300, 6, budget, MECHANISM_ORDER, trials=25, seed=9)
    assert [r.mechanism for r in shared] == list(MECHANISM_ORDER)
    for kind, report in zip(MECHANISM_ORDER, shared):
        assert (report,) == mean_experiment(300, 6, budget, (kind,), trials=25, seed=9)
        sens = Sensitivity(math.sqrt(6) / 300)
        assert report.sigma == calibrate(kind, budget, sens).sigma


def test_histogram_experiment_shared_run_matches_single_runs():
    _, rows = synthetic_census_rows(300, seed=8)
    budget = PrivacyBudget(0.2, 1e-6)
    shared = histogram_experiment(rows, budget, MECHANISM_ORDER, trials=25, seed=4)
    assert [r.mechanism for r in shared] == list(MECHANISM_ORDER)
    for kind, report in zip(MECHANISM_ORDER, shared):
        assert (report,) == histogram_experiment(rows, budget, (kind,), trials=25, seed=4)
        assert report.sigma == calibrate(kind, budget, UNIT).sigma


def test_shared_run_rows_match_one_generator_draws(monkeypatch):
    # at d = 700 the first batch of trials 11 and 37 (seed 134) falls short;
    # every trial's row is still the one-generator loop's draw from its own
    # substream, and the only generators built are the datasets', since a
    # short row draws on from the block's own PCG64
    _, rows = synthetic_census_rows(100, seed=1)
    budget = PrivacyBudget(0.5, 1e-4)
    calls = _counting_generator(monkeypatch)
    drawn = _recording_rows(monkeypatch)
    histogram_experiment(rows, budget, MECHANISM_ORDER, trials=7, seed=2)
    mean_experiment(50, 3, budget, MECHANISM_ORDER, trials=7, seed=2)
    mean_experiment(50, 700, budget, MECHANISM_ORDER, trials=40, seed=134)
    assert calls == [(2, 0), (134, 0)]
    seeds = [2] * 14 + [134] * 40
    assert [key for key, _ in drawn] == [*range(1, 8), *range(1, 8), *range(1, 41)]
    for seed, (key, row) in zip(seeds, drawn):
        assert row.tobytes() == reference_standard_normal(row.size, generator(seed, key)).tobytes()


def test_shared_run_calibrates_before_any_work(monkeypatch):
    # mech2 rejects delta >= 0.5, and no data or noise is built before that
    calls = _counting_generator(monkeypatch)
    drawn = _recording_rows(monkeypatch)
    budget = PrivacyBudget(1.0, 0.6)
    with pytest.raises(ValueError, match="delta < 0.5"):
        mean_experiment(50, 3, budget, MECHANISM_ORDER, trials=3, seed=0)
    with pytest.raises(ValueError, match="delta < 0.5"):
        histogram_experiment([()], budget, MECHANISM_ORDER, trials=3, seed=0)
    assert calls == []
    assert drawn == []


def test_experiments_reject_a_single_mechanism():
    budget = PrivacyBudget(0.5, 1e-4)
    with pytest.raises(TypeError):
        mean_experiment(50, 3, budget, Mechanism.DP_OPT, trials=3, seed=0)
    with pytest.raises(TypeError):
        histogram_experiment([("a",)], budget, "mech1", trials=3, seed=0)


def _experiment_runs():
    budget = PrivacyBudget(0.4, 1e-6)
    _, rows = synthetic_census_rows(300, seed=5)
    return (
        (6, lambda: mean_experiment(80, 6, budget, MECHANISM_ORDER, trials=7, seed=13)),
        (48, lambda: histogram_experiment(rows, budget, MECHANISM_ORDER, trials=7, seed=13)),
    )


@pytest.mark.parametrize("block", ["one value", "three rows", "whole run", "three trials"])
def test_experiment_reports_do_not_depend_on_the_block(monkeypatch, block):
    # 7 trials scored one row at a time, in blocks of 3 + 3 + 1 rows (capped
    # by values, or by the 64 values a trial counts as at least), and in one
    # block of all 7 give the default block's reports exactly
    for size, run in _experiment_runs():
        default = run()
        name, value = {
            "one value": ("_BLOCK", 1),
            "three rows": ("_BLOCK", 3 * size),
            "whole run": ("_BLOCK", 7 * size + 1),
            "three trials": ("_BLOCK", 3 * 64),
        }[block]
        with monkeypatch.context() as m:
            m.setattr(gaussdp.mech, name, value)
            assert run() == default


def test_a_trial_counts_as_at_least_64_values_in_a_block(monkeypatch):
    # at one dimension a trial draws 64 uniforms for its one value, so a
    # block holds _BLOCK // 64 trials, not _BLOCK
    blocks = []
    real = gaussdp.mech.standard_normal_rows
    monkeypatch.setattr(gaussdp.mech, "standard_normal_rows",
                        lambda n, seed, keys: blocks.append((n, len(keys))) or real(n, seed, keys))
    budget = PrivacyBudget(0.5, 1e-4)
    mean_experiment(50, 1, budget, (Mechanism.MECH1,), trials=1100, seed=3)
    mean_experiment(50, 700, budget, (Mechanism.MECH1,), trials=100, seed=3)
    assert blocks == [(1, 512), (1, 512), (1, 76), (700, 46), (700, 46), (700, 8)]


def test_experiment_reports_pinned():
    # frozen reports of trial-by-trial scoring, which block scoring must
    # reproduce bit for bit
    budget = PrivacyBudget(0.5, 1e-5)
    kinds = (Mechanism.DP_OPT, Mechanism.MECH3, Mechanism.DWORK2014)
    assert mean_experiment(200, 5, budget, kinds, trials=9, seed=21) == (
        ExperimentReport(Mechanism.DP_OPT, 0.07861821226300647, 9, 0.16217320643157548, 0.021087515628112088),
        ExperimentReport(Mechanism.MECH3, 0.10002074100047179, 9, 0.206322222431675, 0.026828248547891134),
        ExperimentReport(Mechanism.DWORK2014, 0.1083331390493437, 9, 0.22346899041224694, 0.029057856913650874),
    )
    _, rows = synthetic_census_rows(400, seed=2)
    budget = PrivacyBudget(1.0, 1e-6)
    kinds = (Mechanism.PDP_OPT, Mechanism.MECH1, Mechanism.MECH4)
    assert histogram_experiment(rows, budget, kinds, trials=9, seed=5) == (
        ExperimentReport(Mechanism.PDP_OPT, 4.916014274014054, 9, 25.166936474117033, 1.9424157854037165),
        ExperimentReport(Mechanism.MECH1, 4.634136897111424, 9, 22.36360437428458, 1.7260510908750974),
        ExperimentReport(Mechanism.MECH4, 5.218769162926226, 9, 28.36222235462431, 2.189031965309369),
    )


def test_experiment_reports_pinned_at_larger_sizes():
    # frozen reports of trial-by-trial draws, one generator per trial: the
    # README's runs (200 trials, one block each), three blocks of 256 + 256
    # + 88 trials at d = 1, short first batches (d = 700, seed 134, trials
    # 11 and 37) and a five-word seed
    E, M = ExperimentReport, Mechanism
    assert mean_experiment(1000, 10, PrivacyBudget(0.1, 1e-4), MECHANISM_ORDER, 200, 6) == (
        E(M.DWORK2006, 0.14073725556892266, 200, 0.44360162976203144, 0.0063387524221737625),
        E(M.DWORK2014, 0.13735708153051587, 200, 0.43294737402672445, 0.006186510670075455),
        E(M.DP_OPT, 0.07750143482923479, 200, 0.24428331119692584, 0.0034906351254318023),
        E(M.MECH1, 0.10077256265438363, 200, 0.31763354236283836, 0.004538757865015409),
        E(M.MECH2, 0.12549395522975623, 200, 0.39555498535311834, 0.0056521999769365856),
        E(M.PDP_OPT, 0.12304147259959854, 200, 0.38782479843634815, 0.005541741092759765),
        E(M.MECH3, 0.12343638502236452, 200, 0.3890695562202348, 0.005559527797966111),
        E(M.MECH4, 0.1308993520213878, 200, 0.412592711551381, 0.005895656990982061),
        E(M.CDP_ROUTE, 0.1360902118402691, 200, 0.42895422056485116, 0.006129451341433811),
    )
    _, rows = synthetic_census_rows(5000, 6)
    assert histogram_experiment(rows, PrivacyBudget(0.1, 1e-6), MECHANISM_ORDER, 200, 6) == (
        E(M.DWORK2006, 53.86772268905419, 200, 2904.3862029881648, 39.42206235503051),
        E(M.DWORK2014, 52.988025268504735, 200, 2810.2994803748757, 38.14499643252148),
        E(M.DP_OPT, 36.304690426195826, 200, 1319.2363499934704, 17.906371265969472),
        E(M.MECH1, 43.373208661821764, 200, 1882.9562816763273, 25.557902689273675),
        E(M.MECH2, 49.95832285688093, 200, 2498.117341740864, 33.90765922072269),
        E(M.PDP_OPT, 48.918938873948676, 200, 2395.2518789490478, 32.511436953798984),
        E(M.MECH3, 49.01838729676203, 200, 2405.0005019681075, 32.64375779464917),
        E(M.MECH4, 51.327025881905605, 200, 2636.873730501323, 35.79103926303449),
        E(M.CDP_ROUTE, 52.660166125723954, 200, 2775.6300665111467, 37.674418589346885),
    )
    kinds = (M.DP_OPT, M.MECH2, M.DWORK2006)
    assert mean_experiment(100, 1, PrivacyBudget(0.5, 1e-5), kinds, 600, 3) == (
        E(M.DP_OPT, 0.07031826675583602, 600, 0.05345055884082215, 0.0016564193539230668),
        E(M.MECH2, 0.09110506067752643, 600, 0.06925108696648367, 0.002146073740278383),
        E(M.DWORK2006, 0.09881729664600292, 600, 0.0751133378643721, 0.002327743418863654),
    )
    assert mean_experiment(50, 700, PrivacyBudget(0.5, 1e-4), kinds, 40, 134) == (
        E(M.DP_OPT, 3.1186993548563566, 40, 82.23749786272671, 0.33490193719923395),
        E(M.MECH2, 4.252343215806891, 40, 112.13073987941569, 0.4566384311434669),
        E(M.DWORK2006, 4.709969439145112, 40, 124.19796126935248, 0.5057806828550617),
    )
    _, rows = synthetic_census_rows(300, 2**128 + 5)
    assert histogram_experiment(rows, PrivacyBudget(1.0, 1e-5), kinds, 20, 2**128 + 5) == (
        E(M.DP_OPT, 3.7306316348164876, 20, 13.810928409086898, 0.7845522111410901),
        E(M.MECH2, 4.608858083040344, 20, 21.078747800014305, 1.1974124913793518),
        E(M.DWORK2006, 4.940864832300146, 20, 24.225016573648183, 1.3761413972199275),
    )


def test_run_experiments_script(capsys, monkeypatch):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_experiments.py"
    argv = [str(script), "--trials", "3", "--rows", "200", "--seed", "1"]
    monkeypatch.setattr(sys, "argv", argv)
    runpy.run_path(str(script), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    tables = [i for i, line in enumerate(lines) if line.startswith("mechanism")]
    assert len(tables) == 2
    for start in tables:
        rows = [line.split() for line in lines[start + 1 : start + 10]]
        assert [row[0] for row in rows] == [str(kind) for kind in MECHANISM_ORDER]
        assert all(float(row[1]) > 0.0 for row in rows)


# --- categorical record streams ---------------------------------------------


def test_csv_round_trip(tmp_path):
    header, rows = synthetic_census_rows(50, seed=12)
    path = tmp_path / "records.csv"
    write_categorical_csv(path, header, rows)
    assert read_categorical_counts(path) == (header, Counter(rows))


def test_csv_rejects_ragged(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n3\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_categorical_counts(path)


def test_csv_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError):
        read_categorical_counts(path)
    path.write_text("a,b\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_categorical_counts(path)


def _record_loop_read(path):
    # the reference: csv.reader over the file, one record at a time
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty CSV (missing header row)") from None
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            rows.append(tuple(row))
    if not rows:
        raise ValueError(f"{path}: no records after the header row")
    return header, rows


def _read_outcome(read, path):
    try:
        return read(path)
    except ValueError as exc:
        return str(exc)


def _census_text(n_rows):
    header, rows = synthetic_census_rows(n_rows, seed=24)
    return "".join(",".join(row) + "\r\n" for row in [header, *rows])


# Texts without a quote have each distinct line parsed once, repeated or
# not; a quote anywhere has the whole file parsed.  The last four are a
# header line repeated as a record and separators that split a str but not
# a line (U+0085, U+2028 and U+2029, with and without a quote); a
# 10,000-row census is read as well.
_COUNT_TEXTS = {
    "crlf": "a,b\r\n" + "x,1\r\ny,2\r\n" * 3,
    "lf": "a,b\n" + "x,1\ny,2\n" * 3,
    "lone-cr": "a,b\r" + "x,1\ry,2\r" * 3,
    "mixed-endings": "a,b\r\n" + "x,1\ry,2\nx,1\r\n" * 3,
    "no-final-newline": "a,b\n" + "x,1\ny,2\n" * 3 + "x,1",
    "empty-fields": "a,b,c\n" + ",,\nx,,\n" * 3,
    "blank-line": "a,b\n" + "x,1\n" * 3 + "\n" + "x,1\n" * 3,
    "quoted-comma": 'a,b\n' + '"x,y",1\nz,2\n' * 3,
    "quoted-line-break": 'a,b\n' + '"x\ny",1\nz,2\n' * 3,
    "quoted-line-break-then-ragged": 'a,b\n"x\ny",1\nz\n',
    "quote-in-header": '"a",b\n' + "x,1\ny,2\n" * 3,
    "vt-ff-in-fields": "a,b\n" + "x\v,1\fy\ny,2\n" * 3,
    "ragged": "a,b\nx,1\ny\n",
    "ragged-repeated": "a,b\n" + "x,1\n" * 3 + "y\n" + "x,1\n" * 3 + "y\n",
    "all-distinct": "a,b\n" + "".join(f"x{i},{i}\n" for i in range(20)),
    "half-distinct": "a,b\n" + "x,1\n" * 2 + "y,2\n" * 2 + "z,3\n" * 3,
    "empty": "",
    "header-only": "a,b\n",
    "header-as-record": "a,b\n" + "x,1\na,b\n" * 3,
    "header-as-only-record": "a,b\na,b\n",
    "unicode-separators": "a,b\n" + "x\x85y,1\nz\u2028w,2\u2029\n" * 3,
    "unicode-separators-quoted": 'a,b\n' + '"x\x85y",1\nz\u2028w,2\n' * 3,
}


@pytest.mark.parametrize(
    "name", [*_COUNT_TEXTS, "census-10000"], ids=lambda name: name,
)
def test_csv_counts_reader_matches_record_loop(tmp_path, name):
    path = tmp_path / "records.csv"
    text = _COUNT_TEXTS[name] if name in _COUNT_TEXTS else _census_text(10_000)
    path.write_bytes(text.encode("utf-8"))
    want = _read_outcome(_record_loop_read, path)
    if not isinstance(want, str):
        header, rows = want
        want = header, Counter(rows)
    got = _read_outcome(read_categorical_counts, path)
    assert got == want
    if not isinstance(got, str):
        assert all(type(n) is int and n >= 1 for n in got[1].values())


_NOT_UTF8 = {
    # (bytes, line of the first bad byte, as bytes.splitlines counts)
    "lf": (b"a,b\nx,1\ny\xe9,2\nx\xff,1\n", 3),
    "crlf-repeated": (b"a,b\r\n" + b"x,1\r\n" * 3 + b"y\xe9,2\r\n" * 2, 5),
    "lone-cr": (b"a,b\rx,1\rx,1\ry\xc3,2\r", 4),
    "mixed-endings": (b"a,b\r\nx,1\ry,2\nz,\x80\n", 4),
    "in-header": (b"\xe9,b\nx,1\n", 1),
    "quoted-line-break": (b'a,b\n"x\ny",1\nz\xe9,2\n', 4),
    "before-ragged": (b"a,b\nx\nz\xe9,2\n", 3),
}


@pytest.mark.parametrize("data, lineno", _NOT_UTF8.values(), ids=_NOT_UTF8.keys())
def test_csv_not_utf8_names_its_line(tmp_path, data, lineno):
    path = tmp_path / "records.csv"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{lineno}: not valid UTF-8 "):
        read_categorical_counts(path)


def test_synthetic_rows_deterministic():
    first = synthetic_census_rows(200, seed=42)
    second = synthetic_census_rows(200, seed=42)
    assert first == second
    header, rows = first
    assert len(rows) == 200
    assert all(len(row) == len(header) for row in rows)
