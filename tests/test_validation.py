"""Input validation: every rejected count or range is a ValueError that
names the argument and the bound it broke."""

import math

import numpy as np
import pytest

from gaussdp.calib import (
    MECHANISM_ORDER,
    Mechanism,
    NoiseScale,
    PrivacyBudget,
    Sensitivity,
    achieves_dp,
    calibrate,
    compare_grid,
    dp_delta_profile,
    dp_opt_zero_eps,
    failure_threshold,
    pdp_delta_profile,
    solve_dp_opt,
    solve_pdp_opt,
)
from gaussdp.cli import main
from gaussdp.compose import CompositionTerm, composed_dp_delta, composed_pdp_delta
from gaussdp.mech import (
    histogram_counts,
    histogram_experiment,
    mean_experiment,
    privacy_loss_sample,
    privacy_loss_tails,
    sample_noise,
    synthetic_census_rows,
)
from gaussdp.relations import (
    McdpParams,
    ZcdpParams,
    dp_to_pdp,
    mcdp_to_pdp_delta,
    zcdp_of_sigma,
)
from gaussdp.rng import generator, standard_normal, standard_normal_rows

UNIT = Sensitivity(1.0)
BUDGET = PrivacyBudget(1.0, 1e-5)
ROWS = [("a", "x"), ("b", "y")]


def _sigma(value):
    return NoiseScale(value, Mechanism.DP_OPT)


# entry -> (name in the message, call taking the bad value, bound named for
# -1, inf and nan).  A sigma or sensitivity reaches its entry point inside a
# NoiseScale or Sensitivity, which names ">= 0" for those; both allow 0,
# which the entry point itself rejects as not positive.
POSITIVE, NON_NEGATIVE = "finite and positive", "finite and >= 0"
COUNTS = {
    "sample_noise-dim": ("dim", lambda v: sample_noise(v, 1.0, 0)),
    "privacy_loss_tails-n_samples": (
        "n_samples", lambda v: privacy_loss_tails(1.0, 1.0, 1.0, v, 0)),
    "mean_experiment-n": ("n", lambda v: mean_experiment(v, 2, BUDGET, MECHANISM_ORDER, 2, 0)),
    "mean_experiment-d": ("d", lambda v: mean_experiment(10, v, BUDGET, MECHANISM_ORDER, 2, 0)),
    "mean_experiment-trials": (
        "trials", lambda v: mean_experiment(10, 2, BUDGET, MECHANISM_ORDER, v, 0)),
    "histogram_experiment-trials": (
        "trials", lambda v: histogram_experiment(ROWS, BUDGET, MECHANISM_ORDER, v, 0)),
    "synthetic_census_rows-n_rows": ("n_rows", lambda v: synthetic_census_rows(v, 0)),
}
ENTRY_POINTS = {
    **{key: (name, call, POSITIVE) for key, (name, call) in COUNTS.items()},
    "standard_normal-n": ("n", lambda v: standard_normal(v, generator(0)), NON_NEGATIVE),
    "standard_normal_rows-n": (
        "n", lambda v: standard_normal_rows(v, 0, [1, 2]), NON_NEGATIVE),
    "zcdp_of_sigma-sigma": (
        "sigma", lambda v: zcdp_of_sigma(_sigma(v), UNIT), NON_NEGATIVE),
    "zcdp_of_sigma-sens": (
        "l2 sensitivity", lambda v: zcdp_of_sigma(_sigma(1.0), Sensitivity(v)), NON_NEGATIVE),
    "dp_delta_profile-sigma": (
        "sigma", lambda v: dp_delta_profile(_sigma(v), 1.0, UNIT), NON_NEGATIVE),
    "pdp_delta_profile-sigma": (
        "sigma", lambda v: pdp_delta_profile(_sigma(v), 1.0, UNIT), NON_NEGATIVE),
    "achieves_dp-sigma": (
        "sigma", lambda v: achieves_dp(_sigma(v), BUDGET, UNIT), NON_NEGATIVE),
    "dp_delta_profile-sens": (
        "l2 sensitivity", lambda v: dp_delta_profile(_sigma(1.0), 1.0, Sensitivity(v)),
        NON_NEGATIVE),
    "pdp_delta_profile-sens": (
        "l2 sensitivity", lambda v: pdp_delta_profile(_sigma(1.0), 1.0, Sensitivity(v)),
        NON_NEGATIVE),
}


@pytest.mark.parametrize("value", [0, -1, math.inf, math.nan], ids=["0", "-1", "inf", "nan"])
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_bad_number_names_argument_and_bound(entry, value):
    name, call, bound = ENTRY_POINTS[entry]
    if entry.startswith("standard_normal") and value == 0:
        assert call(value).size == 0  # the one count that may be 0
        return
    if value == 0:
        bound = POSITIVE
    with pytest.raises(ValueError) as excinfo:
        call(value)
    assert str(excinfo.value) == f"{name} must be {bound}, got {value!r}"


# every other public entry that takes a number, as above; with
# ENTRY_POINTS these are all of them outside specfun, whose functions
# convert their argument as the math module does
IN_UNIT = "in (0, 1)"
TERM = CompositionTerm(UNIT, 1.0)
NUMBER_ENTRY_POINTS = {
    **ENTRY_POINTS,
    "PrivacyBudget-epsilon": ("epsilon", lambda v: PrivacyBudget(v, 0.1), POSITIVE),
    "PrivacyBudget-delta": ("delta", lambda v: PrivacyBudget(1.0, v), IN_UNIT),
    "Sensitivity-l2": ("l2 sensitivity", Sensitivity, NON_NEGATIVE),
    "NoiseScale-sigma": ("sigma", _sigma, NON_NEGATIVE),
    "dp_delta_profile-epsilon": (
        "epsilon", lambda v: dp_delta_profile(_sigma(1.0), v, UNIT), POSITIVE),
    "pdp_delta_profile-epsilon": (
        "epsilon", lambda v: pdp_delta_profile(_sigma(1.0), v, UNIT), POSITIVE),
    "dp_opt_zero_eps-delta": ("delta", lambda v: dp_opt_zero_eps(v, UNIT), IN_UNIT),
    "solve_dp_opt-tol": ("tol", lambda v: solve_dp_opt(BUDGET, UNIT, v), POSITIVE),
    "solve_pdp_opt-tol": ("tol", lambda v: solve_pdp_opt(BUDGET, UNIT, v), POSITIVE),
    "failure_threshold-F": ("F(delta)", lambda v: failure_threshold(v, 1e-5), POSITIVE),
    "failure_threshold-delta": ("delta", lambda v: failure_threshold(4.0, v), IN_UNIT),
    "compare_grid-eps": ("epsilon", lambda v: compare_grid([v], [1e-5], UNIT), POSITIVE),
    "compare_grid-delta": ("delta", lambda v: compare_grid([1.0], [v], UNIT), IN_UNIT),
    "CompositionTerm-sigma": ("sigma", lambda v: CompositionTerm(UNIT, v), POSITIVE),
    "composed_dp_delta-epsilon": ("epsilon", lambda v: composed_dp_delta([TERM], v), POSITIVE),
    "composed_pdp_delta-epsilon": ("epsilon", lambda v: composed_pdp_delta([TERM], v), POSITIVE),
    "McdpParams-mu": ("mu", lambda v: McdpParams(v, 1.0), NON_NEGATIVE),
    "McdpParams-tau": ("tau", lambda v: McdpParams(0.5, v), POSITIVE),
    "ZcdpParams-rho": ("rho", ZcdpParams, POSITIVE),
    "dp_to_pdp-eps_star": ("eps_star", lambda v: dp_to_pdp(BUDGET, v), POSITIVE),
    "mcdp_to_pdp_delta-epsilon": (
        "epsilon", lambda v: mcdp_to_pdp_delta(McdpParams(0.5, 1.0), v), POSITIVE),
    "sample_noise-sigma": ("sigma", lambda v: sample_noise(3, v, 0), NON_NEGATIVE),
    "privacy_loss_tails-distance": (
        "distance", lambda v: privacy_loss_tails(v, 1.0, 1.0, 10, 0), NON_NEGATIVE),
    "privacy_loss_tails-sigma": (
        "sigma", lambda v: privacy_loss_tails(1.0, v, 1.0, 10, 0), POSITIVE),
    "privacy_loss_tails-epsilon": (
        "epsilon", lambda v: privacy_loss_tails(1.0, 1.0, v, 10, 0), NON_NEGATIVE),
    "privacy_loss_sample-sigma": (
        "sigma", lambda v: privacy_loss_sample(1.0, v, 1.0, 10, 0), POSITIVE),
    "mean_experiment-sensitivity": (
        "l2 sensitivity",
        lambda v: mean_experiment(10, 2, BUDGET, MECHANISM_ORDER, 2, 0, sensitivity=v),
        NON_NEGATIVE),
    "histogram_counts-count": (
        "count of ('a',)", lambda v: histogram_counts({("a",): v}), POSITIVE),
}
# an int of more than sys.get_int_max_str_digits() (4300) digits has no
# repr; its message names its size
TOO_LONG = 10**5000
HUGE_INTS = {
    "1e400": (10**400, repr(10**400)),
    "-1e400": (-(10**400), repr(-(10**400))),
    "1e5000": (TOO_LONG, f"an int of {TOO_LONG.bit_length()} bits"),
    "-1e5000": (-TOO_LONG, f"a negative int of {TOO_LONG.bit_length()} bits"),
}


@pytest.mark.parametrize("value", list(HUGE_INTS))
@pytest.mark.parametrize("entry", list(NUMBER_ENTRY_POINTS))
def test_int_past_the_double_range_names_argument_and_bound(entry, value):
    # math.isfinite and float() raise OverflowError for such an int; the
    # range check refuses it as given, before any float() of it
    name, call, bound = NUMBER_ENTRY_POINTS[entry]
    value, shown = HUGE_INTS[value]
    with pytest.raises(ValueError) as excinfo:
        call(value)
    assert str(excinfo.value) == f"{name} must be {bound}, got {shown}"


def test_cli_huge_count_names_its_bound(capsys):
    argv = ["experiment", "mean", "--n", str(10**400), "--d", "2", "--eps", "1",
            "--delta", "1e-5", "--trials", "2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"gaussdp: error: n must be finite and positive, got {10**400}\n"


SEED_ENTRY_POINTS = {
    "generator": lambda seed: generator(seed, 3),
    "standard_normal_rows": lambda seed: standard_normal_rows(4, seed, [1, 2]),
    "sample_noise": lambda seed: sample_noise(3, 1.0, seed),
    "sample_noise-zero-sigma": lambda seed: sample_noise(3, 0.0, seed),
    "privacy_loss_tails-zero-distance": lambda seed: privacy_loss_tails(0.0, 1.0, 1.0, 10, seed),
    "mean_experiment": lambda seed: mean_experiment(10, 2, BUDGET, MECHANISM_ORDER, 2, seed),
    "histogram_experiment": (
        lambda seed: histogram_experiment(ROWS, BUDGET, MECHANISM_ORDER, 2, seed)),
}


# -10**400 is past any float (math.isfinite of it raises OverflowError), and
# a float is no seed even where it is whole
@pytest.mark.parametrize("seed", [-1, -(10**400), 1.5, 2.0, "3"], ids=repr)
@pytest.mark.parametrize("entry", list(SEED_ENTRY_POINTS))
def test_bad_seed_names_its_bound(entry, seed):
    with pytest.raises(ValueError) as excinfo:
        SEED_ENTRY_POINTS[entry](seed)
    assert str(excinfo.value) == f"seed must be an integer >= 0, got {seed!r}"


@pytest.mark.parametrize("kind", ["mean", "hist"])
def test_cli_bad_seed_names_its_bound(capsys, tmp_path, kind):
    path = tmp_path / "rows.csv"
    path.write_text("a,b\nx,y\n", encoding="utf-8")
    data = ["--n", "10", "--d", "2"] if kind == "mean" else ["--csv", str(path)]
    argv = ["experiment", kind, *data, "--eps", "1", "--delta", "1e-5", "--trials", "2"]
    assert main([*argv, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "gaussdp: error: seed must be an integer >= 0, got -1\n"


def test_huge_seeds_are_seeds():
    # a seed of any width is valid, and never reaches a float check
    for seed in (10**400, TOO_LONG):
        assert sample_noise(3, 1.0, seed).values.tobytes() == (
            standard_normal(3, generator(seed)).tobytes()
        )
        assert standard_normal_rows(3, seed, [5])[0].tobytes() == (
            standard_normal(3, generator(seed, 5)).tobytes()
        )


@pytest.mark.parametrize("entry", list(SEED_ENTRY_POINTS))
def test_negative_seed_too_long_for_repr_names_its_bound(entry):
    with pytest.raises(ValueError) as excinfo:
        SEED_ENTRY_POINTS[entry](-TOO_LONG)
    assert str(excinfo.value) == (
        f"seed must be an integer >= 0, got {HUGE_INTS['-1e5000'][1]}"
    )


@pytest.mark.parametrize("entry", list(COUNTS))
def test_fractional_count_below_one_is_not_the_count_zero(entry):
    # int() truncates 0.5 to 0, which would divide by zero in mean_experiment;
    # the message names the value as given
    name, call = COUNTS[entry]
    with pytest.raises(ValueError, match=rf"^{name} must be an integer >= 1, got 0.5$"):
        call(0.5)


@pytest.mark.parametrize("value", [1.5, 2.5, 2.9999999999999996, 1e15 + 0.5], ids=repr)
@pytest.mark.parametrize("entry", [*COUNTS, "standard_normal-n", "standard_normal_rows-n"])
def test_fractional_count_is_refused_as_given(entry, value):
    # int() would truncate 2.5 to 2 and run with it
    name, call, bound = ENTRY_POINTS[entry]
    lowest = 0 if bound == NON_NEGATIVE else 1
    with pytest.raises(ValueError) as excinfo:
        call(value)
    assert str(excinfo.value) == f"{name} must be an integer >= {lowest}, got {value!r}"


def test_whole_counts_of_any_type_are_counts():
    values = sample_noise(3, 1.0, 0).values.tobytes()
    assert sample_noise(3.0, 1.0, 0).values.tobytes() == values
    assert sample_noise(np.int64(3), 1.0, 0).values.tobytes() == values
    assert standard_normal(np.uint8(0), generator(0)).size == 0
    assert mean_experiment(10, 2, BUDGET, MECHANISM_ORDER, 2.0, 0) == (
        mean_experiment(10, 2, BUDGET, MECHANISM_ORDER, np.int32(2), 0))
    assert mean_experiment(10, 2, BUDGET, MECHANISM_ORDER, 2, 0)[0].trials == 2


def test_fractional_counts_are_not_truncated():
    # each of these used to run on the truncated count
    with pytest.raises(ValueError, match=r"^count of \('a',\) must be an integer >= 1, got 1.5$"):
        histogram_counts({("a",): 1.5, ("b",): 2.9})
    with pytest.raises(ValueError, match=r"^trials must be an integer >= 1, got 2.5$"):
        mean_experiment(10, 2, BUDGET, MECHANISM_ORDER, 2.5, 0)
    with pytest.raises(ValueError, match=r"^dim must be an integer >= 1, got 2.7$"):
        sample_noise(2.7, 1.0, 0)
    with pytest.raises(ValueError, match=r"^trials must be an integer >= 1, got 0.5$"):
        mean_experiment(10, 2, BUDGET, MECHANISM_ORDER, 0.5, 0)


# former ConvergenceErrors at the corners of eps = 10^-k (k = 8..323) by
# nine deltas, and the one that took the most evaluations (1e-308, 1e-300):
# far from the root a short Newton step there said nothing of the distance.
# The last three had dp-opt's negative-branch bound (2 - 2 delta)/(e^eps + 1)
# round to 1.0, outside inverfc_seed's domain
TINY_EPS_AND_DELTA = [
    (1e-20, 1e-300), (1e-20, 1e-310), (1e-30, 5e-324), (1e-47, 1e-50),
    (1e-108, 1e-100), (1e-208, 1e-200), (1e-308, 1e-300), (1e-317, 1e-310),
    (1e-317, 5e-324), (1e-100, 1e-50), (1e-300, 1e-50), (1e-200, 1e-100),
]


@pytest.mark.parametrize("eps, delta", TINY_EPS_AND_DELTA, ids=repr)
def test_dp_opt_at_tiny_eps_and_delta_is_certified_or_named(eps, delta):
    # inside the documented domain: the answer must pass its own profile,
    # and add no more noise than mech1 where mech1 answers, or a ValueError
    # must name the bound
    budget = PrivacyBudget(eps, delta)
    sigmas = {}
    for kind in (Mechanism.DP_OPT, Mechanism.MECH1):
        try:
            sigmas[kind] = calibrate(kind, budget, UNIT)
        except ValueError as exc:
            assert str(exc).startswith("sensitivity 1.0 is too large")
    if Mechanism.DP_OPT in sigmas:
        assert dp_delta_profile(sigmas[Mechanism.DP_OPT], eps, UNIT) <= delta
    if len(sigmas) == 2:
        assert sigmas[Mechanism.DP_OPT].sigma <= sigmas[Mechanism.MECH1].sigma
