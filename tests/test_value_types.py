"""The value types' contract: PrivacyBudget, Sensitivity and NoiseScale are
frozen dataclasses whose own __init__ checks and stores each field.
CalibrationResult, the solvers' result, is built the same way, with no
check."""

import copy
import dataclasses
import importlib
import inspect
import math
import pickle
import pkgutil
import random
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import gaussdp
from gaussdp.calib import (
    MECHANISM_ORDER,
    CalibrationResult,
    Mechanism,
    NoiseScale,
    PrivacyBudget,
    Sensitivity,
    calibrate,
    dp_delta_profile,
    dp_opt_zero_eps,
    failure_threshold,
    pdp_delta_profile,
    solve_dp_opt,
    solve_pdp_opt,
)
from gaussdp.compose import (
    CompositionTerm,
    composed_dp_delta,
    composed_pdp_delta,
    effective_unit_sigma,
)
from gaussdp.relations import (
    McdpParams,
    dp_to_pdp,
    mcdp_to_pdp_delta,
    sigma_via_cdp_route,
    zcdp_of_sigma,
)

# (type, positional arguments, repr of the value they build)
VALUES = [
    (PrivacyBudget, (1.0, 1e-5), "PrivacyBudget(epsilon=1.0, delta=1e-05)"),
    (Sensitivity, (2.5,), "Sensitivity(l2=2.5)"),
    (NoiseScale, (1.0, Mechanism.DP_OPT),
     "NoiseScale(sigma=1.0, kind=<Mechanism.DP_OPT: 'dp-opt'>)"),
    (CalibrationResult, (NoiseScale(1.0, Mechanism.DP_OPT), 0.5, 0.0, 2.0, 3, -1e-17),
     "CalibrationResult(noise=NoiseScale(sigma=1.0, kind=<Mechanism.DP_OPT: 'dp-opt'>), "
     "root=0.5, bracket_low=0.0, bracket_high=2.0, iterations=3, residual=-1e-17)"),
]
IDS = [cls.__name__ for cls, _, _ in VALUES]


def _keywords(cls, args):
    return dict(zip((field.name for field in dataclasses.fields(cls)), args))


@pytest.mark.parametrize("cls, args, text", VALUES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, args, text):
    value = cls(*args)
    assert value == cls(**_keywords(cls, args))
    assert tuple(getattr(value, field.name) for field in dataclasses.fields(cls)) == args
    assert repr(value) == text


@pytest.mark.parametrize("cls, args, text", VALUES, ids=IDS)
def test_equality_and_hash_agree(cls, args, text):
    value = cls(*args)
    same = cls(*args)
    assert value is not same
    assert value == same and hash(value) == hash(same)
    assert len({value, same}) == 1
    assert value != args  # never equal to the tuple of its fields


def test_budget_is_not_a_tuple():
    assert PrivacyBudget(1, 1e-5) != (1, 1e-5)
    assert PrivacyBudget(1.0, 1e-5) != PrivacyBudget(1.0, 2e-5)


@pytest.mark.parametrize("cls, args, text", VALUES, ids=IDS)
def test_every_assignment_and_deletion_is_refused(cls, args, text):
    value = cls(*args)
    name = dataclasses.fields(cls)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, name, args[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(value, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        value.unknown = 1.0
    assert value == cls(*args)


@pytest.mark.parametrize("cls, args, text", VALUES, ids=IDS)
def test_pickle_and_copies_round_trip(cls, args, text):
    value = cls(*args)
    for twin in (
        pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)
    ):
        assert type(twin) is cls
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == text


@pytest.mark.parametrize("cls, args, text", VALUES, ids=IDS)
def test_fields_and_asdict(cls, args, text):
    # asdict turns a nested value (a result's noise) into its dict too
    assert dataclasses.asdict(cls(*args)) == {
        name: dataclasses.asdict(arg) if dataclasses.is_dataclass(arg) else arg
        for name, arg in _keywords(cls, args).items()
    }


@pytest.mark.parametrize(
    "value, change, message",
    [
        (PrivacyBudget(1.0, 1e-5), {"delta": 2.0}, "delta must be in (0, 1), got 2.0"),
        (PrivacyBudget(1.0, 1e-5), {"epsilon": -1.0},
         "epsilon must be finite and positive, got -1.0"),
        (Sensitivity(1.0), {"l2": math.inf},
         "l2 sensitivity must be finite and >= 0, got inf"),
        (NoiseScale(1.0, Mechanism.MECH1), {"sigma": -0.5},
         "sigma must be finite and >= 0, got -0.5"),
    ],
    ids=["delta", "epsilon", "l2", "sigma"],
)
def test_replace_runs_the_check(value, change, message):
    with pytest.raises(ValueError) as caught:
        dataclasses.replace(value, **change)
    assert str(caught.value) == message


def test_replace_keeps_the_other_fields():
    budget = dataclasses.replace(PrivacyBudget(1.0, 1e-5), delta=1e-3)
    assert budget == PrivacyBudget(1.0, 1e-3)


@pytest.mark.parametrize("solve", [solve_dp_opt, solve_pdp_opt], ids=lambda f: f.__name__)
def test_replace_plants_a_sigma_in_a_solver_result(solve):
    # how a test swaps the noise of a real solve for a lower one
    result = solve(PrivacyBudget(1.0, 1e-5), Sensitivity(1.0))
    low = NoiseScale(0.99 * result.noise.sigma, result.noise.kind)
    planted = dataclasses.replace(result, noise=low)
    assert type(planted) is CalibrationResult
    assert vars(planted) == {**vars(result), "noise": low}
    assert planted != result


def _draw(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _assert_plain(noise):
    # exactly what the constructor builds from the same fields, and no more
    assert type(noise) is NoiseScale
    assert NoiseScale(noise.sigma, noise.kind) == noise
    assert vars(noise) == {"sigma": noise.sigma, "kind": noise.kind}
    assert type(noise.kind) is Mechanism


@pytest.mark.parametrize("kind", MECHANISM_ORDER, ids=str)
def test_calibrate_returns_plain_noise_scales(kind):
    # the calib-stream ranges: eps, delta and sensitivity log-uniform on
    # [1e-2, 50], [1e-12, 1e-1] and [1e-3, 1e3]
    rng = random.Random(17)
    for _ in range(300):
        budget = PrivacyBudget(_draw(rng, 1e-2, 50.0), _draw(rng, 1e-12, 1e-1))
        noise = calibrate(kind, budget, Sensitivity(_draw(rng, 1e-3, 1e3)))
        assert noise.kind is kind
        assert noise.sigma >= sys.float_info.min
        _assert_plain(noise)
    zero = calibrate(kind, PrivacyBudget(1.0, 1e-5), Sensitivity(0.0))
    assert zero.sigma == 0.0
    _assert_plain(zero)


# reals that are not Python floats, each made from a float's repr; numpy's
# float32 and float16 would, as given, turn the arithmetic into their own
# (NEP 50), and Decimal meets float arithmetic with a TypeError
_REALS = {"float32": np.float32, "float16": np.float16, "float64": np.float64,
          "Decimal": Decimal, "Fraction": Fraction}
# (eps, delta, sensitivity), each representable in float16
_REAL_INPUTS = [(0.3, 1e-5, 2.5), (3.7, 0.2, 1e-3), (42.0, 1e-4, 700.0)]


@pytest.mark.parametrize("real", _REALS.values(), ids=_REALS.keys())
@pytest.mark.parametrize("kind", MECHANISM_ORDER, ids=str)
def test_calibrate_computes_a_real_input_as_its_double(kind, real):
    for values in _REAL_INPUTS:
        given = [real(repr(value)) for value in values]
        doubles = [float(value) for value in given]
        sigma = calibrate(kind, PrivacyBudget(*given[:2]), Sensitivity(given[2])).sigma
        assert type(sigma) is float
        expected = calibrate(kind, PrivacyBudget(*doubles[:2]), Sensitivity(doubles[2])).sigma
        assert sigma.hex() == expected.hex()


@pytest.mark.parametrize("make", [
    lambda: PrivacyBudget(Fraction(1, 10**400), 1e-5),
    lambda: PrivacyBudget(1.0, Fraction(1, 10**400)),
    lambda: PrivacyBudget(1.0, Decimal("0.99999999999999999999")),
], ids=["eps-to-0", "delta-to-0", "delta-to-1"])
def test_real_checked_as_its_double(make):
    # in range as given, but its double is not: the double is what is computed
    with pytest.raises(ValueError, match=r"must be (finite and positive|in \(0, 1\))"):
        make()


def _entry_results(number):
    # every profile, compose and relations entry, each real argument made by number
    eps, sens = number(0.3), Sensitivity(number(2.5))
    budget, noise = PrivacyBudget(eps, number(1e-5)), NoiseScale(number(1.7), Mechanism.DP_OPT)
    terms = [CompositionTerm(sens, number(1.7)), CompositionTerm(Sensitivity(number(1.0)),
                                                                 number(4.2))]
    converted = dp_to_pdp(budget, number(0.9))
    return [
        budget.epsilon, budget.delta, sens.l2, noise.sigma, terms[0].sigma,
        dp_delta_profile(noise, eps, sens), pdp_delta_profile(noise, eps, sens),
        dp_opt_zero_eps(number(1e-5), sens).sigma, failure_threshold(number(2.1), number(1e-5)),
        effective_unit_sigma(terms), composed_dp_delta(terms, eps),
        composed_pdp_delta(terms, eps), converted.epsilon, converted.delta,
        mcdp_to_pdp_delta(McdpParams(number(0.2), number(0.6)), number(1.5)),
        sigma_via_cdp_route(budget, sens).sigma, zcdp_of_sigma(noise, sens).rho,
    ]


@pytest.mark.parametrize("real", _REALS.values(), ids=_REALS.keys())
def test_entries_compute_a_real_input_as_its_double(real):
    results = _entry_results(lambda value: real(repr(value)))
    assert [type(result) for result in results] == [float] * len(results)
    expected = _entry_results(lambda value: float(real(repr(value))))
    assert [r.hex() for r in results] == [r.hex() for r in expected]


def _own_init_dataclasses():
    """Every dataclass defined in a gaussdp module that writes its own
    __init__ (init=False)."""
    found = []
    for info in pkgutil.iter_modules(gaussdp.__path__):
        module = importlib.import_module(f"gaussdp.{info.name}")
        for cls in vars(module).values():
            if (
                inspect.isclass(cls)
                and cls.__module__ == module.__name__
                and dataclasses.is_dataclass(cls)
                and not cls.__dataclass_params__.init
            ):
                found.append(cls)
    return found


def test_own_init_dataclasses_are_found():
    assert {PrivacyBudget, Sensitivity, NoiseScale, CalibrationResult} <= set(
        _own_init_dataclasses()
    )


@pytest.mark.parametrize("cls", _own_init_dataclasses(), ids=lambda cls: cls.__name__)
def test_own_init_takes_the_fields_in_order(cls):
    # dataclasses.replace passes every field by keyword, and positional
    # construction follows the field order: both break silently if a field
    # is added to only one of __init__ and the class body
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    assert [param.name for param in params] == [
        field.name for field in dataclasses.fields(cls)
    ]
    assert all(param.kind is param.POSITIONAL_OR_KEYWORD for param in params)
