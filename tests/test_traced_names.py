"""The names the benchmark's per-layer tracer keys on.

``perfbench/tracer.py`` wraps every public function of a layer module that
is defined in that module, and ``perfbench/layers.py`` reads each layer's
figures from the spans of the functions named below.  A name that is gone,
renamed or re-exported from elsewhere gets no span.  A figure that
``layers.py`` reads through ``p50``, ``per_call``, ``per_unit`` or
``iterations`` then has no span to read, and the traced run crashes; one
read through ``calls_per_op`` reads 0.
"""

import dataclasses
import importlib
import types

import pytest

from gaussdp import calib, specfun
from gaussdp.calib import PrivacyBudget, Sensitivity, solve_dp_opt, solve_pdp_opt

TRACED = {
    "calib": (
        "solve_dp_opt", "solve_pdp_opt",
        "sigma_dwork2006", "sigma_dwork2014", "sigma_mech1", "sigma_mech2",
        "sigma_mech3", "sigma_mech4",
        "dp_delta_profile", "pdp_delta_profile", "failure_threshold", "calibrate",
    ),
    "relations": ("sigma_via_cdp_route",),
    "compose": ("effective_unit_sigma", "composed_dp_delta", "composed_pdp_delta"),
    "rng": ("generator", "standard_normal", "standard_normal_rows"),
    "mech": ("histogram_counts",),
    "specfun": ("erfc", "erfcx", "inverfc"),
    "cli": ("main",),
}


@pytest.mark.parametrize(
    "layer, name", [(layer, name) for layer, names in TRACED.items() for name in names],
    ids=lambda value: value,
)
def test_traced_name_is_a_function_of_its_module(layer, name):
    module = importlib.import_module(f"gaussdp.{layer}")
    function = getattr(module, name, None)
    assert isinstance(function, types.FunctionType)
    assert function.__module__ == module.__name__


@pytest.mark.parametrize("solve", [solve_dp_opt, solve_pdp_opt], ids=lambda f: f.__name__)
def test_solver_results_report_iterations_and_noise(solve):
    # the tracer records an int .iterations; the benchmark reads .noise.sigma
    result = solve(PrivacyBudget(1.0, 1e-5), Sensitivity(1.0))
    assert type(result.iterations) is int
    assert "noise" in {field.name for field in dataclasses.fields(result)}
    assert result.noise.sigma > 0.0


def test_solvers_call_specfun_through_calib_bindings(monkeypatch):
    # the tracer sees erfc and erfcx only where calib calls them through
    # these bindings; a private copy in calib would leave the specfun
    # figures empty
    assert calib.erfc is specfun.erfc
    assert calib.erfcx is specfun.erfcx
    counts = dict.fromkeys(("erfc", "erfcx"), 0)
    for name in counts:
        def counted(x, name=name, function=getattr(calib, name)):
            counts[name] += 1
            return function(x)

        monkeypatch.setattr(calib, name, counted)
    solve_dp_opt(PrivacyBudget(1.0, 1e-5), Sensitivity(1.0))
    assert counts["erfcx"] > 0  # dp-opt's residual is built from erfcx
    solve_pdp_opt(PrivacyBudget(1.0, 1e-5), Sensitivity(1.0))
    assert counts["erfc"] > 0  # pdp-opt's is erfc(u) + erfc(s)
