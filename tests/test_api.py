"""The package's public surface, and the input bounds its constructors hold.

Every range the config enforces lives in the dataclass the Python API
builds, so a direct caller meets the same bound as a config file.
"""

import ast
import dataclasses
import importlib
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

import mwselect as mw
from mwselect import probability
from mwselect.config import PulseEntry, ScanEntry

# removed from the package because nothing outside their own tests used them
_RETIRED = [
    "acceleration",
    "rk4_evolve",
    "evolve",
    "evolve_width",
    "rabi_frequency",
    "d_eigenvalue_dkz",
    "EnergyScale",
    "position_width",
    "detuning_ratio_profile",
    "CONST",  # the five constants are module-level floats of mwselect.constants
]


def test_all_is_unique_and_resolves():
    assert len(mw.__all__) == len(set(mw.__all__))
    for name in mw.__all__:
        assert getattr(mw, name) is not None, name


@pytest.mark.parametrize("name", _RETIRED)
def test_retired_names_are_gone(name):
    assert name not in mw.__all__
    assert not hasattr(mw, name)
    for module in ("breit_rabi", "dynamics", "selection", "probability"):
        assert not hasattr(importlib.import_module(f"mwselect.{module}"), name)


_MODULES = sorted(
    p for p in Path(mw.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = imported - used - {"annotations"}
    if path.stem == "cli":
        # perfbench's tracer test reads cli.resonant_position until the
        # benchmark refresh lets it read the name from breit_rabi instead
        unused.discard("resonant_position")
    assert not unused


def test_wavepacket_state_keeps_no_history():
    fields = {f.name for f in dataclasses.fields(mw.WavepacketState)}
    assert fields == {"z", "v", "dz", "dp", "level", "sigma"}
    assert not hasattr(mw.WavepacketState, "flipped")


# parameters no caller set: a packet's time and the rule order
@pytest.mark.parametrize(
    "func,name",
    [
        (mw.WavepacketState.minimum_uncertainty, "t"),
        (mw.averaged_probability_batch, "order"),
    ],
)
def test_unset_parameters_are_gone(func, name):
    assert name not in inspect.signature(func).parameters


@pytest.mark.parametrize("tau", [1e-300, 0.999e-9, 1.001, 1e300, float("nan")])
def test_pulse_spec_rejects_tau_outside_range(cfg, branch, tau):
    with pytest.raises(ValueError, match=r"outside \[1 ns, 1 s\]"):
        mw.PulseSpec(t0=0.0, tau=tau, omega_A=cfg.species.delta_W, branch=branch)
    with pytest.raises(ValueError, match=r"outside \[1 ns, 1 s\]"):
        mw.PulseSpec.resonant_at(0.0, cfg, t0=0.0, tau=tau, branch=branch)


@pytest.mark.parametrize("tau", [1e-9, 1.0])
def test_pulse_spec_tau_range_is_inclusive(cfg, branch, tau):
    assert mw.PulseSpec.resonant_at(0.0, cfg, t0=0.0, tau=tau, branch=branch).tau == tau


def _ensemble(**changes):
    base = dict(n=2000, z_mean=0.0, z_rms=1e-3, v_mean=0.7192, v_rms=1e-2,
                dz0=3e-6, seed=20260815)
    return mw.EnsembleSpec(**{**base, **changes})


def test_size_cap_is_inclusive():
    assert _ensemble(n=10**7).n == 10**7
    assert ScanEntry(z_min=-1e-2, z_max=1e-2, points=10**7).points == 10**7
    with pytest.raises(ValueError, match="n must be at most 10000000"):
        _ensemble(n=10**7 + 1)
    with pytest.raises(mw.ConfigError, match="points must be at most 10000000"):
        ScanEntry(z_min=-1e-2, z_max=1e-2, points=10**7 + 1)


@pytest.mark.parametrize("z", [2.0, -1.0000001, 1e300])
def test_pulse_entry_rejects_resonant_at_outside_position_range(z):
    with pytest.raises(ValueError, match=r"outside the position range \[-1, 1\] m"):
        PulseEntry(tau=1e-5, t0=0.0, resonant_at=z)


def test_pulse_entry_position_range_is_inclusive():
    for z in (-1.0, 1.0):
        assert PulseEntry(tau=1e-5, t0=0.0, resonant_at=z).resonant_at == z


def test_dz0_and_window_edges():
    for dz0 in (1e-12, 1.0):
        assert _ensemble(dz0=dz0).dz0 == dz0
    for dz0 in (9.9e-13, 1.01):
        with pytest.raises(ValueError, match=r"dz0 must lie in \[1 pm, 1 m\]"):
            _ensemble(dz0=dz0)
    for sigmas in (5.0, 40.0):
        assert mw.QuadratureSettings(window_sigmas=sigmas).window_sigmas == sigmas
    for sigmas in (4.99, 40.01):
        with pytest.raises(ValueError, match=r"window_sigmas must lie in \[5, 40\]"):
            mw.QuadratureSettings(window_sigmas=sigmas)


def test_monte_carlo_rejects_a_1e_300_s_pulse(cfg, pulse_first, pulse_second):
    # this pulse once ran: 4*omega0^2 overflowed, and every atom was lost
    # after a RuntimeWarning instead of an error
    with pytest.raises(ValueError, match=r"outside \[1 ns, 1 s\]"):
        mw.run_monte_carlo(
            _ensemble(), dataclasses.replace(pulse_first, tau=1e-300),
            pulse_second, cfg,
        )


_NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("value", _NON_FINITE)
@pytest.mark.parametrize("key", ["z_mean", "z_rms", "v_mean", "v_rms"])
def test_ensemble_spec_rejects_non_finite_cloud(key, value):
    # z_rms = nan once ran to 0 survivors without a word
    with pytest.raises(ValueError, match="must be finite"):
        _ensemble(**{key: value})


@pytest.mark.parametrize("t0", _NON_FINITE)
def test_pulse_spec_rejects_non_finite_t0(cfg, branch, t0):
    # a second pulse at t0 = nan once gave a NaN selection cell
    with pytest.raises(ValueError, match="t0 = .* s is not finite"):
        mw.PulseSpec(t0=t0, tau=1e-5, omega_A=cfg.species.delta_W, branch=branch)
    with pytest.raises(ValueError, match="t0 = .* s is not finite"):
        mw.PulseSpec.resonant_at(0.0, cfg, t0=t0, tau=1e-5, branch=branch)


@pytest.mark.parametrize(
    "t0", [-1e308, math.nextafter(-1e3, -math.inf), math.nextafter(1e3, math.inf), 1e300]
)
def test_pulse_spec_rejects_t0_outside_range(cfg, branch, t0):
    # t0 = 1e300 s once overflowed the packet spread into a traceback
    with pytest.raises(ValueError, match=r"t0 = .* s is outside \[-1000 s, 1000 s\]"):
        mw.PulseSpec(t0=t0, tau=1e-5, omega_A=cfg.species.delta_W, branch=branch)
    with pytest.raises(ValueError, match=r"t0 = .* s is outside \[-1000 s, 1000 s\]"):
        mw.PulseSpec.resonant_at(0.0, cfg, t0=t0, tau=1e-5, branch=branch)


@pytest.mark.parametrize("t0", [-1e3, 1e3])
def test_pulse_spec_t0_range_is_inclusive(cfg, branch, t0):
    assert mw.PulseSpec.resonant_at(0.0, cfg, t0=t0, tau=1e-5, branch=branch).t0 == t0


def _window_calls(cfg, pulse_first, pulse_second):
    """Every API that takes window_sigmas, as one-argument calls."""
    centers = np.array([0.0, 5e-6])
    return [
        lambda w: mw.QuadratureSettings(window_sigmas=w),
        lambda w: mw.averaged_probability_batch(
            centers, 3e-6, pulse_first, cfg, window_sigmas=w
        ),
        lambda w: probability.averaged_probability_bound(
            centers, centers, 3e-6, pulse_first, cfg, window_sigmas=w
        ),
        lambda w: probability.averaged_probability_bound(
            centers - 1e-6, centers + 1e-6, 3e-6, pulse_first, cfg, window_sigmas=w
        ),
        lambda w: mw.run_monte_carlo(
            _ensemble(), pulse_first, pulse_second, cfg, window_sigmas=w
        ),
    ]


@pytest.mark.parametrize("sigmas", [1.0, 4.99, 40.01, 41.0, float("nan")])
def test_window_outside_range_is_rejected_by_every_api(
    cfg, pulse_first, pulse_second, sigmas
):
    # window_sigmas = 1 once cut a matched cloud's survivors by a third
    for call in _window_calls(cfg, pulse_first, pulse_second):
        with pytest.raises(ValueError, match=r"window_sigmas must lie in \[5, 40\]"):
            call(sigmas)


@pytest.mark.parametrize("sigmas", [5.0, 40.0])
def test_window_range_is_inclusive_for_every_api(
    cfg, pulse_first, pulse_second, sigmas
):
    for call in _window_calls(cfg, pulse_first, pulse_second):
        call(sigmas)
