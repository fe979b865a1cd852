"""Figure 5: thermal quench profiles — n_e, J, E, T_e vs time.

Paper behaviour: the prescribed sinusoidal density ramp is conserved
exactly (5x injected mass); the electron temperature collapses during the
cold pulse; E (= eta_Spitzer J) rises as the plasma cools; the current
decays during the quench and then slowly *rises* from field acceleration.

This bench runs a reduced configuration (shorter pulse, looser Newton
tolerance) of the full experiment recorded in EXPERIMENTS.md.
"""

import numpy as np
import pytest

from repro.quench import ThermalQuenchModel
from repro.quench.source import ColdPlasmaSource
from repro.report import ascii_plot


def _run():
    model = ThermalQuenchModel(dt=0.5, rtol=1e-5)
    model.source.duration = 6.0
    model._source_shapes = model.source.shape_vectors(model.fs)
    hist = model.run(ramp_steps=10, quench_steps=12, post_steps=4)
    return model, hist


def test_fig5_quench_profiles(benchmark):
    model, hist = benchmark.pedantic(_run, rounds=1, iterations=1)
    a = hist.as_arrays()
    print()
    norm = {
        "n_e/6": a["n_e"] / 6.0,
        "T_e": a["T_e"],
        "J/J0": a["J"] / max(abs(a["J"]).max(), 1e-30),
        "E/Emax": a["E"] / max(abs(a["E"]).max(), 1e-30),
    }
    print(
        ascii_plot(
            a["t"],
            norm,
            width=64,
            height=14,
            title="Fig. 5 — thermal quench profiles (normalized)",
        )
    )
    i_q = hist.phase.index("quench")

    # density: prescribed sinusoidal ramp, total 5x injected
    assert a["n_e"][0] == pytest.approx(1.0, abs=0.02)
    assert a["n_e"][-1] == pytest.approx(6.0, abs=0.1)
    mid = a["n_e"][(i_q + len(a["t"])) // 2]
    assert 1.0 < mid < 6.0  # smooth ramp, not a jump

    # temperature collapse
    assert a["T_e"][i_q - 1] > 0.9
    assert a["T_e"][-1] < 0.45

    # E rises in magnitude as the plasma cools (eta ~ T^-3/2)
    assert abs(a["E"][-1]) > abs(a["E"][i_q])

    # J decays during the quench but never reverses sign
    J_ramp = a["J"][i_q - 1]
    assert a["J"][-1] < J_ramp
    assert np.all(a["J"][1:] > -0.15 * abs(J_ramp))

    # the initial field is 0.5 E_c
    assert a["E"][0] == pytest.approx(0.5 * model.E_c)


def test_density_conservation_against_source():
    """'The electron density is conserved exactly and thus ... the profile
    n_e is the prescribed sinusoidal source function' — measured density
    equals initial + analytic injected integral at every sample."""
    model, hist = _run()
    a = hist.as_arrays()
    src = model.source
    for t, n in zip(a["t"], a["n_e"]):
        expect = 1.0 + src.injected_by(t)
        assert n == pytest.approx(expect, abs=0.03)
