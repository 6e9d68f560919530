"""Smooth step profiles."""

import numpy as np

from holobc.bumps import smoothstep


def smoothstep_reference(t):
    """The closed formula on every point: exp(-1/t) / (exp(-1/t) + exp(-1/(1-t)))."""
    t = np.asarray(t, dtype=float)
    tc = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(tc > 0.0, np.exp(-1.0 / np.maximum(tc, 1e-300)), 0.0)
        b = np.where(tc < 1.0, np.exp(-1.0 / np.maximum(1.0 - tc, 1e-300)), 0.0)
    return a / (a + b)


def test_smoothstep_is_bit_identical_to_the_closed_formula():
    edges = [0.0, -0.0, 1.0, 5e-324, 1e-310, 1e-300, 1e-3, 0.5,
             1.0 - 1e-16, np.nextafter(1.0, 0.0), np.inf, -np.inf]
    t = np.concatenate([np.linspace(-2.0, 3.0, 20_001), edges])
    assert smoothstep(t).tobytes() == smoothstep_reference(t).tobytes()


def test_smoothstep_keeps_nan():
    assert np.isnan(smoothstep(np.array([0.2, np.nan]))[1])
