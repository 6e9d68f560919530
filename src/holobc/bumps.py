"""Smooth compactly supported weights used for chart partitions and cutoffs.

Everything is built from the classic exp(-1/t) step, so all profiles are
C-infinity, exactly 1 on their plateau and exactly 0 outside their support.
Profiles expose analytic derivatives where test forms need dbar data.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "smoothstep",
    "smoothstep_derivative",
    "RadialProfile",
    "IntervalProfile",
    "AngularProfile",
]


def smoothstep(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    # exp only inside the transition band; a NaN passes through as NaN
    out = np.where(t <= 0.0, 0.0, np.minimum(t, 1.0))
    band = (out > 0.0) & (out < 1.0)
    tb = out[band]
    with np.errstate(over="ignore"):
        a = np.exp(-1.0 / tb)
        b = np.exp(-1.0 / (1.0 - tb))
    out[band] = a / (a + b)
    return out


def smoothstep_derivative(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    tc = np.where(inside, t, 0.5)
    a = np.exp(-1.0 / tc)
    b = np.exp(-1.0 / (1.0 - tc))
    d = a * b * (1.0 / tc**2 + 1.0 / (1.0 - tc) ** 2) / (a + b) ** 2
    return np.where(inside, d, 0.0)


@dataclass(frozen=True)
class RadialProfile:
    """1 for r <= plateau, 0 for r >= support, smooth in between."""

    plateau: float
    support: float

    def __post_init__(self):
        if not (0.0 <= self.plateau < self.support):
            raise ValueError(f"bad radial profile ({self.plateau}, {self.support})")

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return 1.0 - smoothstep((np.asarray(r, dtype=float) - self.plateau)
                                / (self.support - self.plateau))

    def derivative(self, r: np.ndarray) -> np.ndarray:
        width = self.support - self.plateau
        return -smoothstep_derivative((np.asarray(r, dtype=float) - self.plateau) / width) / width


@dataclass(frozen=True)
class IntervalProfile:
    """Trapezoid profile on an interval: support (a, d), plateau [b, c].

    Either margin may be collapsed (a == b or c == d) to make the profile
    reach full height at that end of its support, which is how strips meet
    the parametrization ends of a face that carries no corner there.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if not (self.a <= self.b <= self.c <= self.d and self.a < self.d):
            raise ValueError(f"bad interval profile {(self.a, self.b, self.c, self.d)}")

    def __call__(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        rising = smoothstep((s - self.a) / (self.b - self.a)) if self.b > self.a else (s >= self.a).astype(float)
        falling = smoothstep((self.d - s) / (self.d - self.c)) if self.d > self.c else (s <= self.d).astype(float)
        return rising * falling


@dataclass(frozen=True)
class AngularProfile:
    """Periodic trapezoid around a center angle (radians)."""

    center: float
    plateau_halfwidth: float
    support_halfwidth: float

    def __post_init__(self):
        if not (0.0 < self.plateau_halfwidth < self.support_halfwidth <= np.pi):
            raise ValueError("bad angular profile")

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        delta = np.angle(np.exp(1j * (np.asarray(theta, dtype=float) - self.center)))
        return 1.0 - smoothstep((np.abs(delta) - self.plateau_halfwidth)
                                / (self.support_halfwidth - self.plateau_halfwidth))
