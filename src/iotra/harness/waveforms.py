"""Deterministic simulated sensor signals.

Every waveform is a pure function of (spec, t); the random walk is pure
in (spec, seed, step index), so replays with the same seed are
bit-identical.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

KINDS = {"sine", "ramp", "step", "random_walk", "constant"}


class BadSpec(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class WaveformSpec:
    kind: str
    base: float = 0.0
    amplitude: float = 0.0
    period_s: float = 60.0
    slope: float = 0.0
    step_ts: float = 0.0
    step_level: float = 0.0
    walk_sigma: float = 1.0
    walk_step_s: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise BadSpec(f"unknown waveform kind {self.kind!r}")
        if self.kind == "sine" and self.period_s <= 0:
            raise BadSpec("sine needs a positive period")
        if self.kind == "random_walk" and self.walk_step_s <= 0:
            raise BadSpec("random walk needs a positive step")


# cumulative walk values are cached per spec so step k is pure in
# (seed, sigma, k) without re-walking from zero on every sample
_walk_cache: dict[tuple[int, float, float], list[float]] = {}


def _walk_value(spec: WaveformSpec, index: int) -> float:
    key = (spec.seed, spec.walk_sigma, spec.walk_step_s)
    path = _walk_cache.setdefault(key, [0.0])
    while len(path) <= index:
        rng = random.Random(f"{spec.seed}:{len(path)}")
        path.append(path[-1] + rng.gauss(0.0, spec.walk_sigma))
    return path[index]


def gen_waveform(spec: WaveformSpec, t: float) -> float:
    """Sample the waveform at simulation time t (seconds, >= 0)."""
    if t < 0:
        raise BadSpec("t must be >= 0")
    if spec.kind == "constant":
        return spec.base
    if spec.kind == "ramp":
        return spec.base + spec.slope * t
    if spec.kind == "sine":
        return spec.base + spec.amplitude * math.sin(2 * math.pi * t / spec.period_s)
    if spec.kind == "step":
        return spec.step_level if t >= spec.step_ts else spec.base
    # random_walk
    return spec.base + _walk_value(spec, int(t // spec.walk_step_s))
