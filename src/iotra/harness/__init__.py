"""Simulated fleet, fault injection, scenario runner and operator CLI."""

from .scenario import RunReport, ScenarioSpec, World, run_scenario
from .waveforms import WaveformSpec, gen_waveform

__all__ = [
    "RunReport",
    "ScenarioSpec",
    "World",
    "run_scenario",
    "WaveformSpec",
    "gen_waveform",
]
