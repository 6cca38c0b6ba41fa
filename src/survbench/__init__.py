"""Survival-curve reconstruction, simulation engines and benchmarks."""

__version__ = "0.1.0"
