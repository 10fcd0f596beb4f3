"""Baseline-method models: CKKS-style polynomial approximation study."""

from repro.baselines.approx import ApproxPoint, bit_accuracy, sweep

__all__ = ["ApproxPoint", "bit_accuracy", "sweep"]
