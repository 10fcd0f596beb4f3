"""Experiment drivers for the paper's figures (1, 4, 8-13).

Each driver returns structured data plus a ``render_*`` helper producing an
ASCII rendition (series tables) of the figure.
"""

from __future__ import annotations

import numpy as np

from repro.accel import baselines as accel_baselines
from repro.accel.baselines import athena_run, calibrated_athena
from repro.accel.energy import energy_for
from repro.accel.sensitivity import lane_sweep, precision_sweep_perf
from repro.baselines.approx import sweep
from repro.core.inference import SimulatedAthenaEngine
from repro.eval.render import render_table
from repro.eval.zoo import get_benchmark
from repro.fhe.params import ATHENA
from repro.quant.quantize import QuantConfig, quantize_model


# -- Figure 1: approximation accuracy vs Delta ------------------------------------


def render_fig1() -> str:
    pts = sweep()
    rows = []
    for fn in ("relu", "sigmoid"):
        for method in ("taylor", "chebyshev"):
            for delta in (None, 25, 30, 35):
                series = [p for p in pts if p.function == fn and p.method == method
                          and p.delta_bits == delta]
                series.sort(key=lambda p: p.order)
                rows.append(
                    (fn, method, "plain" if delta is None else f"d={delta}")
                    + tuple(f"{p.accuracy_bits:.1f}" for p in series)
                )
    orders = sorted({p.order for p in pts})
    return render_table(
        ["fn", "method", "delta"] + [f"ord{o}" for o in orders],
        rows,
        "Fig 1: approximation accuracy (bits) vs expansion order",
    )


# -- Figure 4: MAC ranges and e_ms error ratios ------------------------------------------


def fig4(model: str = "resnet20", seed: int = 0, samples: int = 128):
    """(per-layer mac peaks, per-layer error ratios) for w7a7."""
    entry = get_benchmark(model, seed=seed)
    qm = entry.quantized["w7a7"]
    engine = SimulatedAthenaEngine(qm, ATHENA, seed=seed + 3)
    x = entry.data["x_test"][:samples]
    _, stats = engine.infer_with_stats(x)
    layers = [s for s in stats.layers if s.total > 0]
    return layers


def render_fig4(model: str = "resnet20") -> str:
    layers = fig4(model)
    rows = [
        (i, s.name, s.mac_peak, f"{np.log2(max(2, 2 * s.mac_peak)):.1f}",
         f"{s.error_ratio * 100:.2f}%")
        for i, s in enumerate(layers)
    ]
    t_line = f"t = {ATHENA.t} holds max MAC: {all(2 * s.mac_peak < ATHENA.t for s in layers)}"
    return render_table(
        ["#", "layer", "max |MAC|", "bits", "e_ms error ratio"],
        rows,
        f"Fig 4: per-layer MAC range and noise error ratio ({model}, w7a7)",
    ) + "\n" + t_line


# -- Figure 8: Athena framework on other accelerators ---------------------------------------


def render_fig8() -> str:
    data = accel_baselines.cross_deployment()
    base = data["athena"]
    rows = [(k, f"{v:.1f}", f"{v / base:.1f}x") for k, v in data.items()]
    return render_table(
        ["accelerator", "ms", "vs athena"],
        rows,
        "Fig 8: Athena framework deployed on existing accelerators (ResNet-20)",
    )


# -- Figure 9: execution-time breakdown -------------------------------------------------------


def fig9(models=("mnist_cnn", "lenet", "resnet20", "resnet56")):
    out = {}
    for m in models:
        res = athena_run(m)
        phases = res.ms_by_phase()
        total = sum(phases.values())
        out[m] = {k: v / total for k, v in phases.items()}
    return out


def render_fig9() -> str:
    data = fig9()
    phases = sorted({p for row in data.values() for p in row})
    rows = [
        [m] + [f"{data[m].get(p, 0) * 100:.1f}%" for p in phases] for m in data
    ]
    return render_table(["model"] + phases, rows, "Fig 9: execution-time breakdown")


# -- Figures 10-11: energy breakdown and EDAP ---------------------------------------------------


def fig10(models=("mnist_cnn", "lenet", "resnet20", "resnet56")):
    cfg = calibrated_athena()
    out = {}
    for m in models:
        res = athena_run(m)
        en = energy_for(res, cfg)
        total = sum(en.breakdown_j.values())
        out[m] = {k: v / total for k, v in en.breakdown_j.items()}
    return out


def render_fig10() -> str:
    data = fig10()
    units = sorted({u for row in data.values() for u in row})
    rows = [[m] + [f"{data[m].get(u, 0) * 100:.1f}%" for u in units] for m in data]
    memory_note = "memory = hbm + scratchpad + register_file (paper: ~50%)"
    return render_table(["model"] + units, rows, "Fig 10: energy breakdown") + "\n" + memory_note


def render_fig11() -> str:
    data = accel_baselines.edap()
    headers = ["accelerator", "lenet", "mnist_cnn", "resnet20", "resnet56"]
    rows = [
        [arch] + [f"{row[m]:.2f}" for m in ("lenet", "mnist_cnn", "resnet20", "resnet56")]
        for arch, row in data.items()
    ]
    return render_table(headers, rows, "Fig 11: EDAP (J*s*mm^2)")


# -- Figure 12: quantization-precision sensitivity ------------------------------------------------


def fig12_accuracy(model: str = "resnet20", seed: int = 0, test_size: int = 256):
    """Accuracy per precision w4a4..w8a8 (plain-Q and cipher)."""
    entry = get_benchmark(model, seed=seed)
    x = entry.data["x_test"][:test_size]
    y = entry.data["y_test"][:test_size]
    calib = entry.data["x_train"][:256]
    out = {}
    for (wb, ab) in ((4, 4), (5, 5), (6, 6), (6, 7), (7, 7), (8, 8)):
        cfg = QuantConfig(wb, ab)
        qm = quantize_model(entry.float_model, calib, cfg, model)
        engine = SimulatedAthenaEngine(qm, ATHENA, seed=seed + 5)
        out[cfg.label] = {
            "plain": qm.accuracy(x, y),
            "cipher": engine.accuracy(x, y),
        }
    return out


def render_fig12(model: str = "resnet20") -> str:
    acc = fig12_accuracy(model)
    perf = precision_sweep_perf(model)
    rows = []
    for label in ("w4a4", "w5a5", "w6a6", "w6a7", "w7a7", "w8a8"):
        a = acc.get(label, {})
        rows.append(
            (label, f"{a.get('plain', 0) * 100:.2f}", f"{a.get('cipher', 0) * 100:.2f}",
             f"{perf.get(label, 0):.1f}")
        )
    return render_table(
        ["precision", "plain acc %", "cipher acc %", "runtime ms"],
        rows,
        f"Fig 12: quantization-precision sensitivity ({model})",
    )


# -- Figure 13: lane sensitivity -------------------------------------------------------------------


def render_fig13() -> str:
    pts = lane_sweep()
    rows = [
        (p.unit, p.lanes, f"{p.delay:.2f}", f"{p.energy:.2f}", f"{p.edp:.2f}", f"{p.edap:.2f}")
        for p in pts
    ]
    return render_table(
        ["unit", "lanes", "delay", "energy", "EDP", "EDAP"],
        rows,
        "Fig 13: per-unit lane scaling (normalized to 2048 lanes)",
    )
