"""Fig. 12: sensitivity to quantization precision (accuracy + runtime)."""

from repro.accel.sensitivity import precision_sweep_perf
from repro.eval.figures import fig12_accuracy, render_fig12


def test_fig12_precision_sensitivity(once):
    acc = once(fig12_accuracy, "resnet20")
    perf = precision_sweep_perf("resnet20")
    print("\n" + render_fig12("resnet20"))
    # Accuracy gains plateau by w6a7 (paper: "significant gains plateau at w6a7").
    assert acc["w6a7"]["cipher"] >= acc["w4a4"]["cipher"]
    assert abs(acc["w7a7"]["cipher"] - acc["w6a7"]["cipher"]) < 0.08
    # Runtime rises with precision; the w7a7 -> w8a8 step is the largest.
    labels = ["w4a4", "w5a5", "w6a6", "w6a7", "w7a7", "w8a8"]
    times = [perf[l] for l in labels]
    assert times == sorted(times)
    steps = [times[i + 1] / times[i] for i in range(len(times) - 1)]
    assert steps[-1] == max(steps)
    assert steps[-1] > 1.4  # "nearly doubling"
