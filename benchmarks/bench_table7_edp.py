"""Table 7: energy-delay product."""

from repro.accel.baselines import table7
from repro.eval.tables import render_table7


def test_table7_edp(once):
    data = once(table7)
    print("\n" + render_table7())
    models = ("lenet", "mnist_cnn", "resnet20", "resnet56")
    for m in models:
        best = min(data[a][m] for a in ("craterlake", "ark", "bts", "sharp"))
        assert data["athena-w7a7"][m] < best, m
    # Massive improvement over BTS (paper: >8000x; ordering is the claim).
    assert data["bts"]["resnet20"] / data["athena-w7a7"]["resnet20"] > 100
    # w6a7 improves EDP further.
    for m in models:
        assert data["athena-w6a7"][m] < data["athena-w7a7"][m]
