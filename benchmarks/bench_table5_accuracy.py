"""Table 5: plaintext vs ciphertext accuracy for all four benchmarks."""

from repro.eval.tables import render_table5, table5


def test_table5_accuracy(once):
    data = once(table5)
    print("\n" + render_table5())
    for model, row in data.items():
        for label in ("w7a7", "w6a7"):
            # Every observed MAC fits t: a wrapped MAC corrupts plain-Q and
            # cipher alike, and the gap below would no longer measure noise.
            assert row[f"fits-t {label}"], (model, label, "MACs overflow t")
            gap = row[f"cipher {label}"] - row[f"plain-Q {label}"]
            # Paper: ciphertext inference within ~0.3% of plain-quantized
            # (synthetic datasets + reduced test sets widen the band).
            assert abs(gap) < 0.03, (model, label, gap)
        # Quantization itself costs little relative to plain-G.
        assert row["plain-Q w7a7"] > row["plain-G"] - 0.05
