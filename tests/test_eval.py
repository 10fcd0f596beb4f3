"""Tests for the eval layer: renderers, zoo, drivers, and the ablations."""

import numpy as np
import pytest

from repro.accel.ablation import run_ablations
from repro.core.inference import SimulatedAthenaEngine
from repro.eval.render import render_table
from repro.eval.tables import (
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    render_table8,
    render_table9,
    table1,
)
from repro.eval.zoo import RECIPES
from repro.fhe.params import ATHENA


class TestRender:
    def test_basic_table(self):
        out = render_table(["a", "b"], [(1, 2.5), ("x", 0.001)], "T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "|" in lines[1]
        assert len(lines) == 5

    def test_float_formatting(self):
        out = render_table(["v"], [(1234.5678,), (0.12345,), (0,)])
        assert "1235" in out and "0.1235" in out

    def test_column_alignment(self):
        out = render_table(["col", "other"], [("xx", "y"), ("longervalue", "z")])
        lines = out.splitlines()
        pipes = {line.index("|") for line in lines if "|" in line}
        seps = {line.index("+") for line in lines if "+" in line}
        assert len(pipes) == 1
        assert seps == pipes


class TestStaticTables:
    def test_table1_renders(self):
        text = render_table1()
        assert "Athena" in text and "5.62 MiB" in text

    def test_table1_athena_smallest_fhe_ciphertext(self):
        rows = table1()
        fhe_rows = [r for r in rows if "FHE" in r.method or "Athena" in r.method]
        athena = rows[-1]
        assert athena.ciphertext_bytes == min(
            r.ciphertext_bytes for r in fhe_rows
        )

    @pytest.mark.parametrize(
        "renderer", [render_table2, render_table3, render_table4, render_table8, render_table9]
    )
    def test_renderers_produce_tables(self, renderer):
        text = renderer()
        assert "|" in text and "\n" in text
        assert len(text.splitlines()) >= 4


class TestZoo:
    def test_recipes_cover_benchmarks(self):
        assert set(RECIPES) == {"mnist_cnn", "lenet", "resnet20", "resnet56"}

    def test_get_benchmark_caches(self, tmp_path, monkeypatch):
        import repro.eval.zoo as zoo

        monkeypatch.setattr(zoo, "ARTIFACTS", tmp_path)
        monkeypatch.setitem(zoo.RECIPES, "mnist_cnn", (0.5, 1, 0.05, 256))
        first = zoo.get_benchmark("mnist_cnn", seed=123)
        assert (tmp_path / "mnist_cnn-123.pkl").exists()
        second = zoo.get_benchmark("mnist_cnn", seed=123)
        assert first.float_accuracy == second.float_accuracy
        assert "w7a7" in first.quantized and "w6a7" in first.quantized


class TestAblations:
    def test_ablation_results(self):
        results = run_ablations("mnist_cnn")
        names = {r.name for r in results}
        assert names == {
            "no-two-region-dataflow", "no-flexible-lut",
            "no-prng-key-regen", "no-se-unit",
        }
        assert all(r.slowdown >= 0.999 for r in results)


class TestEncryptedSoftmax:
    def test_probs_rank_match_logits(self, tmp_path, monkeypatch):
        import repro.eval.zoo as zoo

        monkeypatch.setattr(zoo, "ARTIFACTS", tmp_path)
        monkeypatch.setitem(zoo.RECIPES, "mnist_cnn", (1.0, 3, 0.05, 800))
        entry = zoo.get_benchmark("mnist_cnn", seed=5)
        qm = entry.quantized["w7a7"]
        engine = SimulatedAthenaEngine(qm, ATHENA, seed=6)
        x = entry.data["x_test"][:32]
        probs = engine.infer_probs(x)
        logits = SimulatedAthenaEngine(qm, ATHENA, seed=6).infer(x)
        assert probs.shape == logits.shape
        assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-9)
        agree = (probs.argmax(axis=-1) == logits.argmax(axis=-1)).mean()
        assert agree > 0.85
