"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core.plan import program_fingerprint
from repro.core.program import lower
from repro.fhe.params import TEST_LOOP
from repro.quant.mp import allocate_bits, mp_micro_subject
from repro.quant.subjects import SUBJECTS, micro_subject

FINGERPRINTS = {  # as built before the builders moved to repro.quant.subjects
    "mnist_cnn": "164888c7dba1700917f12e3e06949f4666a01bb490a21b630c0ea872cda062ef",
    "resnet20_block": "10aa7fb809980e7f53d152e4b804ebdbf7ac9640cf0ec1a4ca1ca5dbc866873f",
    "serve_micro": "daa6269635bebb867c18a83fdc80b99eb7257ec2725240f92bc7dc98a54ff771",
    "pack": "cb7fe1e43e88c8ea70801d9a32c404b889c62d842d787340a86066a5a1f24a91",
}


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_params_command(self, capsys):
        assert main(["params", "test-tiny"]) == 0
        out = capsys.readouterr().out
        assert "test-tiny" in out and "security" in out

    def test_params_all(self, capsys):
        assert main(["params"]) == 0
        out = capsys.readouterr().out
        assert "athena" in out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "table42"]) == 2

    def test_static_experiment(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Athena" in out

    def test_table8_experiment(self, capsys):
        assert main(["experiment", "table8"]) == 0
        assert "scratchpad" in capsys.readouterr().out

    def test_infer_command(self, capsys, tmp_path, monkeypatch):
        import repro.eval.zoo as zoo

        monkeypatch.setattr(zoo, "ARTIFACTS", tmp_path)
        monkeypatch.setitem(zoo.RECIPES, "mnist_cnn", (0.5, 1, 0.05, 256))
        assert main(["infer", "mnist_cnn", "--count", "32"]) == 0
        out = capsys.readouterr().out
        assert "ciphertext accuracy" in out

    def test_ablation_command(self, capsys):
        assert main(["ablation", "--model", "mnist_cnn"]) == 0
        assert "no-two-region-dataflow" in capsys.readouterr().out


class TestSubjectsTable:
    def test_fingerprints_are_pinned(self):
        assert sorted(FINGERPRINTS) == sorted(SUBJECTS)
        for name, digest in FINGERPRINTS.items():
            qm, params = micro_subject(name)
            assert program_fingerprint(lower(qm, params)) == digest, name

    @pytest.mark.parametrize("command", ["compile", "serve"])
    def test_model_choices_come_from_the_table(self, command, capsys):
        parser = build_parser()
        for name in SUBJECTS:
            assert parser.parse_args([command, "--model", name]).model == name
        with pytest.raises(SystemExit, match="2"):
            parser.parse_args([command, "--model", "no-such-subject"])

    @pytest.mark.parametrize("argv", [
        ["bench"], ["loadgen"], ["tune"], ["compile", "--tune"],
        ["compile", "--chunk", "16"], ["compile", "--seed", "3"],
        # REPRO_BACKEND picks the engine of every ciphertext run.
        ["infer", "mnist_cnn", "--backend", "serial"], ["trace", "--backend", "serial"],
        ["serve", "--backend", "serial"],
    ], ids=["bench", "loadgen", "tune", "compile--tune", "compile--chunk",
            "compile--seed", "infer--backend", "trace--backend", "serve--backend"])
    def test_deleted_commands_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit, match="2"):
            main(argv)

    def test_a_preset_of_another_t_is_exit_1(self, tmp_path, capsys):
        """mnist_cnn is quantized for t = 257; athena-medium runs 65537."""
        out = str(tmp_path / "m.plan")
        assert main(["compile", "--model", "mnist_cnn", "--params", "athena-medium",
                     "--out", out]) == 1
        assert "quantized for t = 257, but athena-medium runs t = 65537" in (
            capsys.readouterr().err)


class TestAllocateThenCompile:
    """``repro allocate --config-out A && repro compile --model mp_cnn --mp A``."""

    def test_compiles_the_subject_that_was_allocated(self, tmp_path, capsys):
        artifact = str(tmp_path / "a.json")
        assert main(["allocate", "--seed", "3", "--config-out", artifact]) == 0
        capsys.readouterr()
        assert main(["compile", "--model", "mp_cnn", "--mp", artifact,
                     "--out", str(tmp_path / "a.plan"), "--json"]) == 0
        compiled = json.loads(capsys.readouterr().out)
        model, x, y, config = mp_micro_subject(3)
        res = allocate_bits(model, x, y, config)
        assert compiled["model_hash"] == program_fingerprint(lower(res.model, TEST_LOOP))


@pytest.mark.slow
class TestCompileThenInfer:
    """``repro compile ... --out P && repro infer ... --plan P``."""

    def test_plan_round_trips(self, tmp_path, capsys):
        out = str(tmp_path / "t.plan")
        assert main(["compile", "--model", "mnist_cnn", "--out", out]) == 0
        assert f"-> {out}\n" in capsys.readouterr().out
        assert main(["infer", "mnist_cnn", "--plan", out, "--count", "1"]) == 0
        assert "1 warm requests" in capsys.readouterr().out

    def test_plan_of_another_model_is_exit_1(self, tmp_path, capsys):
        out = str(tmp_path / "r.plan")
        assert main(["compile", "--model", "resnet20_block", "--out", out]) == 0
        assert main(["infer", "mnist_cnn", "--plan", out, "--count", "1"]) == 1
        assert "plan was compiled for a different model" in capsys.readouterr().err
