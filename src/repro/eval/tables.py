"""Experiment drivers for the paper's tables (1-9)."""

from __future__ import annotations

from dataclasses import dataclass


from repro.accel import baselines as accel_baselines
from repro.accel.configs import ALL_CONFIGS, ATHENA_ACCEL
from repro.core.complexity import table3 as complexity_table3
from repro.core.encoding import TABLE2_SHAPES, athena_plan, cheetah_plan
from repro.core.keyinventory import athena_key_material_bytes
from repro.core.inference import SimulatedAthenaEngine
from repro.core.noise_budget import PAPER_TABLE4, budget_bits, is_correct, table4 as noise_table4
from repro.eval.render import render_table
from repro.eval.zoo import get_benchmark
from repro.fhe.params import ATHENA


# -- Table 1: solution comparison -------------------------------------------------


@dataclass(frozen=True)
class SolutionRow:
    method: str
    quantized: bool
    degree: int
    logq: int
    bootstrapping: str
    ciphertext_bytes: int
    key_bytes: int
    dataset: str


def _ct_bytes(degree: int, logq: int) -> int:
    return 2 * degree * logq // 8


def table1() -> list[SolutionRow]:
    """Parameter/size comparison of the six solutions (sizes derived from
    each scheme's degree and modulus; key sizes use each paper's reported
    rotation+relin inventories)."""
    rows = [
        SolutionRow("YASHE (LHE) [13]", False, 8192, 191, "none (Taylor NL)",
                    _ct_bytes(8192, 191), int(31.5 * 2**20), "MNIST"),
        SolutionRow("BGV (LHE) [15]", False, 8192, 220, "none (Taylor NL)",
                    _ct_bytes(8192, 220), int(36.7 * 2**20), "MNIST"),
        SolutionRow("BFV (LHE) [9]", True, 8192, 219, "none (Taylor NL)",
                    _ct_bytes(8192, 219), int(36.7 * 2**20), "CIFAR-10"),
        SolutionRow("CKKS (FHE) [28]", False, 65536, 1450, "separated (Taylor)",
                    _ct_bytes(65536, 1450), int(1.9 * 2**30), "CIFAR-10"),
        SolutionRow("CKKS (FHE) [27]", False, 65536, 1501, "separated (Taylor)",
                    _ct_bytes(65536, 1501), int(2.1 * 2**30), "CIFAR-10"),
        SolutionRow("BFV+FBS (Athena)", True, ATHENA.n, ATHENA.q.bit_length(),
                    "merged (FBS)", ATHENA.ciphertext_bytes,
                    athena_key_material_bytes(ATHENA), "CIFAR-10"),
    ]
    return rows


def render_table1() -> str:
    rows = [
        (r.method, "Q" if r.quantized else "NQ", r.degree, r.logq, r.bootstrapping,
         f"{r.ciphertext_bytes / 2**20:.2f} MiB", f"{r.key_bytes / 2**20:.0f} MiB", r.dataset)
        for r in table1()
    ]
    return render_table(
        ["method", "quant", "degree", "log2Q", "B & NL", "cipher", "keys", "dataset"],
        rows,
        "Table 1: CNN-under-FHE solutions (sizes derived from parameters)",
    )


# -- Table 2: encoding valid-data ratios --------------------------------------------


def table2(n_athena: int = ATHENA.n, n_cheetah: int = 4096):
    """(shape, cheetah_ratio, athena_ratio) per Table 2 layer; Cheetah is
    evaluated at its native degree 4096, Athena at 2^15."""
    out = []
    for shape in TABLE2_SHAPES:
        c = cheetah_plan(shape, n_cheetah)
        a = athena_plan(shape, n_athena)
        out.append((shape, c, a))
    return out


def render_table2() -> str:
    rows = [
        (s.describe(), f"{c.valid_ratio * 100:.2f}%", f"{a.valid_ratio * 100:.2f}%",
         c.result_cts, a.result_cts)
        for s, c, a in table2()
    ]
    return render_table(
        ["layer", "cheetah", "athena", "cheetah cts", "athena cts"],
        rows,
        "Table 2: valid-data ratio in result polynomials",
    )


# -- Table 3: complexity -------------------------------------------------------------


def render_table3() -> str:
    rows = [
        (r.solution, r.operation, r.complexity.pmult, r.complexity.cmult, r.complexity.hrot)
        for r in complexity_table3()
    ]
    return render_table(
        ["solution", "operation", "#PMult", "#CMult", "#HRot"],
        rows,
        "Table 3: computational complexity (concrete counts at paper defaults)",
    )


# -- Table 4: noise budget --------------------------------------------------------------


def render_table4() -> str:
    rows = []
    for step in noise_table4(ATHENA):
        rows.append(
            (step.step, step.pmult_depth, step.cmult_depth, step.smult_depth,
             step.hadd_depth, f"{step.noise_bits:.0f}",
             PAPER_TABLE4.get(step.step, "-"))
        )
    footer = (
        f"budget log2(Delta/2) = {budget_bits(ATHENA):.0f} bits; "
        f"correct: {is_correct(ATHENA)}"
    )
    return render_table(
        ["step", "PMult", "CMult", "SMult", "HAdd", "noise(bits)", "paper"],
        rows,
        "Table 4: noise consumed per Athena step",
    ) + "\n" + footer


# -- Table 5: accuracy ------------------------------------------------------------------


def _table5_row(name: str, test_size: int, seed: int):
    """One model's accuracy sweep: ``(name, row)``."""
    entry = get_benchmark(name, seed=seed)
    x = entry.data["x_test"][:test_size]
    y = entry.data["y_test"][:test_size]
    row = {"plain-G": entry.float_accuracy}
    for label, qm in entry.quantized.items():
        engine = SimulatedAthenaEngine(qm, ATHENA, seed=seed + 7)
        row[f"plain-Q {label}"] = qm.accuracy(x, y)
        row[f"cipher {label}"] = engine.accuracy(x, y)
        # A MAC beyond t/2 wraps in both walkers alike, so the gap alone
        # cannot tell a faithful row from a wrapped one.
        row[f"fits-t {label}"] = qm.check_t()
    return name, row


def table5(models=("mnist_cnn", "lenet", "resnet20", "resnet56"), test_size: int = 512,
           seed: int = 0):
    """plain-G / plain-Q / cipher accuracy and fits-t per model and quant mode."""
    return dict(_table5_row(name, test_size, seed) for name in models)


def render_table5(**kwargs) -> str:
    data = table5(**kwargs)
    headers = ["model", "plain-G"]
    rows = [[name, f"{r['plain-G'] * 100:.2f}"] for name, r in data.items()]
    for label in ("w7a7", "w6a7"):
        headers += [f"plain-Q {label}", f"cipher {label}", "gap", "fits-t"]
        for row, r in zip(rows, data.values()):
            plain, cipher = r[f"plain-Q {label}"], r[f"cipher {label}"]
            row += [f"{plain * 100:.2f}", f"{cipher * 100:.2f}",
                    f"{(cipher - plain) * 100:+.2f}",
                    "yes" if r[f"fits-t {label}"] else "NO"]
    return render_table(headers, rows, "Table 5: accuracy (%), plain vs cipher")


# -- Tables 6 & 7 (accelerator) -----------------------------------------------------------


def render_table6() -> str:
    data = accel_baselines.table6()
    headers = ["accelerator", "lenet", "mnist_cnn", "resnet20", "resnet56"]
    rows = []
    for arch, row in data.items():
        paper = accel_baselines.PAPER_TABLE6.get(arch, {})
        rows.append([arch] + [
            f"{row[m]:.1f} ({paper.get(m, '-')})"
            for m in ("lenet", "mnist_cnn", "resnet20", "resnet56")
        ])
    return render_table(headers, rows, "Table 6: runtime ms, ours (paper)")


def render_table7() -> str:
    data = accel_baselines.table7()
    headers = ["accelerator", "lenet", "mnist_cnn", "resnet20", "resnet56"]
    rows = []
    for arch, row in data.items():
        paper = accel_baselines.PAPER_TABLE7.get(arch, {})
        rows.append([arch] + [
            f"{row[m]:.3f} ({paper.get(m, '-')})"
            for m in ("lenet", "mnist_cnn", "resnet20", "resnet56")
        ])
    return render_table(headers, rows, "Table 7: EDP J*s, ours (paper)")


# -- Table 8: memory ---------------------------------------------------------------------


def render_table8() -> str:
    rows = [
        (cfg.name, f"{cfg.hbm_gb:.0f} GB", f"{cfg.hbm_bw_tbs:.0f} TB/s",
         f"{cfg.scratchpad_mb:.0f}+{cfg.scratchpad_reg_mb:.0f} MB",
         f"{cfg.scratchpad_bw_tbs:.0f} TB/s")
        for cfg in ALL_CONFIGS
    ]
    return render_table(
        ["accelerator", "HBM cap", "HBM BW", "scratchpad", "scratch BW"],
        rows,
        "Table 8: memory systems",
    )


# -- Table 9: area & power ------------------------------------------------------------------


def render_table9() -> str:
    rows = [(u.name, u.area_mm2, u.power_w) for u in ATHENA_ACCEL.units]
    rows.append(("TOTAL", ATHENA_ACCEL.area_mm2, ATHENA_ACCEL.power_w))
    for cfg in ALL_CONFIGS[1:]:
        rows.append((cfg.name, cfg.area_mm2, cfg.power_w))
    return render_table(
        ["component", "area mm^2", "peak power W"],
        rows,
        "Table 9: Athena area/power breakdown (@1 GHz, 7 nm) + baselines",
    )
