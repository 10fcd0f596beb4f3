"""Table 3: computational-complexity comparison, CKKS vs Athena."""

import math

import numpy as np

from repro.core.complexity import table3
from repro.eval.tables import render_table3
from repro.fhe.backend import CountingBackend, use_backend
from repro.fhe.bfv import BfvContext, Plaintext
from repro.fhe.fbs import FbsLut, fbs_evaluate
from repro.fhe.params import TEST_FBS


def executed_fbs_counts() -> dict[str, int]:
    """CMults and relinearisations one full-domain ReLU FBS executes at
    t = 257 (TEST_FBS), read from a ``CountingBackend``."""
    params = TEST_FBS
    ctx = BfvContext(params, seed=3)
    sk, pk = ctx.keygen()
    lut = FbsLut.from_function(lambda x: np.maximum(x, 0), params.t, "relu")
    plan = lut.plan
    counting = CountingBackend("batched")
    ct = ctx.encrypt(Plaintext.from_slots(np.arange(params.n), params), pk)
    with use_backend(counting):
        fbs_evaluate(ctx, [ct], lut, ctx.relin_key(sk))
    giant = counting.ops_by_phase()["fbs_giant"]
    return {"cmult": giant["cmult"], "relin": giant["keyswitch"],
            "ladder": len(plan.ladder), "bs": plan.bs}


def test_table3_complexity(once):
    rows = once(table3)
    print("\n" + render_table3())
    athena = {r.operation: r.complexity for r in rows if r.solution == "athena"}
    ckks = {r.operation: r.complexity for r in rows if r.solution == "ckks"}
    # Athena's conv needs no rotations at all; CKKS conv needs many.
    assert athena["conv"].hrot == 0
    assert ckks["conv"].hrot > 0
    # FBS dominates Athena's op counts (O(t) SMult) — the FRU rationale.
    assert athena["fbs"].pmult > 100 * athena["conv"].pmult
    # CMult stays O(sqrt t).
    assert athena["fbs"].cmult ** 2 <= 2 * 65537
    # Beside the paper's row, what one FBS executes here: the power ladder
    # relinearises each CMult, the giant-step combination once for its sum.
    ran = executed_fbs_counts()
    t = TEST_FBS.t
    print(f"executed, one full-domain FBS at t = {t}: {ran['cmult']} CMult, "
          f"{ran['relin']} relinearisations ({ran['ladder']} ladder + 1 combination); "
          f"paper row O(sqrt t) = {math.isqrt(t)} CMult")
    assert ran["relin"] == ran["ladder"] + 1
    assert ran["cmult"] <= 3 * ran["bs"]  # O(sqrt t), like the row
