"""Fixed cost of the fused CMult chain: per-call medians and one batch's split.

Measures the ``src`` of the checkout it sits in; to compare two checkouts,
alternate processes of each::

    python benchmarks/fused_cost.py [--reps 60] [--batches 40]

Prints one JSON object:

- ``cmult``: ms per ``BATCHED.cmult_batch`` call of B pairs of fresh
  encryptions (forms built inside the call), the median of ``--reps`` calls,
  at B = 1, 2, 8 and 16 on ``TEST_FBS`` and ``TEST_LOOP``, with the minor page
  faults per call (``faults_per_call``: 0 everywhere, the allocator policy
  ``repro.fhe`` sets keeping freed pages for the next call);
- ``kernels``: µs per call, best of seven rounds, of one forward transform of
  a CMult operand over Q u aux and one centred Q -> aux base extension, at
  the smallest stack a CMult makes (one ciphertext), and of one
  ``MatvecPlan.build`` of a dense (2, N/2, N) diagonal set;
- ``ops``: µs per call, best of seven rounds, at ``TEST_LOOP``: the
  relinearisation's scale-round and keyswitch at one and eight CMults
  (``tensor_scale_round`` of a (B, 3, L+K, N) tensor, ``BATCHED.keyswitch``
  of its (B, L, N) quadratic components) and the LWE keyswitch
  (``lwe.keyswitch_impl``) of 32 and 128 extracted samples;
- ``s2c``: at ``TEST_LOOP``, ms per ``slot_to_coeff`` call at periods 8, 32,
  64 and 128 (= N, the dense plan) and per ``pack_lwe`` call of 8 and 43
  samples (periods 8 and 64), the median of ``--reps`` calls, with the limb
  transforms one call executes;
- ``batch``: one ``serve_packed``-shaped batch (the ledger's ``packed``
  subject at ``TEST_FBS``, 4 images in 2 lane-full ciphertexts): its median
  ms, and per op the ms, share and calls of one batch (ops nest: ``fbs``
  holds ``cmult_batch``, ``giant_step_batch`` and every transform under them);
- ``peak_rss_mb``: the process's peak resident set, MiB, after all of the above.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import timeit
from collections import Counter
from dataclasses import replace
from pathlib import Path

os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE / "ledger")]

import numpy as np  # noqa: E402

from repro.fhe import lwe, ntt, rns  # noqa: E402
from repro.fhe.backend import BATCHED, BatchedBackend, use_backend  # noqa: E402
from repro.fhe.bfv import BfvContext, Plaintext, _tensor_tables  # noqa: E402
from repro.fhe.packing import MatvecPlan  # noqa: E402
from repro.fhe.params import TEST_FBS, TEST_LOOP  # noqa: E402
from repro.utils.sampling import Sampler  # noqa: E402

PRESETS = {"TEST_FBS": TEST_FBS, "TEST_LOOP": TEST_LOOP}
STACKS = (1, 2, 8, 16)
BATCH_OPS = ("fbs", "cmult_batch", "giant_step_batch", "keyswitch", "lincomb", "matvec",
             "s2c", "mod_switch")


def cmult_ms(params, pairs_per_call: int, reps: int) -> dict:
    ctx = BfvContext(params, seed=1)
    sk, pk = ctx.keygen()
    rlk = ctx.relin_key(sk)
    rng = np.random.default_rng(0)
    cts = [ctx.encrypt(Plaintext.from_coeffs(rng.integers(0, params.t, params.n), params), pk)
           for _ in range(2 * pairs_per_call)]
    pairs = list(zip(cts[0::2], cts[1::2]))
    times = []
    for i in range(reps + 10):  # the first ten warm tables and the allocator
        fresh = [(replace(a), replace(b)) for a, b in pairs]
        if i == 10:
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        BATCHED.cmult_batch(ctx, fresh, rlk)
        times.append(time.perf_counter() - start)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return {"ms": round(statistics.median(times[10:]) * 1e3, 4),
            "faults_per_call": round(faults / reps, 1)}


def kernels_us(params) -> dict:
    aux, moduli = _tensor_tables(params).aux, params.moduli
    rng = np.random.default_rng(1)
    one = rng.integers(0, np.array(moduli)[:, None], (1, 2, len(moduli), params.n))
    both = rng.integers(0, 2**30, (1, 2, len(moduli) + len(aux), params.n))
    diagonals = rng.integers(0, params.t, (2, params.n // 2, params.n))
    calls = {
        "ntt_forward_rns (1, 2, L+K, N)": (200, lambda: ntt.ntt_forward_rns(both, moduli + aux)),
        "base_extend (1, 2, L, N)": (200, lambda: rns.base_extend(one, moduli, aux,
                                                                  shift=params.q // 2)),
        "MatvecPlan.build (2, N/2, N)": (10, lambda: MatvecPlan.build(diagonals, params, 8)),
    }
    return {name: round(min(timeit.repeat(call, number=count, repeat=7)) / count * 1e6, 1)
            for name, (count, call) in calls.items()}


def ops_us(params) -> dict:
    ctx = BfvContext(params, seed=1)
    sk, pk = ctx.keygen()
    rlk = ctx.relin_key(sk)
    rng = np.random.default_rng(2)
    cts = [ctx.encrypt(Plaintext.from_coeffs(rng.integers(0, params.t, params.n), params), pk)
           for _ in range(16)]
    e = ctx.tensor_products(list(zip(cts[0::2], cts[1::2])))
    quadratic = ctx.tensor_scale_round(e)[:, 2]
    q = params.lwe_q
    ksk = lwe.keyswitch_keygen(sk.coeffs, rng.integers(-1, 2, params.lwe_n), q,
                               lwe.KS_BASE_BITS, Sampler(3))
    samples = {c: lwe.LweBatch(rng.integers(0, q, (c, params.n)), rng.integers(0, q, c), q)
               for c in (32, 128)}
    calls = {}
    for b in (1, 8):
        calls[f"tensor_scale_round ({b}, 3, L+K, N)"] = (
            100, lambda b=b: ctx.tensor_scale_round(e[:b]))
        calls[f"keyswitch ({b}, L, N)"] = (
            100, lambda b=b: BATCHED.keyswitch(quadratic[:b], rlk, params.moduli))
    for c, batch in samples.items():
        calls[f"lwe keyswitch_impl ({c}, N)"] = (100, lambda batch=batch: lwe.keyswitch_impl(
            batch, ksk))
    return {name: round(min(timeit.repeat(call, number=count, repeat=7)) / count * 1e6, 1)
            for name, (count, call) in calls.items()}


def s2c_ms(reps: int) -> dict:
    from repro.core.framework import AthenaPipeline
    from repro.fhe import backend
    from repro.fhe.packing import pack_lwe
    from repro.fhe.s2c import s2c_plan, slot_to_coeff
    from repro.fhe.slots import period

    params = TEST_LOOP
    pipe = AthenaPipeline(params, seed=3)
    rng = np.random.default_rng(4)
    calls = {}
    for p in (8, 32, 64, params.n):
        s2c_plan(params, p)
        ct = pipe.ctx.encrypt(Plaintext.from_slots(np.arange(params.n) % p, params), pipe.pk)
        calls[f"slot_to_coeff period {p}"] = (
            lambda ct=ct, p=p: slot_to_coeff(pipe.ctx, ct, pipe.s2c_keys, p))
    for h in (8, 43):
        batch = lwe.LweBatch(rng.integers(0, params.t, (h, params.lwe_n)),
                             rng.integers(0, params.t, h), params.t)
        calls[f"pack_lwe height {h}"] = (
            lambda batch=batch, h=h: pack_lwe(pipe.ctx, batch, pipe.packing_key,
                                              period(h, params.n)))
    limbs = Counter()

    def counted(real):
        def run(a, *args, **kwargs):
            limbs["transforms"] += a.size // a.shape[-1]
            return real(a, *args, **kwargs)
        return run

    out = {}
    with use_backend(BATCHED):
        for name, call in calls.items():
            call()
            times = []
            for _ in range(reps):
                start = time.perf_counter()
                call()
                times.append(time.perf_counter() - start)
            real = backend.ntt_forward_rns, backend.ntt_inverse_rns
            backend.ntt_forward_rns, backend.ntt_inverse_rns = map(counted, real)
            limbs.clear()
            try:
                call()
            finally:
                backend.ntt_forward_rns, backend.ntt_inverse_rns = real
            out[name] = {"ms": round(statistics.median(times) * 1e3, 3),
                         "limb_transforms": limbs["transforms"]}
    return out


def batch_split(batches: int) -> dict:
    import subjects
    from repro.serve.session import InferenceSession

    session = InferenceSession(subjects.packed_cnn(), TEST_FBS, seed=3)
    xs = [np.random.default_rng(i).integers(0, 4, (1, 3, 3)) for i in range(4)]
    seconds, calls = Counter(), Counter()

    def timed(owner, name, label):
        body = getattr(owner, name)

        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                return body(*args, **kwargs)
            finally:
                seconds[label] += time.perf_counter() - start
                calls[label] += 1
        setattr(owner, name, run)

    for name in BATCH_OPS:
        timed(BatchedBackend, name, name)
    timed(ntt, "_transform", "transform")
    timed(rns._ExtensionTables, "extend", "base extension")
    for _ in range(5):
        session.run_batch(xs)
    seconds.clear()
    calls.clear()
    walls = []
    for _ in range(batches):
        start = time.perf_counter()
        session.run_batch(xs)
        walls.append(time.perf_counter() - start)
    wall = statistics.median(walls)
    return {"ms": round(wall * 1e3, 2), "ops": {
        label: {"ms": round(s / batches * 1e3, 2), "share": round(s / batches / wall, 3),
                "calls": calls[label] // batches}
        for label, s in seconds.most_common()}}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=60, help="cmult_batch calls per stack")
    parser.add_argument("--batches", type=int, default=40, help="timed serve_packed batches")
    args = parser.parse_args()
    print(json.dumps({
        "cmult": {name: {str(b): cmult_ms(params, b, args.reps) for b in STACKS}
                  for name, params in PRESETS.items()},
        "kernels": {name: kernels_us(params) for name, params in PRESETS.items()},
        "ops": ops_us(TEST_LOOP),
        "s2c": s2c_ms(args.reps),
        "batch": batch_split(args.batches),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2),
    }, indent=1))


if __name__ == "__main__":
    main()
