"""Shared fixtures: contexts and keys are expensive, so build them once."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.fhe.bfv import BfvContext
from repro.fhe.params import TEST_FBS, TEST_SMALL, TEST_TINY


@pytest.fixture(scope="session")
def small_ctx():
    return BfvContext(TEST_SMALL, seed=101)


@pytest.fixture(scope="session")
def small_keys(small_ctx):
    return small_ctx.keygen()


@pytest.fixture(scope="session")
def tiny_ctx():
    return BfvContext(TEST_TINY, seed=202)


@pytest.fixture(scope="session")
def tiny_keys(tiny_ctx):
    return tiny_ctx.keygen()


@pytest.fixture(scope="session")
def fbs_ctx():
    return BfvContext(TEST_FBS, seed=303)


@pytest.fixture(scope="session")
def fbs_keys(fbs_ctx):
    return fbs_ctx.keygen()


@pytest.fixture(scope="session")
def fbs_rlk(fbs_ctx, fbs_keys):
    sk, _ = fbs_keys
    return fbs_ctx.relin_key(sk)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


def sigmoid_pack_cnn():
    """The ``pack`` subject with its conv switched to sigmoid / out_scale
    0.125: a *hidden* layer whose table has LUT(0) = 4. Not a ``SUBJECTS``
    entry — the pinned fingerprints do not move."""
    from repro.quant.subjects import micro_subject

    qm, _ = micro_subject("pack")
    qm.layers[0] = dataclasses.replace(
        qm.layers[0], activation="sigmoid", out_scale=0.125)
    return qm


def plan_rounds(steps):
    """Every :class:`repro.core.plan.RefreshRound` under a step list: layer
    tails, max-tree levels, remaps, residual joins and both branches."""
    for step in steps:
        if getattr(step, "round", None) is not None:
            yield step.round
        for _, rnd in getattr(step, "pool_rounds", None) or ():
            yield rnd
        yield from plan_rounds(getattr(step, "body", None) or [])
        yield from plan_rounds(getattr(step, "shortcut", None) or [])


#: Largest derivative of each merged activation: what a LUT input error is
#: multiplied by, beside the linear ``remap_multiplier``, on its way out.
ACTIVATION_SLOPE = {"identity": 1.0, "relu": 1.0, "sigmoid": 0.25, "gelu": 1.13}

#: Tolerance of a real-ciphertext run against ``forward_int``, in standard
#: deviations of the modelled logit error (one logit in 16 000 beyond it).
REFRESH_SIGMAS = 4


def keyswitch_noise_bound(params) -> float:
    """What one hybrid keyswitch adds, in magnitude: the key's noise over P
    (``L * N`` terms of at most ``6 sigma * max(q_i)``, divided by P) and
    ``(N + 1) / 2`` for the two roundings (one of them times s)."""
    l, n = len(params.moduli), params.n
    return (l * n * 6 * params.sigma * max(params.moduli) / params.special_prime
            + (n + 1) / 2)


def refresh_noise_bound(qm, params) -> int:
    """``REFRESH_SIGMAS`` sigma of the logit error the refresh noise causes.

    Closed form over the last two LUT rounds of the lowered model; it reads
    weights and scales, never an engine. Each refresh perturbs its LUT input
    by e_ms of std sigma_ms = sqrt((|s|^2 + 1) / 12): 1.91 at TEST_LOOP for
    the expected ternary norm (benchmarks/ledger/README.md measures 1.89 on
    a drawn secret). The round feeding the head scales that by its LUT slope
    mu (a fused max-pool tree refreshes once more per level first) and
    rounds, leaving an activation error of variance eps^2 + E[f(1 - f)] <=
    eps^2 + min(sqrt(2/pi) * eps, 1/4), eps = mu * sigma_ms the std before
    rounding and f the fractional part of that error's magnitude. The head
    sums those through its weights (largest row norm), adds
    its own e_ms, and scales by its slope. Earlier rounds shrink by every
    slope after them and are left to the sigma multiple. Which ciphertext
    bits a run draws moves its error inside this bound, never the bound.

    A LUT's slope is its linear ``remap_multiplier`` times the largest
    derivative of its activation (``ACTIVATION_SLOPE``): 1 for relu and
    identity, so their bounds are the multiplier's alone; 1/4 for sigmoid,
    whose table is far flatter than its multiplier says (multiplier 8,
    steepest table step 2 on the sigmoid test models — taking the
    multiplier alone put their bound at 27-30 LSB, wide enough to hold a
    5-LSB wrong answer; it is 7-8 with the derivative).
    """
    from repro.core.inference import AthenaNoiseModel
    from repro.core.program import lower

    def slope(spec):
        if spec.kind == "divide":
            return 1 / spec.divisor
        act = getattr(spec.source, "activation", "relu")  # residual joins rectify
        return spec.source.remap_multiplier * ACTIVATION_SLOPE[act]

    *_, feed, head = lower(qm, params).lut_steps()
    sigma_ms = AthenaNoiseModel(params).std
    pool = getattr(feed, "fused_pool", None)
    levels = int(np.ceil(np.log2(pool.kernel**2))) if pool else 0
    eps = slope(feed.lut) * sigma_ms * np.sqrt(1 + levels)
    act_var = eps**2 + min(np.sqrt(2 / np.pi) * eps, 0.25)
    rows = head.layer.weight.reshape(head.layer.weight.shape[0], -1)
    mac_var = sigma_ms**2 + act_var * (rows.astype(np.float64) ** 2).sum(axis=1).max()
    return int(np.ceil(REFRESH_SIGMAS * slope(head.lut) * np.sqrt(mac_var)))


@pytest.fixture()
def executed_mod_muls():
    """``run(program, plan, x_q, params) -> (output, counted mod_muls)``."""
    from repro.core.framework import AthenaPipeline
    from repro.fhe.backend import CountingBackend, use_backend

    def run(program, plan, x_q, params):
        pipe = AthenaPipeline(params, seed=41)
        counting = CountingBackend("batched")
        with use_backend(counting):
            out = pipe.run_program(program, x_q, plan=plan)
        return out, counting.totals()["mod_mul"]

    return run
