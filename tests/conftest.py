"""Shared fixtures: contexts and keys are expensive, so build them once."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.fhe import rns
from repro.fhe.bfv import BfvContext
from repro.fhe.params import TEST_FBS, TEST_SMALL, TEST_TINY
from repro.utils.sampling import SIGMA


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


@pytest.fixture()
def exact_route_calls(monkeypatch):
    """Count the coefficients :func:`repro.fhe.rns.base_extend` sends down
    the big-int route."""
    calls = []
    real = rns._exact_overflow

    def spy(digits, src):
        calls.append(len(src))
        return real(digits, src)

    monkeypatch.setattr(rns, "_exact_overflow", spy)
    return calls


def sigmoid_pack_cnn():
    """The ``pack`` subject with its conv switched to sigmoid / out_scale
    0.125: a *hidden* layer whose table has LUT(0) = 4. Not a ``SUBJECTS``
    entry — the pinned fingerprints do not move."""
    from repro.quant.subjects import micro_subject

    qm, _ = micro_subject("pack")
    qm.layers[0] = dataclasses.replace(
        qm.layers[0], activation="sigmoid", out_scale=0.125)
    return qm


def s2c_keys(ctx, sk):
    """The S2C mat-vec's Galois keys on their own: the BSGS rotations plus
    the row swap (the pipeline shares its rotations with packing)."""
    from repro.fhe.slots import baby_giant_amounts, row_swap_element

    n = ctx.params.n
    keys = ctx.rotation_keys(sk, baby_giant_amounts(n // 2))
    return keys | ctx.galois_keys(sk, [row_swap_element(n)])


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
    (``D * N`` terms of at most ``6 sigma * max(Q_j) / 2``, a centred digit
    times a key error, divided by P) and ``(N + 1) / 2`` for the two
    roundings (one of them times s)."""
    from repro.fhe.backend import digit_groups

    groups = digit_groups(params.num_limbs, params.keyswitch_moduli)
    widest = max(math.prod(params.moduli[rows]) for rows in groups)
    n, p = params.n, math.prod(params.special_moduli)
    return len(groups) * n * 6 * SIGMA * widest / 2 / p + (n + 1) / 2


def monomial_map(coeffs, k: int, shift: int, q: int) -> list[int]:
    """x(X^k) * X^shift mod (X^N + 1, q) on a list of integer coefficients:
    the exact oracle of an automorphism (shift 0) and of a shift (k = 1)."""
    n = len(coeffs)
    out = [0] * n
    for j, u in enumerate(coeffs):  # X^j -> X^(jk + shift), X^(N + r) = -X^r
        d = (j * k + shift) % (2 * n)
        out[d % n] = (u if d < n else -u) % q
    return out


def assert_rounding_apart(x, y, moduli, roundings: int) -> None:
    """``x - y`` over Q is one small integer polynomial (the same on every
    limb) with |coefficient| <= ``roundings // 2``: the mod-down of a sum
    of ``roundings`` terms over Q u P against the sum of their mod-downs.
    The centred P lifts differ by a multiple of P below (roundings + 1) * P
    / 2, so one term (one giant) is bit for bit."""
    mods = np.array(moduli, dtype=np.int64)[:, None]
    diff = (np.asarray(x) - np.asarray(y)) % mods
    diff = np.where(diff > mods // 2, diff - mods, diff)
    assert (diff == diff[..., :1, :]).all()
    assert np.abs(diff).max() <= roundings // 2


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
    """``run(plan, x_q) -> (output, counted mod_muls)``."""
    from repro.core.framework import AthenaPipeline
    from repro.fhe.backend import CountingBackend, use_backend

    def run(plan, x_q):
        pipe = AthenaPipeline(plan.params, seed=41)
        counting = CountingBackend("batched")
        with use_backend(counting):
            out = pipe.run(plan, x_q)
        return out, counting.totals()["mod_mul"]

    return run
