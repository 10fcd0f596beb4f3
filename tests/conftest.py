"""Shared fixtures: contexts and keys are expensive, so build them once."""

from __future__ import annotations

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
