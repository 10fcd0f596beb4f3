"""Slot-to-Coefficient transform (paper Fig. 2, between Step 5 and Step 1).

After FBS the activation values live in plaintext *slots*; the next
convolution needs them as plaintext *coefficients*. Coefficients and slots
are related by the linear evaluation map P (slots = P @ coeffs, a permuted
NTT matrix over Z_t), so moving slot values into coefficients is the
homomorphic evaluation of P on the slot vector:

    slots(ct') = P @ slots(ct)   =>   coeffs(ct') = slots(ct).

P is N x N while the rotation group acts on a 2 x (N/2) hypercube, so P is
four (N/2)^2 blocks: the block-diagonal part meets the rotations of the
ciphertext, the anti-diagonal part the rotations of its row swap. That is
*one* BSGS Halevi-Shoup mat-vec over both families of sources (the fused
:meth:`Backend.matvec`, which the batched engine evaluates without leaving
the NTT domain): a giant group holds both blocks' diagonals, so it is
summed once and rotated once — ``rot_g(A) + rot_g(B) = rot_g(A + B)``.
The O(sqrt(N)) rotation cost is the one the framework's complexity table
assumes (the paper's O(cbrt(N)) three-stage factorization is a further
constant-factor optimization of the same step).

That dense plan is the period-N case: a round of at most N/2 rows packs
them repeated at its period p (:func:`repro.fhe.packing.pack_lwe`), and its
transform is one pass of p diagonals (:func:`s2c_plan`).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.fhe import slots as slotlib
from repro.fhe.backend import current_backend, warm_automorphism
from repro.fhe.bfv import BfvCiphertext, BfvContext
from repro.fhe.keys import KeySwitchKey
from repro.fhe.packing import MatvecPlan, hypercube_diagonals, hypercube_matvec
from repro.fhe.params import FheParams
from repro.utils.modmath import root_of_unity


@lru_cache(maxsize=None)
def _slot_points(n: int, t: int) -> np.ndarray:
    """Evaluation point of each hypercube slot (see repro.fhe.slots)."""
    zeta = root_of_unity(2 * n, t)
    points = np.empty(n, dtype=np.int64)
    exp = 1
    for j in range(n // 2):
        points[j] = pow(zeta, exp, t)
        points[n // 2 + j] = pow(zeta, 2 * n - exp, t)
        exp = exp * 3 % (2 * n)
    return points


def _evaluation_columns(n: int, t: int, cols: int) -> np.ndarray:
    """The first ``cols`` columns of P, P[s, j] = point_s^j over Z_t:
    slots = P @ coeffs."""
    points = _slot_points(n, t)
    mat = np.empty((n, cols), dtype=np.int64)
    col = np.ones(n, dtype=np.int64)
    for j in range(cols):
        mat[:, j] = col
        col = col * points % t
    return mat


@lru_cache(maxsize=None)
def s2c_plan(params: FheParams, period: int) -> MatvecPlan:
    """The S2C mat-vec plan of ``params`` for slot vectors of ``period``
    (:func:`repro.fhe.slots.period`), the index tables of the Galois
    elements it uses warmed.

    Slot s of a vector of period p | N/2 holds u[pos(s) mod p] in either row,
    pos(s) = s mod N/2, so slot s of ``rot_d`` of it holds u[(pos(s) + d) mod
    p]: P's first p columns are one pass of p diagonals ``Q_d[s] = P[s,
    (pos(s) + d) mod p]`` at ``bs = min(p, default_baby_steps(N/2))``, no row
    swap. p = N is any vector: two passes of N/2.

    The plan depends on (N, t, p) alone, so it is built once per parameter
    set and period — the :class:`repro.core.plan.CompiledProgram`
    constructor builds every period its S2Cs run at — and
    :func:`slot_to_coeff` performs only ciphertext ops.
    """
    n, t = params.n, params.t
    half = n // 2
    slotlib.check_period(period, n)
    bs = slotlib.default_baby_steps(half)
    if period == n:
        p = _evaluation_columns(n, t, n)
        p00, p01 = p[:half, :half], p[:half, half:]
        p10, p11 = p[half:, :half], p[half:, half:]
        passes = np.stack([
            hypercube_diagonals(p00, p11, half),  # meets rot_r(v)
            hypercube_diagonals(p01, p10, half),  # meets rot_r(swap(v))
        ])
    else:
        slot = np.arange(n)
        cols = (slot % half + np.arange(period)[:, None]) % period
        passes = _evaluation_columns(n, t, period)[slot, cols]
        bs = min(period, bs)
    plan = MatvecPlan.build(passes, params, bs)
    # The batched mat-vec gathers by the evaluation-domain permutation, the
    # reference permutes coefficients: both tables of every Galois element
    # this plan rotates by — its derived images and its giant steps — are
    # built here, a few N-entry arrays, so its transform builds none.
    elements = [k for _, images in plan.derived for _, k in images]
    elements += [slotlib.rotation_galois_element(n, g * bs) for g, _, _ in plan.groups if g]
    for k in elements:
        warm_automorphism(n, k)
    return plan


def slot_to_coeff(
    ctx: BfvContext, ct: BfvCiphertext, keys: dict[int, KeySwitchKey], period: int
) -> BfvCiphertext:
    """Return a ciphertext whose *coefficients* equal ``ct``'s slot values.

    ``ct``'s slots must repeat with ``period`` (:func:`repro.fhe.slots.period`;
    N for any vector): the coefficients are then its first ``period`` slots,
    zeros above. ``keys`` are the mat-vec's Galois keys: the BSGS rotations
    (the pipeline shares the packing key's) plus the row swap. Dispatches
    through the active backend's :meth:`Backend.s2c`.
    """
    be = current_backend()
    with be.phase("s2c"):
        return be.s2c(ctx, ct, keys, period)


def slot_to_coeff_impl(
    ctx: BfvContext, ct: BfvCiphertext, keys: dict[int, KeySwitchKey], period: int
) -> BfvCiphertext:
    """Default :meth:`Backend.s2c` implementation (one BSGS mat-vec)."""
    return hypercube_matvec(ctx, ct, s2c_plan(ctx.params, period), keys)
