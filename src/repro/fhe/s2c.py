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
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.fhe import slots as slotlib
from repro.fhe.backend import current_backend
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


@lru_cache(maxsize=None)
def _evaluation_matrix(n: int, t: int) -> np.ndarray:
    """P[s, j] = point_s^j over Z_t: slots = P @ coeffs."""
    points = _slot_points(n, t)
    mat = np.empty((n, n), dtype=np.int64)
    col = np.ones(n, dtype=np.int64)
    for j in range(n):
        mat[:, j] = col
        col = col * points % t
    return mat


@lru_cache(maxsize=None)
def s2c_plan(params: FheParams) -> MatvecPlan:
    """The one S2C mat-vec plan of ``params``, rotation index maps warmed.

    The evaluation matrix P depends only on (N, t), so the whole mat-vec
    — diagonal extraction of all four blocks, giant-step rolls, slot
    encoding, and the evaluation-domain stack of every group's diagonals
    — is request-invariant and built once per parameter set, on first use;
    :func:`repro.core.plan.compile_program` and
    :func:`repro.fhe.serialize.load_plan` call it so that no request pays
    the build, and :func:`slot_to_coeff` performs only ciphertext ops.
    """
    n, t = params.n, params.t
    half = n // 2
    p = _evaluation_matrix(n, t)
    p00, p01 = p[:half, :half], p[:half, half:]
    p10, p11 = p[half:, :half], p[half:, half:]
    passes = np.stack([
        hypercube_diagonals(p00, p11, half),  # meets rot_r(v)
        hypercube_diagonals(p01, p10, half),  # meets rot_r(swap(v))
    ])
    plan = MatvecPlan.build(passes, params, slotlib.default_baby_steps(half))
    plan.warm_automorphisms(params)
    return plan


def slot_to_coeff(
    ctx: BfvContext, ct: BfvCiphertext, keys: dict[int, KeySwitchKey]
) -> BfvCiphertext:
    """Return a ciphertext whose *coefficients* equal ``ct``'s slot values.

    ``keys`` are the mat-vec's Galois keys: the BSGS rotations (the
    pipeline shares the packing key's) plus the row swap. Dispatches
    through the active backend's :meth:`Backend.s2c`.
    """
    be = current_backend()
    with be.phase("s2c"):
        return be.s2c(ctx, ct, keys)


def slot_to_coeff_impl(
    ctx: BfvContext, ct: BfvCiphertext, keys: dict[int, KeySwitchKey]
) -> BfvCiphertext:
    """Default :meth:`Backend.s2c` implementation (one BSGS mat-vec)."""
    return hypercube_matvec(ctx, ct, s2c_plan(ctx.params), keys)
