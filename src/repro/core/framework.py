"""The Athena five-step loop on real ciphertexts (paper Fig. 2).

:class:`AthenaPipeline` wires the whole substrate together:

  Step 1  linear layer     — coefficient-encoded PMult (repro.core.encoding)
  Step 2  modulus switch   — Q -> q' noise refresh (repro.fhe.lwe)
  Step 3  sample extract   — RLWE -> LWE at the valid output coefficients,
                             then LWE dimension switch N -> n and the final
                             switch down to t
  Step 4  packing          — LWE -> RLWE slots via homomorphic decryption
  Step 5  FBS              — LUT polynomial evaluated on all slots at once
  (loop)  S2C              — slots back to coefficients for the next layer

:meth:`AthenaPipeline.run` executes a compiled plan
(:class:`repro.core.plan.CompiledProgram`, the whole ciphertext program):
:class:`CiphertextExecutor` walks the plan's own steps through the one
walker, :func:`repro.core.program.run_program`, with no lowered program
beside it.

This runs at *reduced* parameters (pure-Python crypto); the test suite uses
it to validate that the fast simulated engine's noise injection matches
real-ciphertext behaviour. Parameter sets must satisfy 2N | t-1 and carry
enough modulus for one full FBS depth (see ``TEST_LOOP`` in params).
"""

from __future__ import annotations

import numpy as np

from repro.core.encoding import encode_features
from repro.core.plan import (
    CompiledLinear,
    CompiledPool,
    CompiledProgram,
    CompiledRemap,
    CompiledResidual,
    RefreshRound,
)
from repro.core.program import ProgramExecutor, run_program
from repro.errors import ParameterError
from repro.fhe import lwe as lwelib
from repro.fhe.backend import current_backend
from repro.fhe.bfv import BfvCiphertext, BfvContext, Plaintext
from repro.fhe.fbs import FbsLut, fbs_evaluate
from repro.fhe.packing import PackingKey, pack_lwe
from repro.fhe.params import FheParams
from repro.fhe.s2c import slot_to_coeff
from repro.fhe.slots import pack_lane_coeffs, row_swap_element, unpack_lane_coeffs
from repro.utils.sampling import Sampler


class AthenaPipeline:
    """All keys + the five-step loop for one parameter set.

    Every op runs on the ambient :func:`current_backend`; the pipeline pins
    none. A session (:class:`repro.serve.InferenceSession`) installs its
    pin around keygen and each run; a bare pipeline follows the
    ``use_backend`` block enclosing the call.

    The pipeline keeps no counters and no clocks. Every step runs inside a
    backend phase (``linear`` / ``se`` / ``packing`` / ``fbs`` / ``s2c``);
    install a :class:`repro.fhe.backend.CountingBackend` to get every
    primitive actually dispatched, and the seconds spent, per phase.
    """

    def __init__(self, params: FheParams, seed: int = 0):
        self.params = params
        with current_backend().phase("keygen"):
            self.ctx = BfvContext(params, seed=seed)
            self.sk, self.pk = self.ctx.keygen()
            self.rlk = self.ctx.relin_key(self.sk)
            sampler = Sampler(seed + 1)
            self.lwe_secret = sampler.ternary(params.lwe_n)
            self.lwe_ksk = lwelib.keyswitch_keygen(
                self.sk.coeffs, self.lwe_secret, params.lwe_q, lwelib.KS_BASE_BITS, sampler
            )
            self.packing_key = PackingKey.generate(
                self.ctx, self.lwe_secret, self.sk, self.pk
            )
            # Packing and S2C rotate by the same BSGS amounts under the
            # same secret: S2C holds the packing key's Galois keys (the
            # same objects) and adds only the row swap. Packing itself
            # uses them once, below, never on a request.
            swap = self.ctx.galois_keys(self.sk, [row_swap_element(params.n)])
            self.s2c_keys = self.packing_key.rotation_keys | swap
            # The packing key's stack of rotated secrets, every packing's
            # sources, is built once here from the Galois keys.
            self.packing_key.rotated_secrets()

    # -- I/O -----------------------------------------------------------------

    def encrypt_coeffs(self, values: np.ndarray) -> BfvCiphertext:
        return self.ctx.encrypt(Plaintext.from_coeffs(values, self.params), self.pk)

    def decrypt_coeffs(self, ct: BfvCiphertext) -> np.ndarray:
        return self.ctx.decrypt(ct, self.sk).coeffs

    def decrypt_slots(self, ct: BfvCiphertext) -> np.ndarray:
        return self.ctx.decrypt(ct, self.sk).to_slots()

    # -- Step 1: linear layer ---------------------------------------------------

    def linear(self, ct: BfvCiphertext, kernel: np.ndarray | Plaintext) -> BfvCiphertext:
        """Coefficient-encoded convolution/FC: one plaintext multiplication.

        ``kernel`` may be a raw coefficient array or a pre-encoded
        :class:`Plaintext` (a compile-time artifact whose NTT operand form
        is already cached — see :mod:`repro.core.plan`).
        """
        with current_backend().phase("linear"):
            if not isinstance(kernel, Plaintext):
                kernel = Plaintext.from_coeffs(kernel, self.params)
            return self.ctx.pmult(ct, kernel)

    # -- Steps 2-3: noise control + conversion -------------------------------------

    def refresh_to_lwe(
        self, ct: BfvCiphertext, positions: np.ndarray | None = None
    ) -> lwelib.LweBatch:
        """Modulus switch, extract the valid coefficients, switch dimension
        and modulus down to t. Resulting messages sit at Delta = 1."""
        small = lwelib.rlwe_mod_switch(ct, self.params.lwe_q)
        batch = lwelib.sample_extract(small, positions)
        switched = lwelib.keyswitch(batch, self.lwe_ksk)
        return lwelib.lwe_mod_switch(switched, self.params.t)

    # -- Steps 4-5: packing + FBS ---------------------------------------------------

    def bootstrap(self, batch: lwelib.LweBatch, lut: FbsLut) -> BfvCiphertext:
        """Pack LWE ciphertexts into slots and evaluate the LUT polynomial."""
        packed = pack_lwe(self.ctx, batch, self.packing_key)
        return fbs_evaluate(self.ctx, packed, lut, self.rlk)

    # -- loop closure -------------------------------------------------------------

    def to_coeffs(self, ct: BfvCiphertext) -> BfvCiphertext:
        """S2C: prepare the FBS output for the next coefficient-encoded layer."""
        return slot_to_coeff(self.ctx, ct, self.s2c_keys)

    def loop(
        self,
        ct: BfvCiphertext,
        kernel_coeffs: np.ndarray,
        lut: FbsLut,
        positions: np.ndarray,
    ) -> BfvCiphertext:
        """One complete five-step round: Conv -> refresh -> FBS -> S2C."""
        if positions.shape[0] > self.params.n:
            raise ParameterError("more outputs than slots")
        out = self.linear(ct, kernel_coeffs)
        batch = self.refresh_to_lwe(out, positions)
        return self.to_coeffs(self.bootstrap(batch, lut))

    # -- compiled-plan driver ---------------------------------------------------

    def run(self, plan: CompiledProgram, x_q: np.ndarray) -> np.ndarray:
        """Execute a :class:`repro.core.plan.CompiledProgram` end to end on
        encrypted data: encode + encrypt the quantized input client-side,
        run one five-step round per LUT-bearing step, decrypt the tail.

        The plan is the whole program — compiled, or loaded from its wire
        form with no program at all — and the run performs ciphertext ops
        only. The tail step's ``s2c=False`` flag (program fusion rule 4) is
        honoured here: the final FBS output is decoded from slots directly.
        Returns the centered integer outputs — comparable, up to FHE noise,
        with ``QuantizedModel.forward_int`` on the model the plan was
        compiled from.

        This is the one-lane call of :meth:`run_batch`.
        """
        return self.run_batch(plan, [x_q])[0]

    def run_batch(
        self, plan: CompiledProgram, xs: list[np.ndarray]
    ) -> list[np.ndarray]:
        """Run ``len(xs)`` independent inputs through *one* fused execution.

        The inputs are packed into a single ciphertext at the plan's lane
        stride (see :class:`repro.core.plan.LaneLayout`), so the whole batch
        pays for one PMult, one refresh chain, one pack + FBS, and one S2C
        per layer — the amortization Eq. 1's spare coefficient space buys.
        Lane count is bounded by ``plan.batch_capacity``; one input is a
        batch of one, and :meth:`run` is that call.
        Returns the centered integer outputs, one array per input, in order.
        """
        if not xs:
            return []
        xs = np.stack([plan.entry_input(x) for x in xs])
        ex = CiphertextExecutor(self, plan, lanes=len(xs))
        ct = run_program(plan, ex, xs)
        raw = self.decrypt_coeffs(ct) if ex.tail_s2c else self.decrypt_slots(ct)
        vals = unpack_lane_coeffs(raw, ex.lane_stride, len(xs), ex.out_count)
        t = self.params.t
        return list(np.where(vals > t // 2, vals - t, vals))


class CiphertextExecutor(ProgramExecutor):
    """Thin interpreter: walks a compiled plan with ciphertext ops.

    The flowing value is a BFV ciphertext, and the steps handed to each
    handler are the plan's own (:class:`CompiledLinear`,
    :class:`CompiledPool`, ...). All request-invariant work — kernel/bias
    encoding, every :class:`RefreshRound` and the LUT it carries with its
    polynomial and BSGS schedule — lives in the :class:`CompiledProgram`
    (compiling or loading it also builds the parameter set's one S2C plan),
    so each :meth:`linear` call performs only encrypt (first step), PMult,
    and :meth:`_refresh` — the one place the loop's refresh -> pack -> FBS
    -> S2C is written — on the request's data.

    Every image count runs the one lane path: each linear step takes its
    geometry from :meth:`CompiledLinear.lane_layout`, and one lane is the
    step's own round and bias. The entry step — always a conv/FC; a
    :class:`CompiledProgram` refuses to exist otherwise — receives the raw
    quantized inputs, stacked, and performs the client-side encode: one
    reshape per lane to its ``in_shape``, its zero padding, every lane
    packed at the layout's input stride, encrypt. Interior layers chain
    through the plan's feature layouts: every refresh round places its LWE
    samples onto the next consumer's rows (compact Eq. 1 order, or a padded
    interior grid whose margin is the next convolution's zero padding) and
    zeroes every row it leaves, for any table.

    MAC-domain max-pool fusion replays the plan's ``(delta, round)`` tree
    (``max(a, b) = b + relu(a - b)`` per level, one exact monomial shift +
    one ReLU refresh round each); average/global pooling runs as a
    depthwise all-ones PMult followed by a division-LUT refresh; residual
    joins add the branch ciphertexts (``main + alpha * skip``) and refresh
    through the block's wide-scale LUT. A step the parameter set cannot hold
    fails :func:`repro.core.plan.compile_program`; a plan that is not a
    model's fails ``bind`` where the two meet — nothing is re-checked per
    step or per request.
    """

    def __init__(self, pipe: AthenaPipeline, plan: CompiledProgram, lanes: int = 1):
        if lanes < 1:
            raise ParameterError(f"need at least one lane, got {lanes}")
        if plan.params != pipe.params:
            raise ParameterError("plan was compiled for different parameters")
        if lanes > plan.batch_capacity:
            raise ParameterError(
                f"{lanes} lanes exceed the plan's batch capacity "
                f"{plan.batch_capacity}"
            )
        self.pipe = pipe
        self.lanes = lanes
        self.out_count = 0
        #: Coefficient/slot distance between consecutive lanes' outputs.
        self.lane_stride = 0
        self.tail_s2c = True

    def linear(self, step: CompiledLinear, value) -> BfvCiphertext:
        pipe, n = self.pipe, self.pipe.params.n
        layout = step.lane_layout(self.lanes, pipe.params)
        if isinstance(value, np.ndarray):
            # The entry step: every lane's image onto this step's grid, at
            # the layout's input stride.
            p = step.pad
            imgs = np.pad(value.reshape(self.lanes, *step.in_shape),
                          ((0, 0), (0, 0), (p, p), (p, p)))
            value = pipe.encrypt_coeffs(pack_lane_coeffs(
                [encode_features(m, n)[: layout.in_stride] for m in imgs],
                layout.in_stride, n))
        # An interior step's input is already where its kernel expects it:
        # the previous refresh packed it onto exactly this step's layout
        # (compact Eq. 1 rows, or a padded grid whose exact-zero margin is
        # this convolution's zero padding).
        out = pipe.linear(value, step.kernel)
        if layout.bias is not None:
            with current_backend().phase("linear"):
                out = pipe.ctx.add_plain(out, layout.bias)
        for delta, rnd in step.pool_rounds or ():
            out = self._max_round(out, delta, rnd)
        self.out_count = step.round.count
        self.lane_stride = layout.out_stride
        self.tail_s2c = step.s2c
        return self._refresh(out, layout.round, step.s2c)

    def _refresh(
        self, ct: BfvCiphertext, rnd: RefreshRound, s2c: bool
    ) -> BfvCiphertext:
        """The loop's refresh (Fig. 2 steps 2-5, then S2C), written once.

        Mod-switch + extract at the round's positions, scatter the samples
        onto its pack rows (gap rows are trivial zero encryptions), pack +
        FBS through its table, zero the unfilled rows exactly with its
        ``-LUT(0)`` plaintext (absent only when there is nothing to cancel),
        and return to coefficients.
        """
        pipe = self.pipe
        batch = pipe.refresh_to_lwe(ct, rnd.positions).place(rnd.rows, rnd.height)
        boot = pipe.bootstrap(batch, rnd.lut)
        if rnd.correction is not None:
            with current_backend().phase("fbs"):
                boot = pipe.ctx.add_plain(boot, rnd.correction)
        return pipe.to_coeffs(boot) if s2c else boot

    def _max_round(
        self, ct: BfvCiphertext, delta: int, rnd: RefreshRound
    ) -> BfvCiphertext:
        """One MAC-domain max-tree level: ``max(a, b) = b + relu(a - b)``.

        ``shifted = ct * X^(n - delta)`` holds ``-x[p + delta]`` at every
        coefficient ``p`` (each kept cell satisfies ``p + delta < n``, so
        the partner always arrives through the negacyclic wrap with sign
        flipped — an exact subtraction, not an approximation). The
        differences are refreshed through the MAC-domain ReLU at the kept
        cells and *placed back onto the same rows*; relu(0) = 0 keeps the
        off-row coefficients exact zeros, so ``relu_ct - shifted`` restores
        ``max(a, b)`` at every kept cell. Off-row garbage in the result is
        never read: the next level's partners are this level's kept cells.
        """
        pipe = self.pipe
        offset = pipe.params.n - delta
        with current_backend().phase("pooling"):
            # Exact monomial multiplication by X^offset (no key material).
            shifted = BfvCiphertext(
                ct.c0.negacyclic_shift(offset), ct.c1.negacyclic_shift(offset),
                ct.params, ct.noise_bits)
            diff = pipe.ctx.add(ct, shifted)
        relu_ct = self._refresh(diff, rnd, True)
        with current_backend().phase("pooling"):
            return pipe.ctx.sub(relu_ct, shifted)

    def pool(self, step: CompiledPool, value):
        """Average/global pooling: one depthwise all-ones PMult.

        The window sums accumulate in the MAC domain at the plan's
        positions; the mandatory following :meth:`remap` step refreshes
        them through the division LUT.
        """
        return self.pipe.linear(value, step.kernel)

    def remap(self, step: CompiledRemap, value):
        """A bare LUT refresh round (the pooling division tables)."""
        return self._close(value, step.round, step.s2c)

    def _close(self, ct: BfvCiphertext, rnd: RefreshRound, s2c: bool):
        """Refresh a one-image round (these steps cap the batch at one
        lane) and record the tail geometry."""
        self.out_count = self.lane_stride = rnd.count
        self.tail_s2c = s2c
        return self._refresh(ct, rnd, s2c)

    def residual(self, step: CompiledResidual, main, skip):
        """Join the branches and refresh through the wide-scale LUT.

        Both branch tails packed into the shared join layout at compile
        time, so the join itself is ``main + alpha * skip`` followed by
        one standard refresh round placed into the next consumer's layout.
        """
        pipe = self.pipe
        with current_backend().phase("residual"):
            if step.alpha != 1:
                skip = pipe.ctx.smult(skip, step.alpha)
            total = pipe.ctx.add(main, skip)
        return self._close(total, step.round, step.s2c)
