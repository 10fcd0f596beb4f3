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

This runs at *reduced* parameters (pure-Python crypto); the test suite uses
it to validate that the fast simulated engine's noise injection matches
real-ciphertext behaviour. Parameter sets must satisfy 2N | t-1 and carry
enough modulus for one full FBS depth (see ``TEST_LOOP`` in params).
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from repro.core.encoding import encode_features
from repro.core.plan import CompiledProgram, RefreshRound, compile_program
from repro.fhe.slots import pack_lane_coeffs, row_swap_element
from repro.core.program import (
    AthenaProgram,
    LinearStep,
    PoolStep,
    ProgramExecutor,
    RemapStep,
    ResidualStep,
)
from repro.core.program import run_program as _run_steps
from repro.errors import ParameterError
from repro.fhe import lwe as lwelib
from repro.fhe.backend import Backend, current_backend, get_backend, use_backend
from repro.fhe.bfv import BfvCiphertext, BfvContext, Plaintext
from repro.fhe.fbs import FbsLut, FbsPlan, fbs_evaluate
from repro.fhe.packing import PackingKey, pack_lwe
from repro.fhe.params import FheParams
from repro.fhe.s2c import S2CKey, S2CPlan, slot_to_coeff
from repro.utils.sampling import Sampler


class AthenaPipeline:
    """All keys + the five-step loop for one parameter set.

    A :class:`repro.fhe.backend.Backend` (or backend name) may be bound at
    construction; every pipeline entry point then installs it as the
    context-active backend for the duration of the call, so op counting
    and batched/serial selection follow the pipeline rather than whatever
    the ambient context happens to be. Without one, the
    ambient :func:`current_backend` (contextvar, then ``REPRO_BACKEND``,
    then batched) applies.

    The pipeline keeps no counters and no clocks. Every step runs inside a
    backend phase (``linear`` / ``se`` / ``packing`` / ``fbs`` / ``s2c``);
    bind or install a :class:`repro.fhe.backend.CountingBackend` to get
    every primitive actually dispatched, and the seconds spent, per phase.
    """

    def __init__(
        self,
        params: FheParams,
        seed: int = 0,
        ks_base_bits: int = 7,
        backend: Backend | str | None = None,
    ):
        self.params = params
        self.backend = get_backend(backend) if backend is not None else None
        with self._dispatch(), current_backend().phase("keygen"):
            self.ctx = BfvContext(params, seed=seed)
            self.sk, self.pk = self.ctx.keygen()
            self.rlk = self.ctx.relin_key(self.sk)
            sampler = Sampler(seed + 1, sigma=params.sigma)
            self.lwe_secret = sampler.ternary(params.lwe_n)
            self.lwe_ksk = lwelib.keyswitch_keygen(
                self.sk.coeffs, self.lwe_secret, params.lwe_q, ks_base_bits, sampler
            )
            self.packing_key = PackingKey.generate(
                self.ctx, self.lwe_secret, self.sk, self.pk
            )
            # Packing and S2C rotate by the same BSGS amounts under the
            # same secret: S2C holds the packing key's Galois keys (the
            # same objects) and adds only the row swap. Packing itself
            # uses them once, below, never on a request.
            swap = self.ctx.galois_keys(self.sk, [row_swap_element(params.n)])
            self.s2c_key = S2CKey(
                self.packing_key.rotation_keys | swap, self.packing_key.baby_steps
            )
            # Warm the NTT-domain stacks of every keyswitch key once at
            # keygen: the fused kernels multiply against these on every
            # rotation/CMult, so no request ever pays the key transforms.
            # Then the packing key's stack of rotated secrets, every
            # packing's sources, which is built from them.
            self.rlk.warm()
            for gk in self.s2c_key.rotation_keys.values():
                gk.warm()
            self.packing_key.rotated_secrets()

    def _dispatch(self):
        """Install the pipeline's backend as the context-active one."""
        return use_backend(self.backend) if self.backend is not None else nullcontext()

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
        with self._dispatch(), current_backend().phase("linear"):
            if not isinstance(kernel, Plaintext):
                kernel = Plaintext.from_coeffs(kernel, self.params)
            return self.ctx.pmult(ct, kernel)

    # -- Steps 2-3: noise control + conversion -------------------------------------

    def refresh_to_lwe(
        self, ct: BfvCiphertext, positions: np.ndarray | None = None
    ) -> lwelib.LweBatch:
        """Modulus switch, extract the valid coefficients, switch dimension
        and modulus down to t. Resulting messages sit at Delta = 1."""
        with self._dispatch():
            small = lwelib.rlwe_mod_switch(ct, self.params.lwe_q)
            batch = lwelib.sample_extract(small, positions)
            switched = lwelib.keyswitch(batch, self.lwe_ksk)
            return lwelib.lwe_mod_switch(switched, self.params.t)

    # -- Steps 4-5: packing + FBS ---------------------------------------------------

    def bootstrap(
        self, batch: lwelib.LweBatch, lut: FbsLut, plan: FbsPlan | None = None
    ) -> BfvCiphertext:
        """Pack LWE ciphertexts into slots and evaluate the LUT polynomial.

        ``plan`` supplies a precomputed BSGS schedule; the op sequence (and
        result) is identical with or without it."""
        with self._dispatch():
            packed = pack_lwe(self.ctx, batch, self.packing_key)
            return fbs_evaluate(self.ctx, packed, lut, self.rlk, plan=plan)

    # -- loop closure -------------------------------------------------------------

    def to_coeffs(
        self, ct: BfvCiphertext, plan: S2CPlan | None = None
    ) -> BfvCiphertext:
        """S2C: prepare the FBS output for the next coefficient-encoded layer."""
        with self._dispatch():
            return slot_to_coeff(self.ctx, ct, self.s2c_key, plan=plan)

    def loop(
        self,
        ct: BfvCiphertext,
        kernel_coeffs: np.ndarray,
        lut: FbsLut,
        positions: np.ndarray,
        s2c: bool = True,
    ) -> BfvCiphertext:
        """One complete five-step round: Conv -> refresh -> FBS [-> S2C]."""
        if positions.shape[0] > self.params.n:
            raise ParameterError("more outputs than slots")
        out = self.linear(ct, kernel_coeffs)
        batch = self.refresh_to_lwe(out, positions)
        boot = self.bootstrap(batch, lut)
        return self.to_coeffs(boot) if s2c else boot

    # -- lowered-program driver ------------------------------------------------

    def run_program(
        self,
        program: AthenaProgram,
        x_q: np.ndarray,
        plan: CompiledProgram | None = None,
    ) -> np.ndarray:
        """Execute a lowered :class:`AthenaProgram` end to end on encrypted
        data: encode + encrypt the quantized input client-side, run one
        five-step round per LUT-bearing step, decrypt the tail.

        The tail step's ``s2c=False`` flag (program fusion rule 4) is
        honoured here: the final FBS output is decoded from slots directly.

        With ``plan`` (a :class:`repro.core.plan.CompiledProgram`) the run
        reuses compile-time artifacts and performs ciphertext ops only —
        the warm-session path of :class:`repro.serve.InferenceSession`.
        Without one, the program is compiled here, inside the call (under
        the backend's ``compile`` phase) — so a cold run's wall time
        honestly includes the compile work a warm run skips. Either way the
        homomorphic op sequence is identical, so outputs are bit-for-bit
        equal. Returns the centered integer outputs — comparable, up to FHE
        noise, with ``QuantizedModel.forward_int`` on the same program.

        This is the one-lane call of :meth:`run_batch`'s body.
        """
        return self._run_lanes(program, [x_q], plan)[0]

    def run_batch(
        self,
        program: AthenaProgram,
        xs: list[np.ndarray],
        plan: CompiledProgram | None = None,
    ) -> list[np.ndarray]:
        """Run ``len(xs)`` independent inputs through *one* fused execution.

        The inputs are packed into a single ciphertext at the plan's lane
        stride (see :class:`repro.core.plan.LaneLayout`), so the whole batch
        pays for one PMult, one refresh chain, one pack + FBS, and one S2C
        per layer — the amortization Eq. 1's spare coefficient space buys.
        Lane count is bounded by ``plan.batch_capacity``. With one input
        this is exactly the :meth:`run_program` op sequence.
        Returns the centered integer outputs, one array per input, in order.
        """
        if not xs:
            return []
        return self._run_lanes(program, xs, plan)

    def _run_lanes(self, program, xs, plan) -> list[np.ndarray]:
        """The one execution body: ``len(xs)`` lanes through one ciphertext."""
        xs = [np.asarray(x, dtype=np.int64) for x in xs]
        with self._dispatch():
            ex = CiphertextExecutor(self, program, plan=plan, lanes=len(xs))
            ct = _run_steps(program, ex, xs[0] if len(xs) == 1 else np.stack(xs))
            raw = self.decrypt_coeffs(ct) if ex.tail_s2c else self.decrypt_slots(ct)
        t = self.params.t
        outs = []
        for d in range(len(xs)):
            vals = raw[d * ex.lane_stride : d * ex.lane_stride + ex.out_count]
            outs.append(np.where(vals > t // 2, vals - t, vals))
        return outs


class CiphertextExecutor(ProgramExecutor):
    """Thin interpreter: replays compile-time plans with ciphertext ops.

    The flowing value is a BFV ciphertext. All request-invariant work —
    kernel/bias encoding, LUT interpolation and BSGS scheduling, S2C
    diagonals, every :class:`RefreshRound` — lives in the
    :class:`CompiledProgram` (compiled at construction when not supplied),
    so each :meth:`linear` call performs only encrypt (first step), PMult,
    and :meth:`_refresh` — the one place the loop's refresh -> pack -> FBS
    -> S2C is written — on the request's data. Plan
    artifacts are resolved by *step index*, never by object identity, so a
    deserialized plan drives any equivalent re-lowered program.

    The entry step — always a conv/FC; :meth:`CompiledProgram.bind` checks
    it once — receives the raw quantized input array and performs the
    client-side encode (including any zero-padding) + encrypt. Interior
    layers chain through the plan's feature layouts: every refresh round
    places its LWE samples onto the next consumer's rows (compact Eq. 1
    order, or a padded interior grid whose margin is the next convolution's
    zero padding) and zeroes every row it leaves, for any table.

    MAC-domain max-pool fusion replays the plan's ``(delta, round)`` tree
    (``max(a, b) = b + relu(a - b)`` per level, one exact monomial shift +
    one ReLU refresh round each); average/global pooling runs as a
    depthwise all-ones PMult followed by a division-LUT refresh; residual
    joins add the branch ciphertexts (``main + alpha * skip``) and refresh
    through the block's wide-scale LUT. A step the parameter set cannot hold
    fails :func:`compile_program`; a plan that is not this program's fails
    ``bind`` — nothing is re-checked per step or per request.
    """

    def __init__(
        self,
        pipe: AthenaPipeline,
        program: AthenaProgram,
        plan: CompiledProgram | None = None,
        lanes: int = 1,
    ):
        if lanes < 1:
            raise ParameterError(f"need at least one lane, got {lanes}")
        self.pipe = pipe
        self.program = program
        if plan is None:
            with pipe._dispatch():
                plan = compile_program(program, pipe.params)
        else:
            plan.bind(program, pipe.params)
        if lanes > plan.batch_capacity:
            raise ParameterError(
                f"{lanes} lanes exceed the plan's batch capacity "
                f"{plan.batch_capacity}"
            )
        self.plan = plan
        self.lanes = lanes
        #: Runtime steps resolve to plan artifacts positionally (``bind``
        #: guarantees alignment), walking residual branches in parallel.
        self._artifacts: dict[int, object] = {}
        self._index_steps(program.steps, plan.steps)
        self.out_count = 0
        #: Coefficient/slot distance between consecutive lanes' outputs.
        self.lane_stride = 0
        self.tail_s2c = True

    def _index_steps(self, steps, csteps) -> None:
        for step, cstep in zip(steps, csteps):
            self._artifacts[id(step)] = cstep
            if step.kind == "residual":
                self._index_steps(step.body.steps, cstep.body)
                if step.shortcut is not None:
                    self._index_steps(step.shortcut.steps, cstep.shortcut)

    def linear(self, step: LinearStep, value) -> BfvCiphertext:
        pipe, params = self.pipe, self.pipe.params
        layer = step.layer
        cstep = self._artifacts[id(step)]
        n = params.n
        layout = (
            cstep.lane_layout(self.lanes, params) if self.lanes > 1 else None
        )
        if step.op == "conv":
            cin, h, w = layer.in_shape
            if isinstance(value, np.ndarray):
                imgs = value.reshape(self.lanes, cin, h, w)
                if layer.pad:
                    imgs = np.pad(
                        imgs,
                        ((0, 0), (0, 0), (layer.pad,) * 2, (layer.pad,) * 2),
                    )
                ct = pipe.encrypt_coeffs(self._encode_lanes(imgs, layout, n))
            else:
                # Interior step: the previous refresh packed the value onto
                # exactly the layout this step's kernel was encoded for
                # (compact Eq. 1 rows, or a padded grid whose exact-zero
                # margin is this convolution's zero padding).
                ct = value
        else:
            if isinstance(value, np.ndarray):
                feats = value.reshape(self.lanes, layer.in_features, 1, 1)
                ct = pipe.encrypt_coeffs(self._encode_lanes(feats, layout, n))
            else:
                ct = value
        out = pipe.linear(ct, cstep.kernel)
        bias = layout.bias if layout is not None else cstep.bias
        if bias is not None:
            with pipe._dispatch(), current_backend().phase("linear"):
                out = pipe.ctx.add_plain(out, bias)
        for delta, rnd in cstep.pool_rounds or ():
            out = self._max_round(out, delta, rnd)
        self.out_count = cstep.round.count
        rnd = layout.round if layout is not None else cstep.round
        self.lane_stride = (
            layout.out_stride if layout is not None else self.out_count)
        self.tail_s2c = step.s2c
        return self._refresh(out, rnd, step.s2c)

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
        boot = pipe.bootstrap(batch, rnd.lut, plan=rnd.fbs)
        if rnd.correction is not None:
            with pipe._dispatch(), current_backend().phase("fbs"):
                boot = pipe.ctx.add_plain(boot, rnd.correction)
        return pipe.to_coeffs(boot, plan=self.plan.s2c) if s2c else boot

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
        with pipe._dispatch(), current_backend().phase("pooling"):
            # Exact monomial multiplication by X^offset (no key material).
            shifted = BfvCiphertext(
                ct.c0.negacyclic_shift(offset), ct.c1.negacyclic_shift(offset),
                ct.params, ct.noise_bits)
            diff = pipe.ctx.add(ct, shifted)
        relu_ct = self._refresh(diff, rnd, True)
        with pipe._dispatch(), current_backend().phase("pooling"):
            return pipe.ctx.sub(relu_ct, shifted)

    def _encode_lanes(self, blocks_chw: np.ndarray, layout, n: int):
        """Client-side encode: one image, or ``lanes`` images at lane stride."""
        if layout is None:
            return encode_features(blocks_chw[0], n)
        return pack_lane_coeffs(
            [encode_features(m, n)[: layout.in_stride] for m in blocks_chw],
            layout.in_stride,
            n,
        )

    def pool(self, step: PoolStep, value):
        """Average/global pooling: one depthwise all-ones PMult.

        The window sums accumulate in the MAC domain at the plan's
        positions; the mandatory following :meth:`remap` step refreshes
        them through the division LUT.
        """
        return self.pipe.linear(value, self._artifacts[id(step)].kernel)

    def remap(self, step: RemapStep, value):
        """A bare LUT refresh round (the pooling division tables)."""
        return self._close(value, self._artifacts[id(step)].round, step.s2c)

    def _close(self, ct: BfvCiphertext, rnd: RefreshRound, s2c: bool):
        """Refresh a single-image round and record the tail geometry."""
        self.out_count = self.lane_stride = rnd.count
        self.tail_s2c = s2c
        return self._refresh(ct, rnd, s2c)

    def residual(self, step: ResidualStep, main, skip):
        """Join the branches and refresh through the wide-scale LUT.

        Both branch tails packed into the shared join layout at compile
        time, so the join itself is ``main + alpha * skip`` followed by
        one standard refresh round placed into the next consumer's layout.
        """
        cstep = self._artifacts[id(step)]
        pipe = self.pipe
        with pipe._dispatch(), current_backend().phase("residual"):
            if cstep.alpha != 1:
                skip = pipe.ctx.smult(skip, cstep.alpha)
            total = pipe.ctx.add(main, skip)
        return self._close(total, cstep.round, step.s2c)
