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
    _refresh_round,
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

    # -- Steps 2-5 and S2C: the refresh ------------------------------------------

    def refresh(
        self, cts: list[BfvCiphertext], rounds: list[RefreshRound], s2c: bool
    ) -> list[BfvCiphertext]:
        """The loop's refresh (Fig. 2 steps 2-5, then S2C), written once.

        Each ciphertext through its round: mod-switch + extract at the
        round's positions, scatter the samples onto its pack rows (gap rows
        are trivial zero encryptions), pack them repeated at the round's
        period; the stack through the rounds' one table in one FBS; zero
        every slot whose residue mod the period is off the rows exactly with
        each round's ``-LUT(0)`` plaintext (absent when there is nothing to
        cancel), and return to coefficients at the round's period.
        """
        batches = [self.refresh_to_lwe(ct, rnd.positions).place(rnd.rows, rnd.height)
                   for ct, rnd in zip(cts, rounds)]
        packed = [pack_lwe(self.ctx, batch, self.packing_key, rnd.period)
                  for batch, rnd in zip(batches, rounds)]
        boots = fbs_evaluate(self.ctx, packed, rounds[0].lut, self.rlk)
        if any(rnd.correction is not None for rnd in rounds):
            with current_backend().phase("fbs"):
                boots = [boot if rnd.correction is None else self.ctx.add_plain(boot, rnd.correction)
                         for boot, rnd in zip(boots, rounds)]
        return [slot_to_coeff(self.ctx, boot, self.s2c_keys, rnd.period)
                for boot, rnd in zip(boots, rounds)] if s2c else boots

    def loop(
        self,
        ct: BfvCiphertext,
        kernel_coeffs: np.ndarray,
        lut: FbsLut,
        positions: np.ndarray,
    ) -> BfvCiphertext:
        """One complete five-step round: Conv -> refresh -> FBS -> S2C, the
        outputs packed compactly at coefficients ``[0, len(positions))`` and
        every other coefficient an exact zero."""
        rnd = _refresh_round(positions, np.arange(positions.shape[0]), lut, self.params)
        return self.refresh([self.linear(ct, kernel_coeffs)], [rnd], True)[0]

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

        This is the one-image call of :meth:`run_batch`.
        """
        return self.run_batch(plan, [x_q])[0]

    def run_batch(
        self, plan: CompiledProgram, xs: list[np.ndarray]
    ) -> list[np.ndarray]:
        """Run ``len(xs)`` independent inputs through *one* fused execution.

        The inputs fill ``ceil(len(xs) / plan.batch_capacity)`` lane-full
        ciphertexts (see :class:`repro.core.plan.LaneLayout`), the last one
        holding the rest: each pays one PMult, refresh chain, pack and S2C
        per layer, and the stack shares one FBS per layer. Every
        ciphertext's residues equal a run of its images alone; :meth:`run`
        is the one-image call.
        Returns the centered integer outputs, one array per input, in order.
        """
        if not xs:
            return []
        xs = np.stack([plan.entry_input(x) for x in xs])
        ex = CiphertextExecutor(self, plan, images=len(xs))
        t, tail, outs = self.params.t, plan.tail, []
        count = tail.round.count
        for ct, lanes in zip(run_program(plan, ex, xs), ex.lanes):
            raw = self.decrypt_coeffs(ct) if tail.s2c else self.decrypt_slots(ct)
            vals = unpack_lane_coeffs(raw, count, lanes, count)
            outs += list(np.where(vals > t // 2, vals - t, vals))
        return outs


class CiphertextExecutor(ProgramExecutor):
    """Thin interpreter: walks a compiled plan with ciphertext ops.

    The flowing value is a list of BFV ciphertexts, and the steps handed to each
    handler are the plan's own (:class:`CompiledLinear`,
    :class:`CompiledPool`, ...). All request-invariant work — kernel/bias
    encoding, every :class:`RefreshRound` and the LUT it carries with its
    polynomial and BSGS schedule — lives in the :class:`CompiledProgram`
    (compiling or loading it also builds the S2C plan of each round period),
    so each :meth:`linear` call performs only encrypt (first step), PMult,
    and :meth:`AthenaPipeline.refresh` — the one place the loop's refresh ->
    pack -> FBS -> S2C is written — on the request's data.

    Every image count runs the one path: the images fill lane-full
    ciphertexts (:attr:`lanes`), each takes its linear steps' geometry from
    the step's :attr:`CompiledLinear.layouts` (one lane is the step's own
    round and bias), and every refresh runs the whole stack through one FBS. The
    entry step — always a conv/FC; a :class:`CompiledProgram` refuses to
    exist otherwise — receives the raw quantized inputs, stacked, and
    performs the client-side encode: one reshape per image to its
    ``in_shape``, its zero padding, every lane packed at its layout's input
    stride, one encryption per ciphertext in stack order. Interior layers
    chain through the plan's feature layouts: every refresh round places its
    LWE samples onto the next consumer's rows (compact Eq. 1 order, or a
    padded interior grid whose margin is the next convolution's zero
    padding) and zeroes every row it leaves, for any table.

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

    def __init__(self, pipe: AthenaPipeline, plan: CompiledProgram, images: int = 1):
        if images < 1:
            raise ParameterError(f"need at least one image, got {images}")
        if plan.params != pipe.params:
            raise ParameterError("plan was compiled for different parameters")
        full, rest = divmod(images, plan.batch_capacity)
        self.pipe = pipe
        #: Images each ciphertext of the stack carries, in stack order.
        self.lanes = [plan.batch_capacity] * full + [rest] * bool(rest)

    def linear(self, step: CompiledLinear, value) -> list[BfvCiphertext]:
        pipe, n = self.pipe, self.pipe.params.n
        layouts = [step.layouts[lanes - 1] for lanes in self.lanes]
        if isinstance(value, np.ndarray):
            # The entry step: every image onto this step's grid, each
            # ciphertext's lanes at its layout's input stride.
            p = step.pad
            imgs = np.pad(value.reshape(len(value), *step.in_shape),
                          ((0, 0), (0, 0), (p, p), (p, p)))
            ends = np.cumsum(self.lanes)
            value = [pipe.encrypt_coeffs(pack_lane_coeffs(
                [encode_features(m, n)[: layout.in_stride] for m in imgs[end - lanes : end]],
                layout.in_stride, n)) for layout, lanes, end in zip(layouts, self.lanes, ends)]
        # An interior step's input is already where its kernel expects it:
        # the previous refresh packed it onto exactly this step's layout
        # (compact Eq. 1 rows, or a padded grid whose exact-zero margin is
        # this convolution's zero padding).
        outs = [pipe.linear(ct, step.kernel) for ct in value]
        if step.bias is not None:
            with current_backend().phase("linear"):
                outs = [pipe.ctx.add_plain(out, layout.bias) for out, layout in zip(outs, layouts)]
        for delta, rnd in step.pool_rounds or ():
            outs = self._max_round(outs, delta, rnd)
        return pipe.refresh(outs, [layout.round for layout in layouts], step.s2c)

    def _max_round(
        self, cts: list[BfvCiphertext], delta: int, rnd: RefreshRound
    ) -> list[BfvCiphertext]:
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
            shifted = [BfvCiphertext(ct.c0.negacyclic_shift(offset),
                                     ct.c1.negacyclic_shift(offset), ct.params, ct.noise_bits)
                       for ct in cts]
            diffs = [pipe.ctx.add(ct, shift) for ct, shift in zip(cts, shifted)]
        relus = pipe.refresh(diffs, [rnd] * len(cts), True)
        with current_backend().phase("pooling"):
            return [pipe.ctx.sub(relu, shift) for relu, shift in zip(relus, shifted)]

    def pool(self, step: CompiledPool, value):
        """Average/global pooling: one depthwise all-ones PMult per ciphertext.

        The window sums accumulate in the MAC domain at the plan's
        positions; the mandatory following :meth:`remap` step refreshes
        them through the division LUT.
        """
        return [self.pipe.linear(ct, step.kernel) for ct in value]

    def remap(self, step: CompiledRemap, value):
        """A bare LUT refresh round (the pooling division tables), on
        one-image ciphertexts: a remap caps every ciphertext at one lane."""
        return self.pipe.refresh(value, [step.round] * len(value), step.s2c)

    def residual(self, step: CompiledResidual, main, skip):
        """Join the branches and refresh through the wide-scale LUT.

        Both branch tails packed into the shared join layout at compile
        time, so the join is ``main + alpha * skip`` per ciphertext,
        followed by one standard refresh round placed into the next
        consumer's layout. The join is billed to ``linear``, as the
        analytical trace bills it.
        """
        pipe = self.pipe
        with current_backend().phase("linear"):
            if step.alpha != 1:
                skip = [pipe.ctx.smult(ct, step.alpha) for ct in skip]
            total = [pipe.ctx.add(a, b) for a, b in zip(main, skip)]
        return pipe.refresh(total, [step.round] * len(total), step.s2c)
