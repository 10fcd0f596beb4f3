"""FHE operation-trace generation: quantized model -> primitive op counts.

The accelerator simulator consumes phase-labeled counts of primitive
operations. One :class:`PhaseTrace` is emitted per pipeline phase per layer
(linear / se-chain / packing / fbs / s2c, plus pooling and softmax phases),
so the simulator can reproduce the paper's execution-time breakdown (Fig. 9)
as well as end-to-end latency (Table 6).

Primitive unit conventions:

* ``ntt``        — one length-N negacyclic NTT over one RNS limb
* ``automorph``  — one limb-wise index permutation (N elements)
* ``mod_mul`` / ``mod_add`` — elementwise modular ops, counted in *elements*
* ``extract``    — one LWE sample extraction (SE unit, ~1 cycle amortized)
* ``rnsconv``    — RNS base-conversion work, counted in elements
* ``hbm_bytes``  — off-chip traffic estimate

Keyswitching uses hybrid gadget decomposition with ``dnum`` digits: one
keyswitch costs 2*dnum*L NTTs + 2*dnum*L*N mod-muls + the base-conversion
work, which is how CraterLake/SHARP-class designs account it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.encoding import ConvShape, athena_plan, cheetah_plan
from repro.core.program import (
    LinearStep,
    PoolStep,
    ProgramExecutor,
    RemapStep,
    ResidualStep,
    lower,
    run_program,
)
from repro.fhe.params import ATHENA, FheParams
from repro.quant.quantize import QConv, QuantizedModel

#: Hybrid keyswitching digit count (CraterLake-style dnum).
DNUM = 3


@dataclass
class OpCounts:
    ntt: float = 0.0
    automorph: float = 0.0
    mod_mul: float = 0.0
    mod_add: float = 0.0
    extract: float = 0.0
    rnsconv: float = 0.0
    hbm_bytes: float = 0.0

    def __iadd__(self, other: "OpCounts") -> "OpCounts":
        self.ntt += other.ntt
        self.automorph += other.automorph
        self.mod_mul += other.mod_mul
        self.mod_add += other.mod_add
        self.extract += other.extract
        self.rnsconv += other.rnsconv
        self.hbm_bytes += other.hbm_bytes
        return self

    def scaled(self, k: float) -> "OpCounts":
        return OpCounts(
            self.ntt * k, self.automorph * k, self.mod_mul * k, self.mod_add * k,
            self.extract * k, self.rnsconv * k, self.hbm_bytes * k,
        )


@dataclass
class PhaseTrace:
    phase: str  # linear | se | packing | fbs | s2c | pooling | softmax
    layer: str
    ops: OpCounts


@dataclass
class WorkloadTrace:
    model: str
    params: FheParams
    phases: list[PhaseTrace] = field(default_factory=list)

    def add(self, phase: str, layer: str, ops: OpCounts) -> None:
        self.phases.append(PhaseTrace(phase, layer, ops))

    def totals(self) -> OpCounts:
        out = OpCounts()
        for p in self.phases:
            out += p.ops
        return out

    def by_phase(self) -> dict[str, OpCounts]:
        out: dict[str, OpCounts] = {}
        for p in self.phases:
            out.setdefault(p.phase, OpCounts())
            out[p.phase] += p.ops
        return out


# -- primitive building blocks -------------------------------------------------


def _pmult(params: FheParams, cached_plain: bool = True) -> OpCounts:
    l, n = params.num_limbs, params.n
    return OpCounts(
        ntt=0 if cached_plain else l,
        mod_mul=2 * l * n,
        # Ciphertext operands stay scratchpad-resident; only an uncached
        # plaintext operand (e.g. a runtime packing diagonal) streams in.
        hbm_bytes=0 if cached_plain else n * 4,
    )


def _smult(params: FheParams) -> OpCounts:
    l, n = params.num_limbs, params.n
    return OpCounts(mod_mul=2 * l * n, hbm_bytes=0)


def _hadd(params: FheParams) -> OpCounts:
    l, n = params.num_limbs, params.n
    return OpCounts(mod_add=2 * l * n)


def _keyswitch(params: FheParams, resident_key: bool = False) -> OpCounts:
    l, n = params.num_limbs, params.n
    return OpCounts(
        ntt=2 * DNUM * l,
        mod_mul=2 * DNUM * l * n,
        mod_add=2 * DNUM * l * n,
        rnsconv=2 * l * n,
        # Key material: the 'a' halves are PRNG-regenerated on chip
        # (CraterLake/SHARP-style) so only the 'b' halves stream in —
        # unless the key is scratchpad-resident (the single relin key is;
        # the many distinct rotation keys are not).
        hbm_bytes=0 if resident_key else DNUM * l * n * 4 / 2,
    )


def _rotation(params: FheParams) -> OpCounts:
    out = _keyswitch(params)
    out.automorph += 2 * params.num_limbs
    return out


def _hoisted_rotation(params: FheParams) -> OpCounts:
    """Baby-step rotation under Halevi-Shoup hoisting: the gadget
    decomposition is shared across the group, so each extra rotation costs
    only the automorphism plus the key-product accumulation."""
    l, n = params.num_limbs, params.n
    return OpCounts(
        automorph=2 * l,
        mod_mul=2 * DNUM * l * n / 4,
        mod_add=2 * DNUM * l * n / 4,
        hbm_bytes=DNUM * 2 * l * n / 2,
    )


def _cmult(params: FheParams) -> OpCounts:
    """BFV ciphertext multiplication, FBS-ladder style.

    Operands live in the evaluation domain throughout the power ladder, so
    the tensor product is pointwise; the dominant work is the RNS basis
    extension and scale-rounding (which the FRU's base-conversion path
    executes) plus an *amortized* relinearization — Athena's FBS
    relinearizes lazily, once per accumulation group, which is what makes
    FBS FRU-bound rather than NTT-bound (paper §4.1 observation (1)).
    """
    l, n = params.num_limbs, params.n
    tensor = OpCounts(
        ntt=4 * l,  # INTT/NTT pairs around the two basis extensions
        mod_mul=8 * l * n,
        mod_add=2 * l * n,
        rnsconv=6 * l * n,  # lift to the extended basis and scale back
    )
    tensor += _keyswitch(params, resident_key=True)  # relin key stays on chip
    return tensor


def fbs_ops_split(params: FheParams, t: int | None = None) -> tuple[OpCounts, OpCounts]:
    """(baby, giant) halves of one FBS evaluation on one ciphertext.

    The baby half is Alg. 2's O(t) SMult + HAdd stream (Region 1's FRU
    array); the giant half is the O(sqrt t) CMult power ladder and group
    combinations (Region 0). The Athena dataflow (Fig. 7) overlaps the two,
    so the accelerator's FBS latency is their max — which is why measured
    FBS time scales ~sqrt(t) with quantization precision (Fig. 12).
    """
    t = t or params.t
    bs = max(2, math.ceil(math.sqrt(t)))
    gs = -(-t // bs)
    baby = OpCounts()
    baby += _smult(params).scaled(t)
    baby += _hadd(params).scaled(t)
    giant = _cmult(params).scaled(bs + gs)
    return baby, giant


def fbs_ops(params: FheParams, t: int | None = None) -> OpCounts:
    """One FBS evaluation on one ciphertext (both halves combined)."""
    baby, giant = fbs_ops_split(params, t)
    out = OpCounts()
    out += baby
    out += giant
    return out


def packing_ops(params: FheParams) -> OpCounts:
    """Pack one ciphertext's worth of LWE samples (BSGS mat-vec).

    Baby rotations are hoisted; the diagonal multiplications run against
    the replicated LWE dimension (n diagonals, paper Table 3's O(C) row is
    the per-channel view of the same count).
    """
    # With the LWE secret replicated across the slot rows, only lwe_n
    # generalized diagonals are nonzero, so the BSGS runs over n (paper
    # Table 3's O(C) packing row), with baby steps hoisted and a handful of
    # giant-step keys that stay scratchpad-resident.
    dim = min(params.lwe_n, params.n // 2)
    bs = max(1, math.isqrt(dim) * 4)
    gs = max(1, -(-dim // bs))
    out = OpCounts()
    out += _hoisted_rotation(params).scaled(bs)
    out += _rotation(params).scaled(gs)
    out += _pmult(params, cached_plain=False).scaled(dim)
    out += _hadd(params).scaled(dim)
    return out


def s2c_ops(params: FheParams) -> OpCounts:
    """Slot-to-coefficient via the paper's 3-stage O(cbrt N) factorization.

    Each stage is a sparse-diagonal mat-vec with ~cbrt(N) rotations (baby
    half hoisted) and ~cbrt(N) plaintext multiplications against fixed,
    offline-transformed stage matrices.
    """
    cbrt = max(2, round(params.n ** (1 / 3)))
    out = OpCounts()
    out += _hoisted_rotation(params).scaled(3 * cbrt)
    out += _rotation(params).scaled(3 * (cbrt // 2) + 1)
    out += _pmult(params).scaled(3 * cbrt)
    out += _hadd(params).scaled(3 * cbrt)
    return out


def se_chain_ops(params: FheParams, values: int) -> OpCounts:
    """Extraction + LWE keyswitch + modswitch for ``values`` samples."""
    l_lwe = -(-params.lwe_q.bit_length() // 7)  # LWE gadget digits (base 2^7)
    per_value_mul = params.lwe_n * l_lwe
    return OpCounts(
        extract=values,
        mod_mul=values * per_value_mul,
        mod_add=values * per_value_mul,
        hbm_bytes=values * params.lwe_n * 4,
    )


def strategy_costs(shape: ConvShape, params: FheParams,
                   t_layer: int | None = None) -> dict:
    """Predicted mod_mul cost of one raw conv shape under each Table 2
    encoding — the table's cost column.

    The linear phase (Eq. 1 PMults) plus the refresh the encoding's
    result-ciphertext count forces: the extraction chain is per value,
    packing, FBS and S2C are per ciphertext. Returns ``{"athena": cost,
    "cheetah": cost, "pick": name}`` (a tie goes to ``athena``).
    """
    values = shape.cout * shape.out_hw**2
    costs = {}
    for name, planner in (("athena", athena_plan), ("cheetah", cheetah_plan)):
        plan = planner(shape, params.n)
        cts = max(plan.result_cts, -(-values // params.n))
        ops = _pmult(params).scaled(plan.pmult)
        ops += se_chain_ops(params, values)
        ops += packing_ops(params).scaled(cts)
        ops += fbs_ops(params, t_layer).scaled(cts)
        ops += s2c_ops(params).scaled(cts)
        costs[name] = ops.mod_mul
    costs["pick"] = "cheetah" if costs["cheetah"] < costs["athena"] else "athena"
    return costs


# -- model walking ----------------------------------------------------------------


def _conv_shape(layer: QConv) -> ConvShape:
    cin, h, _ = layer.in_shape
    return ConvShape(
        hw=h, cin=cin, cout=layer.weight.shape[0],
        wk=layer.weight.shape[2], stride=layer.stride, pad=layer.pad,
    )


def effective_t(layer, params: FheParams, cap: int | None = None) -> int:
    """Per-layer flexible LUT size (paper §3.3 / Fig. 12).

    The interpolating polynomial only needs to agree with the table on the
    layer's actual MAC range, so its degree — and the FBS cost — scales
    with 2*mac_peak rather than the full t. Requires a calibration pass to
    have populated ``mac_peak``; falls back to t (or ``cap``) otherwise.
    """
    cap = cap or params.t  # may exceed params.t: w8a8 uses a larger prime
    rng = getattr(layer, "lut_range", None)
    if rng:
        # Certified restricted LUT domain (mixed-precision path): the
        # compiled table IS the degree <= 2r interpolant, so the FBS cost
        # model may take the exact polynomial size — no power-of-two or
        # 256-floor conservatism needed.
        return min(cap, 2 * rng + 1)
    peak = getattr(layer, "mac_peak", 0)
    if not peak:
        return cap
    needed = 2 * peak + 1
    return max(256, min(cap, 1 << (needed - 1).bit_length()))


def _add_fbs(trace: WorkloadTrace, params: FheParams, phase: str,
             layer_name: str, t_layer: int, cts: int) -> None:
    """Emit the paired baby/giant FBS phases for ``cts`` ciphertexts."""
    baby, giant = fbs_ops_split(params, t_layer)
    trace.add(phase, layer_name, baby.scaled(cts))
    trace.add(f"{phase}_giant", layer_name, giant.scaled(cts))


def _lut_round(trace: WorkloadTrace, params: FheParams, layer_name: str,
               values: int, t_layer: int) -> None:
    """Steps 2-5 + S2C for ``values`` MAC outputs."""
    cts = max(1, -(-values // params.n))
    trace.add("se", layer_name, se_chain_ops(params, values))
    trace.add("packing", layer_name, packing_ops(params).scaled(cts))
    _add_fbs(trace, params, "fbs", layer_name, t_layer, cts)
    trace.add("s2c", layer_name, s2c_ops(params).scaled(cts))


class TraceExecutor(ProgramExecutor):
    """Accounting walker: emits phase op-counts per program step.

    The flowing ``value`` is unused (``None`` throughout) — this executor
    only appends to its trace. One deliberate divergence from the program's
    fusion flags: the tail step's ``s2c=False`` is *ignored*, keeping the
    legacy accounting (every LUT round bills its S2C) so pre/post-refactor
    phase totals stay directly comparable.
    """

    def __init__(self, trace: WorkloadTrace, params: FheParams,
                 t_eff: int | None = None):
        self.trace = trace
        self.params = params
        self.t_eff = t_eff

    def _t(self, layer) -> int:
        return effective_t(layer, self.params, self.t_eff)

    def linear(self, step: LinearStep, value) -> None:
        trace, params = self.trace, self.params
        layer = step.layer
        t_layer = self._t(layer)
        if step.op == "conv":
            plan = athena_plan(_conv_shape(layer), params.n)
            trace.add("linear", step.name, _pmult(params).scaled(plan.pmult))
            if plan.hadd:
                trace.add("linear", step.name, _hadd(params).scaled(plan.hadd))
        else:
            in_cts = max(1, -(-layer.in_features // params.n))
            trace.add("linear", step.name, _pmult(params).scaled(in_cts))
        if step.fused_pool is not None:
            # Max-tree: k^2 - 1 pairwise maxima per window, each a full
            # ReLU LUT round (refresh chain + FBS) batched SIMD-wide
            # across windows (paper: O(k) FBS lookups).
            pool = step.fused_pool
            rounds = pool.kernel**2 - 1
            cts = max(1, -(-step.out_values // params.n))
            for r in range(rounds):
                name = f"{step.name}.max{r}"
                trace.add("pooling", name,
                          se_chain_ops(params,
                                       min(step.mac_values, cts * params.n)))
                trace.add("pooling", name, packing_ops(params).scaled(cts))
                _add_fbs(trace, params, "pooling", name, t_layer, cts)
                trace.add("pooling", name, s2c_ops(params).scaled(cts))
        _lut_round(trace, params, step.name, step.out_values, t_layer)

    def pool(self, step: PoolStep, value) -> None:
        # 'sum'/'gap' window additions are hadds folded into the following
        # RemapStep's accounting; an unfused 'max' tree is not yet costed
        # (no model in the zoo pools a non-monotone activation).
        return None

    def remap(self, step: RemapStep, value) -> None:
        _add_fbs(self.trace, self.params, "pooling", step.name,
                 self._t(step.source), 1)

    def residual(self, step: ResidualStep, main, skip) -> None:
        trace, params = self.trace, self.params
        trace.add("linear", step.name, _hadd(params))
        # post-add ReLU LUT round on the block's output
        _lut_round(trace, params, step.name, params.n, self._t(step.layer))


# -- executed traces -----------------------------------------------------------

#: Phases a CountingBackend records that correspond to per-request runtime
#: work (the analytical model's domain). ``compile`` / ``keygen`` / ``other``
#: are request-invariant or unattributed and are excluded by default.
RUNTIME_PHASES = ("linear", "se", "packing", "fbs", "fbs_giant", "s2c",
                  "pooling", "softmax")

#: OpCounts fields an executed trace can populate (hbm_bytes is a pure
#: analytical estimate — nothing in the Python engine measures traffic).
EXECUTED_FIELDS = ("ntt", "automorph", "mod_mul", "mod_add", "extract",
                   "rnsconv")


def executed_trace(
    counting,
    params: FheParams,
    model: str = "executed",
    include: tuple[str, ...] | None = RUNTIME_PHASES,
) -> WorkloadTrace:
    """View a :class:`repro.fhe.backend.CountingBackend`'s records as a
    :class:`WorkloadTrace` — the same shape the analytical model emits, so
    :func:`repro.accel.scheduler.schedule` can consume ops *actually
    executed* instead of (or alongside) the model's predictions.

    Primitive mapping: the counting backend's RNS-tier units are already
    the trace units (``ntt`` per limb transform, ``mod_mul``/``mod_add``
    per element, ``rnsconv`` per mod-switch element, ``extract`` per LWE
    sample); negacyclic shifts fold into ``automorph`` (both are limb-wise
    index permutations on the accelerator datapath). ``hbm_bytes`` stays 0:
    the executed side measures arithmetic, not traffic.

    ``include`` filters phases (default: runtime phases only); pass ``None``
    to keep everything, including ``compile`` / ``keygen`` / ``other``.
    """
    trace = WorkloadTrace(model, params)
    for phase, ops in sorted(counting.ops_by_phase().items()):
        if include is not None and phase not in include:
            continue
        trace.add(phase, "executed", OpCounts(
            ntt=float(ops.get("ntt", 0)),
            automorph=float(ops.get("automorph", 0) + ops.get("shift", 0)),
            mod_mul=float(ops.get("mod_mul", 0)),
            mod_add=float(ops.get("mod_add", 0)),
            extract=float(ops.get("extract", 0)),
            rnsconv=float(ops.get("rnsconv", 0)),
        ))
    return trace


def compare_traces(
    executed: WorkloadTrace, analytical: WorkloadTrace
) -> dict[str, dict]:
    """Primitive-by-primitive totals of an executed vs an analytical trace.

    Returns ``{primitive: {executed, analytical, ratio}}`` with ratio =
    executed / analytical (None when the analytical count is zero). The
    op-count parity suite and ``repro trace --executed`` both render this.
    """
    ex, an = executed.totals(), analytical.totals()
    out: dict[str, dict] = {}
    for name in EXECUTED_FIELDS:
        e, a = getattr(ex, name), getattr(an, name)
        out[name] = {
            "executed": e,
            "analytical": a,
            "ratio": round(e / a, 4) if a else None,
        }
    return out


def trace_model(
    qmodel: QuantizedModel,
    params: FheParams = ATHENA,
    softmax: bool = True,
    t_eff: int | None = None,
) -> WorkloadTrace:
    """Generate the full inference trace for one encrypted input.

    ``t_eff`` overrides the FBS table size (the paper's flexible-LUT knob:
    lower quantization precision => smaller effective tables => cheaper FBS).
    """
    trace = WorkloadTrace(qmodel.name, params)
    program = lower(qmodel, params)
    run_program(program, TraceExecutor(trace, params, t_eff))
    if softmax:
        # exp LUT + inverse LUT + one CMult (paper §3.2.3)
        _add_fbs(trace, params, "softmax", "softmax", t_eff or params.t, 2)
        trace.add("softmax", "softmax", _cmult(params))
    return trace
