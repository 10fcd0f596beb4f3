"""Mixed-precision PTQ allocation driven by the FHE cost model.

Athena's premise is that quantization choices *are* FHE cost choices: a
layer's bit-widths bound its MAC range, the MAC range bounds the LUT
domain the functional bootstrap must cover, and the restricted-domain
interpolant's degree (<= 2r instead of t-1, see
``repro.fhe.fbs.interpolate_range``) sets the BSGS ladder the pipeline
actually executes. This module closes the loop CalibTIP opens on plain
hardware — per-layer bit allocation by integer programming with
layer-wise calibration and bias correction — but scores candidates with
the *FHE* trace model (:func:`repro.core.trace.trace_model`'s predicted
mod_muls) instead of a FLOP proxy.

Pipeline
--------

1. :func:`allocate_bits` quantizes the model once per (layer, candidate
   bit-width) pair with only that layer overridden, measuring calibration
   accuracy and predicted mod_mul cost — the sensitivity profile.
2. A multiple-choice knapsack — greedy saving/drop ratio by default, an
   exact drop-unit DP with ``mode="dp"`` — picks at most one override per
   layer maximizing predicted savings under a max accuracy-drop budget.
3. The combined assignment is *re-measured* (profiles assume additivity;
   the verification loop reverts the most damaging override until the
   measured drop fits the budget), so the returned config is certified on
   the calibration set, not estimated.

The all-uniform "floor" configuration — identical bits, restricted LUT
ranges from calibrated MAC peaks — is always admissible: it matches the
uniform baseline's accuracy exactly while strictly shrinking every LUT,
so the allocator can never do worse than the baseline it is gated
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ParameterError
from repro.fhe.params import TEST_FBS, FheParams
from repro.quant import nn
from repro.quant.quantize import (
    LayerQuantConfig,
    QConv,
    QLinear,
    QResidual,
    QuantConfig,
    QuantizedModel,
    quantize_model,
)

__all__ = [
    "DEFAULT_LUT_MARGIN",
    "AllocationResult",
    "LayerProfile",
    "MpConfig",
    "ProfileOption",
    "allocate_bits",
    "assign_lut_ranges",
    "mac_layer_names",
    "mp_micro_subject",
]

#: Default slack added to a calibrated MAC peak before freezing the
#: restricted LUT domain. It has two things to cover: calibration-vs-
#: evaluation distribution shift, and the refresh noise that reaches every
#: LUT input on the real-ciphertext path — the LWE mod-switch rounding,
#: std ``sqrt((|s|^2 + 1) / 12)`` (measured 1.0 at TEST_FBS, 1.9 at
#: TEST_LOOP), whose activation flips the next layer's MAC then sums. At
#: 8 a wide fan-in round can still leave its window about once in a
#: thousand inferences (benchmarks/ledger/README.md, "Refresh noise and
#: the LUT windows"); the value stays because the ledger's subjects are
#: built on it.
DEFAULT_LUT_MARGIN = 8


@dataclass(frozen=True)
class MpConfig:
    """Immutable per-layer bit assignment, keyed by conversion-order name.

    Layer names follow :func:`mac_layer_names`: ``conv{i}``/``linear{i}``
    with one shared counter over MAC layers in conversion order (residual
    branches included, body before shortcut). Layers without an entry keep
    the model-global :class:`QuantConfig`. The empty config is falsy and
    means "uniform bits" — still useful, because quantizing with it (or
    any MpConfig) switches :func:`quantize_model` into tracking mode and
    calibrates the restricted LUT ranges.
    """

    assignments: tuple[tuple[str, LayerQuantConfig], ...] = ()

    def __post_init__(self) -> None:
        names = [n for n, _ in self.assignments]
        if len(set(names)) != len(names):
            raise ParameterError(f"duplicate layer in MpConfig: {names}")

    @classmethod
    def from_dict(cls, assignments: dict[str, LayerQuantConfig]) -> "MpConfig":
        return cls(tuple(sorted(assignments.items(), key=lambda kv: kv[0])))

    def get(self, name: str) -> LayerQuantConfig | None:
        for n, cfg in self.assignments:
            if n == name:
                return cfg
        return None

    def items(self):
        return iter(self.assignments)

    def __bool__(self) -> bool:
        return bool(self.assignments)

    def __len__(self) -> int:
        return len(self.assignments)

    def tag(self) -> str:
        """Stable human-readable key (also used in reports and JSON)."""
        if not self.assignments:
            return "uniform"
        return ",".join(f"{n}={c.label}" for n, c in self.assignments)

    def to_json(self) -> dict:
        return {
            "assignments": {
                n: {"w_bits": c.w_bits, "a_bits": c.a_bits}
                for n, c in self.assignments
            }
        }

    @classmethod
    def from_json(cls, payload: dict) -> "MpConfig":
        raw = payload.get("assignments", {})
        return cls.from_dict(
            {
                n: LayerQuantConfig(int(v["w_bits"]), int(v["a_bits"]))
                for n, v in raw.items()
            }
        )


def mac_layer_names(layers: list) -> list[tuple[str, object]]:
    """(name, node) for every conv/linear, in conversion-order naming.

    Mirrors the counter in ``quantize_model``: one shared index over
    QConv/QLinear nodes, walking residual bodies before shortcuts.
    """
    out: list[tuple[str, object]] = []

    def walk(ir: list) -> None:
        for node in ir:
            if isinstance(node, QConv):
                out.append((f"conv{len(out)}", node))
            elif isinstance(node, QLinear):
                out.append((f"linear{len(out)}", node))
            elif isinstance(node, QResidual):
                walk(node.body)
                if node.shortcut:
                    walk(node.shortcut)

    walk(layers)
    return out


def assign_lut_ranges(qmodel: QuantizedModel, margin: int = DEFAULT_LUT_MARGIN) -> int:
    """Freeze restricted LUT domains from calibrated MAC peaks, post hoc.

    For models quantized through the legacy path (no tracking): run
    ``forward_int``/``accuracy`` over calibration data first so
    ``mac_peak`` is populated, then call this. Returns the number of
    LUT-bearing nodes annotated; resets the cached program so the next
    lowering captures the ranges. Plain integer inference is unchanged —
    only the compiled FBS tables shrink.
    """
    t = qmodel.config.t
    annotated = 0
    for layer in qmodel.mac_layers():
        peak = int(getattr(layer, "mac_peak", 0))
        if peak <= 0:
            continue
        r = peak + int(margin)
        if 2 * r + 1 < t:
            layer.lut_range = r
            annotated += 1
    qmodel._program = None
    return annotated


# --------------------------------------------------------------------------
# Sensitivity profile
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ProfileOption:
    """One (layer, candidate bits) measurement from the profiler."""

    bits: LayerQuantConfig
    accuracy: float  # calibration accuracy with only this layer overridden
    cost: float  # predicted mod_muls of the whole model
    drop: float  # floor_accuracy - accuracy (may be negative)
    saving: float  # floor_cost - cost


@dataclass(frozen=True)
class LayerProfile:
    name: str
    kind: str  # 'conv' | 'linear'
    mac_peak: int
    options: tuple[ProfileOption, ...]


# --------------------------------------------------------------------------
# Allocation
# --------------------------------------------------------------------------


@dataclass
class AllocationResult:
    """Chosen mixed-precision config plus everything needed to audit it."""

    mp: MpConfig
    config: QuantConfig
    params_name: str
    mode: str
    budget: float
    bias_correct: bool
    lut_margin: int
    baseline_accuracy: float  # uniform bits, legacy quantization
    baseline_cost: float  # its predicted mod_muls
    floor_accuracy: float  # uniform bits + restricted LUT ranges
    floor_cost: float
    accuracy: float  # the chosen config's calibration accuracy
    cost: float  # the chosen config's predicted mod_muls
    profiles: tuple[LayerProfile, ...]
    model: QuantizedModel = field(repr=False, compare=False, default=None)

    @property
    def drop(self) -> float:
        return self.baseline_accuracy - self.accuracy

    @property
    def saving(self) -> float:
        return self.baseline_cost - self.cost

    def to_json(self) -> dict:
        return {
            "mp": self.mp.to_json(),
            "tag": self.mp.tag(),
            "config": self.config.label,
            "t": self.config.t,
            "params": self.params_name,
            "mode": self.mode,
            "budget": self.budget,
            "bias_correct": self.bias_correct,
            "lut_margin": self.lut_margin,
            "baseline_accuracy": self.baseline_accuracy,
            "baseline_cost_mod_muls": self.baseline_cost,
            "floor_accuracy": self.floor_accuracy,
            "floor_cost_mod_muls": self.floor_cost,
            "accuracy": self.accuracy,
            "cost_mod_muls": self.cost,
            "accuracy_drop": self.drop,
            "predicted_saving_mod_muls": self.saving,
            "layers": [
                {
                    "layer": p.name,
                    "kind": p.kind,
                    "mac_peak": p.mac_peak,
                    "chosen": (
                        self.mp.get(p.name).label if self.mp.get(p.name) else None
                    ),
                    "options": [
                        {
                            "bits": o.bits.label,
                            "accuracy": o.accuracy,
                            "cost_mod_muls": o.cost,
                            "drop": o.drop,
                            "saving_mod_muls": o.saving,
                        }
                        for o in p.options
                    ],
                }
                for p in self.profiles
            ],
        }

    def report(self) -> str:
        lines = [
            f"mixed-precision allocation [{self.mode}] for "
            f"{self.config.label} @ {self.params_name} "
            f"(budget {self.budget:.3f}, margin {self.lut_margin})",
            f"  baseline  acc {self.baseline_accuracy:.4f}  "
            f"cost {self.baseline_cost:.3e} mod_muls",
            f"  allocated acc {self.accuracy:.4f}  cost {self.cost:.3e} "
            f"mod_muls  (drop {self.drop:+.4f}, saving {self.saving:.3e})",
        ]
        for p in self.profiles:
            chosen = self.mp.get(p.name)
            lines.append(
                f"  {p.name:<10} peak {p.mac_peak:>6}  -> "
                f"{chosen.label if chosen else self.config.label}"
                f"{'' if chosen else ' (uniform)'}"
            )
        return "\n".join(lines)


def _greedy_assign(
    profiles: list[LayerProfile], budget: float
) -> dict[str, LayerQuantConfig]:
    """Multiple-choice knapsack, greedy by saving/drop ratio."""
    eps = 1e-9
    items = [
        (p.name, o)
        for p in profiles
        for o in p.options
        if o.saving > 0 and o.drop <= budget + eps
    ]
    items.sort(key=lambda it: (-it[1].saving / max(it[1].drop, eps), it[0]))
    assign: dict[str, LayerQuantConfig] = {}
    spent = 0.0
    for lname, opt in items:
        if lname in assign:
            continue
        est = max(opt.drop, 0.0)
        if spent + est > budget + eps:
            continue
        assign[lname] = opt.bits
        spent += est
    return assign


def _dp_assign(
    profiles: list[LayerProfile], budget: float, n_calib: int
) -> dict[str, LayerQuantConfig]:
    """Exact multiple-choice knapsack over accuracy-drop units.

    Calibration accuracies are multiples of ``1/n_calib``, so drops
    discretize exactly into sample counts — the DP is optimal for the
    profiled (additive) objective, not an approximation.
    """
    units = max(0, int(np.floor(budget * n_calib + 1e-9)))
    # dp[u] = best total predicted saving using at most u drop units.
    dp = [0.0] * (units + 1)
    parents: list[list[tuple[int, int] | None]] = []
    for prof in profiles:
        opts = [
            (o, max(0, int(round(o.drop * n_calib))))
            for o in prof.options
            if o.saving > 0
        ]
        parent: list[tuple[int, int] | None] = [None] * (units + 1)
        ndp = dp[:]
        for oi, (opt, d) in enumerate(opts):
            for u in range(d, units + 1):
                cand = dp[u - d] + opt.saving
                if cand > ndp[u] + 1e-12:
                    ndp[u] = cand
                    parent[u] = (oi, u - d)
        # Re-index parent options to the profile's full option tuple.
        remap = [prof.options.index(o) for o, _ in opts]
        parent = [
            (remap[entry[0]], entry[1]) if entry is not None else None
            for entry in parent
        ]
        parents.append(parent)
        dp = ndp
    assign: dict[str, LayerQuantConfig] = {}
    u = max(range(units + 1), key=lambda i: dp[i])
    for prof, parent in zip(reversed(profiles), reversed(parents)):
        entry = parent[u]
        if entry is not None:
            oi, u = entry
            assign[prof.name] = prof.options[oi].bits
    return assign


def allocate_bits(
    model: nn.Sequential,
    calib_x: np.ndarray,
    calib_y: np.ndarray,
    config: QuantConfig,
    params: FheParams = TEST_FBS,
    candidates: list[LayerQuantConfig] | None = None,
    budget: float = 0.02,
    mode: str = "greedy",
    bias_correct: bool = True,
    lut_margin: int = DEFAULT_LUT_MARGIN,
    name: str = "model",
) -> AllocationResult:
    """Search per-layer bit assignments minimizing predicted FHE cost.

    ``budget`` bounds the admissible calibration accuracy drop relative to
    the uniform-bits baseline; ``mode`` is ``"greedy"`` (saving/drop ratio
    knapsack) or ``"dp"`` (exact DP over drop units). The result's
    ``model`` is the fully quantized mixed-precision model (tracked MAC
    peaks, bias-corrected, restricted LUT ranges frozen), ready for
    ``compile_program``.
    """
    if mode not in ("greedy", "dp"):
        raise ParameterError(f"unknown allocation mode {mode!r}")
    if candidates is None:
        candidates = [
            LayerQuantConfig(b, b)
            for b in range(2, min(config.w_bits, config.a_bits))
        ]
    calib_x = np.asarray(calib_x, dtype=np.float64)
    calib_y = np.asarray(calib_y)

    def measure(mp: MpConfig | None, use_bc: bool):
        qm = quantize_model(
            model,
            calib_x,
            config,
            name=name,
            mp=mp,
            bias_correct=use_bc if mp is not None else False,
            lut_margin=lut_margin if mp is not None else None,
        )
        acc = qm.accuracy(calib_x, calib_y)
        qm.validate_t()
        cost = trace_model(qm, params, softmax=False).totals().mod_mul
        return qm, acc, cost

    # Imported here: repro.core imports repro.quant.
    from repro.core.trace import trace_model

    # Uniform baseline: the legacy quantization path, full-domain LUTs.
    _, base_acc, base_cost = measure(None, False)

    # Floor: identical bits, tracking on — restricted LUT ranges and
    # (optionally) bias correction. If correction hurts more than the
    # budget allows, drop it: without it the floor is plain-identical to
    # the baseline, so the budget is satisfiable by construction.
    use_bc = bias_correct
    floor_qm, floor_acc, floor_cost = measure(MpConfig(), use_bc)
    if use_bc and base_acc - floor_acc > budget + 1e-12:
        use_bc = False
        floor_qm, floor_acc, floor_cost = measure(MpConfig(), use_bc)

    # Sensitivity profile: one quantization per (layer, candidate).
    profiles: list[LayerProfile] = []
    for lname, node in mac_layer_names(floor_qm.layers):
        opts = []
        for cand in candidates:
            if cand.w_bits >= config.w_bits and cand.a_bits >= config.a_bits:
                continue
            _, acc, cost = measure(MpConfig(((lname, cand),)), use_bc)
            opts.append(
                ProfileOption(
                    bits=cand,
                    accuracy=acc,
                    cost=cost,
                    drop=floor_acc - acc,
                    saving=floor_cost - cost,
                )
            )
        profiles.append(
            LayerProfile(
                name=lname,
                kind="conv" if isinstance(node, QConv) else "linear",
                mac_peak=int(node.mac_peak),
                options=tuple(opts),
            )
        )

    # Budget available for bit-narrowing on top of the floor's own drop.
    floor_drop = base_acc - floor_acc
    head = max(0.0, budget - max(floor_drop, 0.0))
    if mode == "dp":
        assign = _dp_assign(profiles, head, len(calib_y))
    else:
        assign = _greedy_assign(profiles, head)

    # Certify the combined config; profiles assume additivity, so revert
    # the most damaging override until the measured drop fits the budget.
    # Terminates at the floor, which satisfies the budget by construction.
    while True:
        mp = MpConfig.from_dict(assign)
        qm, acc, cost = measure(mp, use_bc)
        if base_acc - acc <= budget + 1e-12 or not assign:
            break
        worst = max(
            assign,
            key=lambda n: next(
                (
                    o.drop
                    for p in profiles
                    if p.name == n
                    for o in p.options
                    if o.bits == assign[n]
                ),
                0.0,
            ),
        )
        del assign[worst]

    return AllocationResult(
        mp=mp,
        config=config,
        params_name=params.name,
        mode=mode,
        budget=budget,
        bias_correct=use_bc,
        lut_margin=lut_margin,
        baseline_accuracy=base_acc,
        baseline_cost=base_cost,
        floor_accuracy=floor_acc,
        floor_cost=floor_cost,
        accuracy=acc,
        cost=cost,
        profiles=tuple(profiles),
        model=qm,
    )


# --------------------------------------------------------------------------
# Micro subject
# --------------------------------------------------------------------------


def mp_micro_subject(seed: int = 7):
    """Tiny trained two-class subject whose MACs fit TEST_FBS's t = 257.

    Returns ``(model, x, y, config)``: a conv(1->1, k2) + ReLU + linear
    (9->2) net trained on Gaussian-template data, with a w3a3 base config
    (w4a4 would overflow t//2 = 128: the conv alone can reach 4*49 MACs).
    """
    rng = np.random.default_rng(seed)
    templates = rng.normal(size=(2, 1, 4, 4))
    y = rng.integers(0, 2, size=96)
    x = templates[y] + 0.4 * rng.normal(size=(96, 1, 4, 4))
    model = nn.Sequential(
        nn.Conv2d(1, 1, 2, rng=rng),
        nn.ReLU(),
        nn.Flatten(),
        nn.Linear(9, 2, rng=rng),
    )
    opt = nn.Sgd(lr=0.05)
    for _ in range(6):
        nn.train_epoch(model, x, y, opt, rng=rng)
    config = QuantConfig(w_bits=3, a_bits=3, t=TEST_FBS.t)
    return model, x, y, config
