"""Athena inference engines.

:class:`SimulatedAthenaEngine` executes the five-step Athena loop on a
quantized model with *functionally exact* integer arithmetic — the same
MACs, the same mod-t wrap, the same LUTs as the encrypted pipeline — while
injecting the FHE-induced perturbation from the analytic noise model of
paper §3.3 (the e_ms distribution, validated against the real backend at
small parameters in the test suite). This is what makes ResNet-20/56-scale
accuracy experiments tractable in Python (DESIGN.md substitution #3).

The engine walks the lowered :class:`~repro.core.program.AthenaProgram`
with a subclass of :class:`~repro.core.program.PlainIntExecutor` (the
walker behind ``forward_int``) that adds e_ms to every LUT round and
max-tree ReLU and writes no calibration peak. With noise disabled it is
``forward_int`` by construction, on every model, wrapped MACs included.

The engine also records per-layer statistics: the error ratio Fig. 4 plots
(fraction of LUT outputs flipped by noise), the MAC peaks Fig. 4's orange
line plots, and the LUT-evaluation counts the accelerator trace consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import lut as lutlib
from repro.core.program import PlainIntExecutor, lower, run_program
from repro.errors import ParameterError
from repro.fhe.fbs import FbsLut
from repro.fhe.lwe import expected_ems_std
from repro.fhe.params import ATHENA, FheParams
from repro.quant.quantize import QMaxPool, QuantizedModel, _wrap_t


@dataclass
class AthenaNoiseModel:
    """The e_ms perturbation of §3.3: N(0, (t*sigma/Q)^2 + (||s||^2+1)/12).

    The dimension switch N -> n happens *before* the final modulus switch
    (paper §3.2.2 / our lwe chain), so the rounding term uses the small
    LWE secret's norm: ``secret_norm_sq`` defaults to the expected ternary
    norm 2n/3 (std ~10.7 at n = 2048 — the paper's "about 4 bits", and the
    value the real backend measures in the framework tests). Set
    ``enabled=False`` for a noise-free run.
    """

    params: FheParams = ATHENA
    secret_norm_sq: float | None = None
    enabled: bool = True

    @property
    def std(self) -> float:
        norm_sq = (
            self.secret_norm_sq
            if self.secret_norm_sq is not None
            else 2 * self.params.lwe_n / 3
        )
        return expected_ems_std(self.params, norm_sq)

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        if not self.enabled:
            return np.zeros(shape, dtype=np.int64)
        return np.rint(rng.normal(0.0, self.std, shape)).astype(np.int64)


@dataclass
class LayerStat:
    """Per-LUT-layer record for Fig. 4 and the execution trace; the
    counters are filled as the layer runs."""

    name: str
    mac_peak: int = field(init=False, default=0)
    lut_evals: int = field(init=False, default=0)
    flipped: int = field(init=False, default=0)
    total: int = field(init=False, default=0)

    @property
    def error_ratio(self) -> float:
        return self.flipped / self.total if self.total else 0.0


@dataclass
class InferenceStats:
    layers: list[LayerStat] = field(init=False, default_factory=list)

    def layer(self, name: str) -> LayerStat:
        stat = LayerStat(name)
        self.layers.append(stat)
        return stat


class SimulatedAthenaEngine:
    """Runs a :class:`QuantizedModel` through the Athena pipeline."""

    def __init__(
        self,
        model: QuantizedModel,
        params: FheParams = ATHENA,
        seed: int = 0,
        noise: AthenaNoiseModel | None = None,
    ):
        if model.config.t != params.t:  # noise-free == forward_int needs one t
            raise ParameterError(f"model quantized for t = {model.config.t}, "
                                 f"but {params.name} runs t = {params.t}")
        self.model = model
        self.params = params
        self.program = lower(model, params)
        self.rng = np.random.default_rng(seed)
        self.noise = noise if noise is not None else AthenaNoiseModel(params)
        self._luts: dict[int, FbsLut] = {}

    # -- LUT cache ---------------------------------------------------------

    def _table(self, step) -> FbsLut:
        got = self._luts.get(id(step))
        if got is None:
            got = self._luts[id(step)] = step.lut.build(self.model.config)
        return got

    # -- main entry ----------------------------------------------------------

    def infer(self, x: np.ndarray, stats: InferenceStats | None = None) -> np.ndarray:
        """Encrypted-pipeline-faithful inference; returns integer logits."""
        stats = stats if stats is not None else InferenceStats()
        x_q = self.model.quantize_input(x)
        return run_program(self.program, _SimulatedExecutor(self, stats), x_q)

    def infer_with_stats(self, x: np.ndarray) -> tuple[np.ndarray, InferenceStats]:
        stats = InferenceStats()
        out = self.infer(x, stats)
        return out, stats

    def infer_probs(self, x: np.ndarray) -> np.ndarray:
        """Encrypted softmax (paper §3.2.3): exp LUT, reciprocal LUT of the
        sum, one CMult — with e_ms perturbation on both LUT rounds."""
        logits = self.infer(x)
        tail_scale = self.program.final_scale()
        exp_lut, inv_lut, inv_levels = lutlib.softmax_luts(
            self.params.t, in_scale=tail_scale
        )
        t = self.params.t
        shifted = logits - logits.max(axis=-1, keepdims=True)
        noisy = _wrap_t(shifted + self.noise.sample(self.rng, shifted.shape), t)
        e = exp_lut.apply_plain_signed(noisy)
        total = e.sum(axis=-1, keepdims=True)
        total_noisy = _wrap_t(total + self.noise.sample(self.rng, total.shape), t)
        r = inv_lut.apply_plain_signed(total_noisy)
        probs = (e * r).astype(np.float64)  # the ciphertext-ciphertext mult
        denom = probs.sum(axis=-1, keepdims=True)
        denom[denom == 0] = 1.0
        return probs / denom

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        """Top-1 accuracy, ``x`` run 128 images at a time (the chunking
        fixes the order of the engine's noise draws)."""
        correct = 0
        for s in range(0, x.shape[0], 128):
            logits = self.infer(x[s : s + 128])
            correct += int((logits.argmax(axis=1) == y[s : s + 128]).sum())
        return correct / x.shape[0]


class _SimulatedExecutor(PlainIntExecutor):
    """The integer walker with e_ms injected at every FBS (the engine's walker).

    Only the hooks differ from :class:`PlainIntExecutor`: the schedule, the
    MACs, the mod-t wraps and the max-tree order are the plain walker's, so
    a noise-free engine is ``forward_int``. The RNG draws one e_ms tensor
    per LUT round and per max-tree level, in walk order.
    """

    def __init__(self, engine: SimulatedAthenaEngine, stats: InferenceStats):
        super().__init__(engine.model.config)
        self.engine = engine
        self.stats = stats

    def _lut(self, step, value: np.ndarray) -> np.ndarray:
        """Steps 2-5 of the loop: noise refresh chain + FBS, on integers.

        The flip statistic (Fig. 4's blue line) is scale-aware: a deviation
        counts once it reaches one LSB of the *activation* (int-a) domain,
        so wide intermediate remaps aren't reported as spuriously noisy.
        """
        engine, t = self.engine, self.cfg.t
        lut = engine._table(step)
        stat = self.stats.layer(step.stat)
        wrapped = _wrap_t(value, t)
        noisy = _wrap_t(wrapped + engine.noise.sample(engine.rng, value.shape), t)
        out = lut.apply_plain_signed(noisy)
        clean = lut.apply_plain_signed(wrapped)
        threshold = max(1, lut.signed_range // (2 * self.cfg.a_max + 1))
        stat.mac_peak = max(stat.mac_peak, int(np.abs(value).max()))
        stat.lut_evals += value.size
        stat.flipped += int((np.abs(out - clean) >= threshold).sum())
        stat.total += value.size
        return out

    def _relu(self, diff: np.ndarray) -> np.ndarray:
        """Each pairwise max is one perturbed ReLU FBS. Only evals count:
        the ~e_ms shift of the selected maximum is absorbed by the remap
        LUT, so counting flips here would overstate Fig. 4's error ratio."""
        engine, t = self.engine, self.cfg.t
        noisy = _wrap_t(diff + engine.noise.sample(engine.rng, diff.shape), t)
        self._pool_stat.lut_evals += diff.size
        return lutlib.relu_lut(t).apply_plain_signed(noisy)

    def _mac(self, layer, value: np.ndarray) -> np.ndarray:
        """A simulation never writes calibration peaks onto the IR."""
        return value

    def _maxpool(self, x_q: np.ndarray, layer: QMaxPool) -> np.ndarray:
        self._pool_stat = self.stats.layer("maxpool")
        return super()._maxpool(x_q, layer)
