"""Compile-time plans: everything request-invariant, computed once.

The Athena loop splits naturally into two phases the original executor
interleaved on every request:

* **compile time** — work that depends only on the *model* and the
  *parameter set*: Eq. 1 kernel encoding (and its NTT operand form), bias
  placement, LUT tabulation + polynomial interpolation + BSGS schedule,
  the S2C evaluation-matrix diagonals, and every refresh round's extraction
  positions, pack rows and exact ``-LUT(0)`` dead-slot correction.
* **run time** — ciphertext operations on the request's encrypted data.

:func:`compile_program` lowers an :class:`~repro.core.program.AthenaProgram`
into a :class:`CompiledProgram` holding all of the former, so
:class:`~repro.core.framework.CiphertextExecutor` becomes a thin interpreter
that performs only the latter. The compiled artifacts are plain
plaintext/array data — no key material and nothing secret — so a plan can be
built once, serialized (:mod:`repro.fhe.serialize`), cached on disk keyed by
``(model hash, params hash)``, and shared by every session that runs the
same model under the same parameters.

Feature layouts
---------------

Interior layers chain through :class:`FeatureLayout` descriptors: the
compiler walks the program once, computes the coefficient layout each
step *requires* of its input (a padded grid for a pad > 0 convolution,
compact rows for an FC head), and compiles every :class:`RefreshRound` to
pack its LWE samples directly into the next consumer's layout
(:attr:`RefreshRound.rows` — always explicit; the compact layout is
``arange(count)``). The rows a round does not fill are trivial zero
encryptions, and its ``-LUT(0)`` correction keeps them *exact* zeros after
S2C for any table — which is what makes the next layer's Eq. 1 product a
convolution, and what lets a placed layout's margin act as the next
convolution's zero padding. A convolution compiles on whichever grid its
input arrives on (:func:`_eq1`), an FC as the ``1 x 1`` grid.

MAC-domain max-pool fusion compiles to a tree of ``(delta, round)``
levels: ``max(a, b) = b + relu(a - b)`` evaluated with one exact monomial
shift, one ReLU refresh round placed back onto the kept grid cells, and
one ciphertext subtraction per level — ``2*log2(k)`` levels for a
``k x k`` (kernel == stride, power of two) window, batched SIMD-wide
across all windows and channels.

Every LUT-bearing step compiles to exactly one :class:`RefreshRound` —
one SIMD-wide pack -> FBS -> S2C per ciphertext, as the paper's Fig. 2
draws it — and each round's BSGS split is the balanced one its LUT
polynomial's degree gives (:meth:`repro.fhe.fbs.FbsPlan.from_lut`). There
is no per-step choice to resolve, so a plan is a function of the lowered
program and the parameter set alone, and :func:`program_fingerprint` (with
the parameter fingerprint) is its complete cache key.

Bit-identity contract: a plan-driven run issues the *identical* homomorphic
op sequence as a plan-free run (the plan only moves the derivation of each
op's plaintext operand to compile time), so given the same keys and
randomness the outputs are bit-for-bit equal. ``tests/test_plan.py`` pins
this.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.encoding import encode_kernels, lane_span, output_cells
from repro.core.program import AthenaProgram, LinearStep
from repro.errors import EncodingError, ParameterError
from repro.fhe.backend import current_backend
from repro.fhe.bfv import Plaintext
from repro.fhe.fbs import FbsLut, FbsPlan
from repro.fhe.params import FheParams
from repro.fhe.s2c import S2CPlan
from repro.fhe.serialize import params_fingerprint
from repro.fhe.slots import lane_positions

__all__ = [
    "CompiledLinear",
    "CompiledPool",
    "CompiledProgram",
    "CompiledRemap",
    "CompiledReshape",
    "CompiledResidual",
    "FeatureLayout",
    "LaneLayout",
    "RefreshRound",
    "compile_program",
    "program_fingerprint",
]


def program_fingerprint(program: AthenaProgram) -> str:
    """Hex digest pinning a lowered model: structure, weights, LUT recipes.

    Two programs lowered from the same quantized model hash identically;
    any change to a weight, bias, scale, fusion decision, grouped-conv
    topology, or quantization config changes the digest. Used (with the
    parameter fingerprint) as the on-disk plan-cache key.
    """
    h = hashlib.sha256()
    h.update(repr(program.config).encode())

    def feed(steps) -> None:
        for step in steps:
            h.update(f"|{step.kind}:{step.name}".encode())
            if step.kind == "linear":
                layer = step.layer
                stride = getattr(layer, "stride", 1)
                pad = getattr(layer, "pad", 0)
                groups = getattr(layer, "groups", 1)
                h.update(
                    f":{step.op}:{step.s2c:d}:{stride}:{pad}"
                    f":{layer.activation}:{layer.out_scale}"
                    f":{step.fused_pool is not None:d}".encode()
                )
                if groups != 1:
                    h.update(f":g{groups}".encode())
                # Mixed-precision material is appended only when present so
                # digests of legacy single-config models are unchanged.
                bits = getattr(layer, "bits", None)
                lut_r = getattr(layer, "lut_range", None)
                if bits is not None or lut_r:
                    h.update(
                        f":mp:{bits.label if bits else '-'}:{lut_r or 0}".encode()
                    )
                h.update(np.ascontiguousarray(layer.weight).tobytes())
                h.update(np.ascontiguousarray(layer.bias).tobytes())
            elif step.kind == "remap":
                h.update(f":{step.lut.kind}:{step.lut.divisor}:{step.s2c:d}".encode())
                if step.lut.lut_range:
                    h.update(f":r{step.lut.lut_range}".encode())
            elif step.kind == "pool":
                h.update(f":{step.op}".encode())
            elif step.kind == "residual":
                h.update(f":{step.layer.skip_alpha}:{step.s2c:d}".encode())
                if getattr(step.layer, "lut_range", None):
                    h.update(f":r{step.layer.lut_range}".encode())
                feed(step.body.steps)
                if step.shortcut:
                    feed(step.shortcut.steps)

    feed(program.steps)
    return h.hexdigest()


# --------------------------------------------------------------------------
# Feature layouts
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FeatureLayout:
    """Where a logical feature tensor lives in a ciphertext's coefficients.

    ``grid=None`` is the compact layout: element ``i`` (C-order) at
    coefficient ``i``. With a
    ``(gh, gw)`` grid, channel ``c``'s image sits inside an interior window
    at ``offset=(oy, ox)``: element ``(c, i, j)`` at coefficient
    ``c*gh*gw + (oy+i)*gw + (ox+j)``, with the margin coefficients *exact*
    zeros (the refresh-placement invariant). A padded-grid layout is how a
    pad > 0 interior convolution receives its zero padding for free.
    """

    shape: tuple
    grid: tuple | None = None
    offset: tuple = (0, 0)

    @property
    def count(self) -> int:
        return int(math.prod(self.shape))

    @property
    def span(self) -> int:
        """One-past-the-last coefficient the layout may occupy."""
        if self.grid is None:
            return self.count
        return self.shape[0] * self.grid[0] * self.grid[1]

    def is_compact(self) -> bool:
        if self.grid is None:
            return True
        return (
            len(self.shape) == 3
            and self.grid == tuple(self.shape[1:])
            and tuple(self.offset) == (0, 0)
        )

    def rows(self) -> np.ndarray:
        """Coefficient index of every logical element, C-order."""
        if self.is_compact():
            return np.arange(self.count, dtype=np.int64)
        if len(self.shape) != 3:
            raise ParameterError(
                f"grid layout needs a (C, H, W) shape, got {self.shape}")
        c, h, w = self.shape
        gh, gw = self.grid
        oy, ox = self.offset
        if oy < 0 or ox < 0 or oy + h > gh or ox + w > gw:
            raise ParameterError(
                f"image {h}x{w} at offset ({oy},{ox}) overflows grid {gh}x{gw}")
        cidx = np.arange(c, dtype=np.int64)[:, None, None] * (gh * gw)
        yidx = (np.arange(h, dtype=np.int64)[None, :, None] + oy) * gw
        xidx = np.arange(w, dtype=np.int64)[None, None, :] + ox
        return (cidx + yidx + xidx).reshape(-1)


def _compact(shape) -> FeatureLayout:
    return FeatureLayout(tuple(int(d) for d in shape))


@dataclass(frozen=True)
class RefreshRound:
    """One turn of the paper's loop after the linear step (Fig. 2).

    Steps 2-3 mod-switch the ciphertext and extract the LWE samples at
    ``positions``; step 4 packs sample ``i`` onto row ``rows[i]`` of a
    zero-padded batch of ``height`` rows (the compact layout is
    ``rows = arange(count)``); step 5 evaluates ``lut`` through its BSGS
    schedule ``fbs``; ``correction`` — the slot-encoded ``-LUT(0)`` over every
    row the round did *not* fill, ``None`` only when LUT(0) = 0 or all ``n``
    rows are filled — makes those rows exact zeros again, so after S2C sample
    ``i`` sits alone at coefficient ``rows[i]`` and everything else is an
    exact zero. Every refresh the executor runs — a layer's
    tail, a lane batch, a max-tree level, a remap, a residual join — is one
    of these, built by :func:`_refresh_round`.
    """

    positions: np.ndarray
    rows: np.ndarray
    height: int
    lut: FbsLut
    fbs: FbsPlan
    correction: Plaintext | None

    @property
    def count(self) -> int:
        return self.positions.shape[0]


def _refresh_round(positions: np.ndarray, rows: np.ndarray, lut: FbsLut,
                   fbs: FbsPlan, params: FheParams) -> RefreshRound:
    """The one builder of a round — and of its ``-LUT(0)`` plaintext."""
    correction = None
    lut0 = int(lut.values[0])
    if lut0 and rows.size < params.n:
        vals = np.full(params.n, -lut0 % params.t, dtype=np.int64)
        vals[rows] = 0
        correction = Plaintext.from_slots(vals, params)
        correction.add_operand()
    return RefreshRound(
        positions, rows, int(rows.max()) + 1, lut, fbs, correction)


@dataclass(frozen=True)
class LaneLayout:
    """Per-batch-size geometry of one linear round carrying ``lanes`` images.

    Lane ``d``'s input block sits at coefficient offset ``d * in_stride``
    (``in_stride`` = the step's :attr:`CompiledLinear.lane_span`); ``round``
    extracts every lane's MAC outputs (lane-major) and packs lane ``d``'s
    sample ``i`` at row ``d * out_stride + i`` — spaced so that after S2C
    each lane's coefficients are exactly where the *next* layer's lane ``d``
    expects its input (``out_stride`` = the next step's lane span; the tail
    packs compactly at ``out_stride = count``). Gap rows are trivial zero
    encryptions, made exact zeros again by the round's own correction.
    """

    lanes: int
    in_stride: int
    out_stride: int
    round: RefreshRound
    #: Bias replicated into every lane (``None`` when the bias is zero).
    bias: Plaintext | None


@dataclass
class CompiledLinear:
    """All request-invariant artifacts of one conv/FC five-step round."""

    index: int
    name: str
    op: str  # 'conv' | 'fc'
    s2c: bool
    kind: str = field(default="linear", init=False)
    #: Eq. 1 kernel polynomial, NTT operand pre-warmed.
    kernel: Plaintext = None
    #: Bias placed at the (pre-pool) output positions (``None`` when zero).
    bias: Plaintext | None = None
    #: The layer's refresh: extraction at the valid outputs (the pooled
    #: winners under a fused pool), packed onto the next consumer's rows.
    round: RefreshRound = None
    #: Coefficient span of one image through this round (Eq. 1 workspace).
    lane_span: int = 0
    #: Pack-row stride between lanes' outputs (annotated by the lane chain).
    lane_out_stride: int = 0
    #: MAC-domain max-pool tree, one ``(delta, ReLU round)`` per level
    #: (``None`` when no fused pool). ``delta`` is the coefficient distance
    #: between a kept window cell and its partner; the round refreshes the
    #: differences back onto the kept cells (relu(0) = 0 keeps every other
    #: coefficient an exact zero).
    pool_rounds: tuple[tuple[int, RefreshRound], ...] | None = None
    #: Lazily built per-batch-size layouts, keyed by lane count.
    _lane_layouts: dict = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def lane_layout(self, lanes: int, params: FheParams) -> LaneLayout:
        """Build (and cache) the geometry for a ``lanes``-image batch."""
        cached = self._lane_layouts.get(lanes)
        if cached is not None:
            return cached
        base = self.round
        if self.pool_rounds is not None:
            raise ParameterError(
                "a fused max tree shifts one image's cells: no lane batching")
        if self.lane_span <= 0 or self.lane_out_stride <= 0:
            raise ParameterError(
                f"step {self.name!r} carries no lane geometry (stale plan?)")
        n = params.n
        if lanes * self.lane_span > n:
            raise ParameterError(
                f"{lanes} lanes of span {self.lane_span} exceed n={n}")
        positions = lane_positions(base.positions, self.lane_span, lanes, n)
        rows = lane_positions(base.rows, self.lane_out_stride, lanes, n)
        bias = None
        if self.bias is not None:
            coeffs = np.zeros(n, dtype=np.int64)
            coeffs[positions] = np.tile(self.bias.coeffs[base.positions], lanes)
            bias = Plaintext.from_coeffs(coeffs, params)
            bias.add_operand()
        layout = LaneLayout(
            lanes=lanes,
            in_stride=self.lane_span,
            out_stride=self.lane_out_stride,
            round=_refresh_round(positions, rows, base.lut, base.fbs, params),
            bias=bias,
        )
        self._lane_layouts[lanes] = layout
        return layout


@dataclass
class CompiledPool:
    """A 'sum'/'gap' pooling window realized as one depthwise Eq. 1 PMult.

    The kernel is a dense block-diagonal all-ones stack — channel ``c``'s
    window sum accumulates only from input channel ``c`` — so the product
    carries every window total at :attr:`positions`, where the following
    :class:`CompiledRemap` refreshes through the division table.
    """

    index: int
    name: str
    kind: str = field(default="pool", init=False)
    kernel: Plaintext = None
    positions: np.ndarray = None


@dataclass
class CompiledRemap:
    """A bare LUT refresh round (the pooling division tables)."""

    index: int
    name: str
    s2c: bool
    kind: str = field(default="remap", init=False)
    round: RefreshRound = None


@dataclass
class CompiledResidual:
    """A residual block: compiled branches + the wide-scale join round.

    The branch tails pack into a shared join layout (the block input's
    layout for an identity skip, compact rows for projection shortcuts),
    so the join is one ciphertext addition (``main + alpha * skip``)
    followed by a post-add LUT refresh placed into the next consumer's
    layout.
    """

    index: int
    name: str
    s2c: bool
    kind: str = field(default="residual", init=False)
    alpha: int = 1
    round: RefreshRound = None
    body: list = field(default_factory=list)
    shortcut: list | None = None


@dataclass(frozen=True)
class CompiledReshape:
    """A flatten: free on ciphertexts, so it has no compile-time artifacts
    (the wire's flagged placeholder)."""

    index: int
    name: str
    kind: str = field(default="reshape", init=False)


@dataclass
class CompiledProgram:
    """A fully lowered + precomputed model for one parameter set.

    ``steps`` aligns 1:1 with the source program's top-level steps; the
    executor resolves each runtime step to its artifacts *by index*
    (never by object identity, so one plan serves any equivalent
    re-lowered program). Contains no key material.
    """

    steps: list
    params: FheParams
    s2c: S2CPlan
    model_hash: str
    name: str = "model"
    #: Images one ciphertext can carry through the whole program (>= 1):
    #: the ring-size bound over a chain of conv/FC rounds, and 1 (single
    #: image only) for a fused max tree and for pool / remap / residual
    #: steps, whose geometry is one image's (see :func:`_annotate_lanes`).
    batch_capacity: int = 1

    def bind(self, program: AthenaProgram, params: FheParams) -> "CompiledProgram":
        """Validate that this plan was compiled from ``program`` (same
        structure, weights and LUT recipes) under ``params``;
        return ``self`` so loaders can chain. A plan — compiled or loaded —
        is complete: binding never builds anything.

        This is the executor's one boundary check: the step trees align kind
        for kind and the entry step is linear (it encrypts the input), so no
        per-request handler re-tests what it was handed."""
        if params_fingerprint(params) != params_fingerprint(self.params):
            raise ParameterError("plan was compiled for different parameters")
        if self.model_hash != program_fingerprint(program):
            raise ParameterError("plan was compiled for a different model")
        if not _aligned(program.steps, self.steps):
            raise ParameterError("plan steps do not align with the program's")
        entry = next((s for s in self.steps if s.kind != "reshape"), None)
        if entry is None or entry.kind != "linear":
            raise ParameterError("the program's entry step must be a conv/FC")
        return self


def _aligned(steps: list, csteps: list) -> bool:
    """Same step kinds in the same order, through both residual branches."""
    return len(steps) == len(csteps) and all(
        step.kind == cstep.kind and (step.kind != "residual" or (
            _aligned(step.body.steps, cstep.body)
            and _aligned(step.shortcut.steps if step.shortcut else [],
                         cstep.shortcut or [])))
        for step, cstep in zip(steps, csteps))


def _annotate_lanes(steps: list, params: FheParams) -> int:
    """Chain lane geometry across the linear steps; return the batch capacity.

    Each interior layer's lanes must exit at the *next* layer's input stride
    (its lane span) so that S2C drops lane ``d``'s outputs exactly where lane
    ``d``'s next input block begins — the round's own rows, tiled at that
    stride, whatever layout they place into; the tail packs lanes compactly.
    Capacity is the ring-size bound ``min_j n // lane_span_j`` (and
    ``n // count`` for the compact tail). The chain is re-derived after
    deserialization, so a loaded plan batches identically to a freshly
    compiled one.
    """
    capacity, tail = params.n, None
    for step in steps:
        if step.kind == "reshape":
            continue
        if step.kind != "linear" or step.pool_rounds is not None:
            # One image's geometry by construction: pool / remap / residual
            # steps address one image's coefficients (window sums, the join
            # layout), and a max-tree level shifts the whole ciphertext by
            # one image's cell distance and refreshes back onto its cells.
            return 1
        if tail is not None:
            tail.lane_out_stride = step.lane_span
        capacity = min(capacity, params.n // max(1, step.lane_span))
        tail = step
    if tail is not None:
        tail.lane_out_stride = tail.round.count
        capacity = min(capacity, params.n // tail.round.count)
    return max(1, capacity)


def _pack_rows_for(target: FeatureLayout | None, out_count: int,
                   params: FheParams) -> np.ndarray:
    """Resolve a refresh round's pack rows: the target layout's, or compact."""
    if target is None:
        return np.arange(out_count, dtype=np.int64)
    if target.count != out_count:
        raise ParameterError(
            f"target layout holds {target.count} values, round produces "
            f"{out_count}")
    if target.span > params.n:
        raise ParameterError(
            f"target layout span {target.span} exceeds n={params.n}")
    return target.rows()


def _s2c_plan(params: FheParams) -> S2CPlan:
    """The params-only S2C plan, rotation index maps warmed — shared by
    :func:`compile_program` and :func:`repro.fhe.serialize.load_plan`."""
    plan = S2CPlan.build(params)
    plan.matvec.warm_automorphisms(params)
    return plan


def _fbs_plan(lut: FbsLut, params: FheParams) -> FbsPlan:
    return FbsPlan.from_lut(lut).materialize(params)


# --------------------------------------------------------------------------
# Layout-resolution walk: logical shapes and required layouts
# --------------------------------------------------------------------------


def _shape_after(step, shape: tuple | None) -> tuple | None:
    """Logical output shape of one step (``None`` when untrackable)."""
    if step.kind == "linear":
        if step.op == "conv":
            c, oh, ow = step.layer.out_shape
            if step.fused_pool is not None:
                k, s = step.fused_pool.kernel, step.fused_pool.stride
                oh, ow = (oh - k) // s + 1, (ow - k) // s + 1
            return (c, oh, ow)
        return (step.layer.out_features,)
    if shape is None:
        return None
    if step.kind == "pool":
        if step.op == "gap":
            return (shape[0],)
        c, h, w = shape
        k, s = step.layer.kernel, step.layer.stride
        return (c, (h - k) // s + 1, (w - k) // s + 1)
    if step.kind == "reshape":
        return (int(math.prod(shape)),)
    if step.kind == "residual":
        for sub in step.body.steps:
            shape = _shape_after(sub, shape)
        return shape
    return shape  # remap


def _initial_shape(steps: list) -> tuple | None:
    for step in steps:
        if step.kind == "linear":
            if step.op == "conv":
                return tuple(step.layer.in_shape)
            return (step.layer.in_features,)
        return None
    return None


def _required_layout(steps: list, j: int, shape: tuple | None,
                     final_target: FeatureLayout | None) -> FeatureLayout | None:
    """Input layout ``steps[j]`` needs (looking through free reshapes)."""
    while j < len(steps) and steps[j].kind == "reshape":
        shape = _shape_after(steps[j], shape)
        j += 1
    if j >= len(steps):
        return final_target
    step = steps[j]
    if step.kind == "linear":
        if step.op == "conv":
            layer = step.layer
            cin, h, w = layer.in_shape
            if layer.pad:
                p = layer.pad
                return FeatureLayout(
                    (cin, h, w), (h + 2 * p, w + 2 * p), (p, p))
            return FeatureLayout((cin, h, w))
        return FeatureLayout((step.layer.in_features,))
    if step.kind in ("pool", "remap"):
        return _compact(shape) if shape is not None else None
    if step.kind == "residual":
        inner = _required_layout(step.body.steps, 0, shape, None)
        if inner is None and shape is not None:
            return _compact(shape)
        return inner
    return final_target


# --------------------------------------------------------------------------
# Per-kind compilation
# --------------------------------------------------------------------------


def _compile_round(step, config, params: FheParams, positions: np.ndarray,
                   target: FeatureLayout | None) -> RefreshRound:
    """A LUT-bearing step's refresh, packed into the next consumer's layout."""
    lut = step.lut.build(config, params.t)
    rows = _pack_rows_for(target, positions.shape[0], params)
    return _refresh_round(positions, rows, lut, _fbs_plan(lut, params), params)


def _mac_relu_lut(t: int) -> FbsLut:
    """The MAC-domain rectifier every max-tree round refreshes through."""
    return FbsLut.from_function(lambda v: np.maximum(v, 0), t, name="mac-relu")


def _eq1(name: str, weight: np.ndarray, grid: tuple, origin: tuple,
         stride: int, out_hw: tuple, params: FheParams):
    """The one Eq. 1 derivation: kernel operand, lane span and extraction
    positions of a ``(cout, cin, wk, wk)`` stack on a ``(gh, gw)`` grid whose
    ``oh x ow`` output window starts at grid cell ``origin``.

    It fits when every output lies inside the ring (which bounds the kernel:
    output ``(0, 0, 0)`` sits at or above its top coefficient) and the
    product's negacyclic wrap — coefficients ``[0, span - n)`` — stays below
    all of them.
    """
    cout, cin, wk, _ = weight.shape
    (gh, gw), (oy, ox), (oh, ow), n = grid, origin, out_hw, params.n
    span = lane_span(cout, cin, gh, gw, wk)
    positions = output_cells(
        cout, cin, gh, gw, wk,
        oy + np.arange(oh) * stride, ox + np.arange(ow) * stride)
    if (not positions.size or int(positions.max()) >= n
            or span - n > int(positions.min())):
        raise EncodingError(
            f"step {name!r}: the Eq. 1 product of a ({cout},{cin},{wk},{wk}) "
            f"kernel on a {gh}x{gw} grid (span {span}) does not fit degree {n}")
    kernel = Plaintext.from_coeffs(encode_kernels(weight, gh, gw, n), params)
    kernel.pmult_operand()
    return kernel, span, positions


def _pool_tree(step: LinearStep, grid: tuple,
               origin: tuple) -> tuple[list[tuple[int, np.ndarray]], np.ndarray]:
    """Build the MAC-domain max levels, each ``(delta, kept cells)``, + the
    final pooled extraction positions.

    Conv output ``(cp, a, b)`` sits at grid cell ``(oy + a*s, ox + b*s)`` of
    :func:`repro.core.encoding.output_cells`; window partners are therefore
    a *uniform* coefficient distance apart across all channels and rows,
    which is what lets one monomial shift serve the whole SIMD batch.
    Supported windows: kernel == stride, power of two (every zoo pool), full
    windows only (im2col semantics).
    """
    layer, pool = step.layer, step.fused_pool
    k, ps = pool.kernel, pool.stride
    if k != ps or k < 2 or k & (k - 1):
        raise ParameterError(
            f"fused max-pool of step {step.name!r} needs kernel == stride, "
            f"power of two; got kernel={k} stride={ps}")
    cout, cin, wk, _ = layer.weight.shape
    s = layer.stride
    _, oh, ow = layer.out_shape
    (gh, gw), (oy, ox) = grid, origin

    def positions_for(ys, xs) -> np.ndarray:
        return output_cells(cout, cin, gh, gw, wk,
                            oy + np.asarray(ys) * s, ox + np.asarray(xs) * s)

    levels = k.bit_length() - 1
    origins_y = list(range(0, oh - k + 1, k))
    origins_x = list(range(0, ow - k + 1, k))
    rounds: list[tuple[int, np.ndarray]] = []
    for r in range(levels):  # column reduction, all rows still live
        stepw = 1 << (r + 1)
        xs = [w0 + o for w0 in origins_x for o in range(0, k, stepw)]
        rounds.append(((1 << r) * s, positions_for(range(oh), xs)))
    for r in range(levels):  # row reduction over the window columns
        steph = 1 << (r + 1)
        ys = [y0 + o for y0 in origins_y for o in range(0, k, steph)]
        rounds.append(((1 << r) * s * gw, positions_for(ys, origins_x)))
    return rounds, positions_for(origins_y, origins_x)


def _compile_linear(
    step: LinearStep,
    index: int,
    config,
    params: FheParams,
    in_layout: FeatureLayout | None,
    target: FeatureLayout | None,
) -> CompiledLinear:
    layer = step.layer
    n = params.n
    if step.op == "conv":
        weight, stride, pad = layer.weight, layer.stride, layer.pad
        _, h, w = layer.in_shape
        out_hw = layer.out_shape[1:]
        if in_layout is None:
            # The entry image: the client zero-pads it onto the
            # convolution's own padded grid, window at the origin.
            grid, origin = (h + 2 * pad, w + 2 * pad), (0, 0)
        else:
            # The grid the input arrives on (compact: the bare image), whose
            # exact-zero margin is this convolution's zero padding.
            grid = in_layout.grid or (h, w)
            origin = (in_layout.offset[0] - pad, in_layout.offset[1] - pad)
            if min(origin) < 0:
                raise ParameterError(
                    f"layout margin {tuple(in_layout.offset)} cannot cover "
                    f"pad {pad} for step {step.name!r}")
    else:
        # An FC layer is Eq. 1 on the 1 x 1 grid.
        weight, stride = layer.weight[:, :, None, None], 1
        grid, origin, out_hw = (1, 1), (0, 0), (1, 1)
    kernel, span, positions = _eq1(
        step.name, weight, grid, origin, stride, out_hw, params)

    bias = None
    if np.any(layer.bias):
        bias_coeffs = np.zeros(n, dtype=np.int64)
        reps = positions.shape[0] // layer.bias.shape[0]
        bias_coeffs[positions] = np.repeat(layer.bias, reps)
        bias = Plaintext.from_coeffs(bias_coeffs, params)
        bias.add_operand()

    pool_rounds = None
    if step.fused_pool is not None:
        if step.op != "conv":
            raise ParameterError(
                f"fused pooling of step {step.name!r} requires a convolution")
        levels, positions = _pool_tree(step, grid, origin)
        relu = _mac_relu_lut(params.t)
        relu_fbs = _fbs_plan(relu, params)
        pool_rounds = tuple(
            (delta, _refresh_round(kept, kept, relu, relu_fbs, params))
            for delta, kept in levels)

    return CompiledLinear(
        index=index,
        name=step.name,
        op=step.op,
        s2c=step.s2c,
        kernel=kernel,
        bias=bias,
        round=_compile_round(step, config, params, positions, target),
        lane_span=span,
        pool_rounds=pool_rounds,
    )


def _compile_pool(step, index: int, params: FheParams,
                  layout: FeatureLayout | None) -> CompiledPool:
    if step.op == "max":
        raise ParameterError(
            f"standalone max-pool {step.name!r} has no ciphertext lowering "
            "(only MAC-domain fusion behind a monotone activation)")
    if layout is None or not layout.is_compact() or len(layout.shape) != 3:
        raise ParameterError(
            f"pool step {step.name!r} needs a compact (C, H, W) ciphertext "
            "input (it cannot open the program)")
    c, h, w = layout.shape
    if step.op == "gap":
        if h != w:
            raise ParameterError(
                f"global average pooling {step.name!r} needs a square map")
        k, s = h, 1
    else:
        k, s = step.layer.kernel, step.layer.stride
    if k > min(h, w):
        raise ParameterError(
            f"pool window {k} of step {step.name!r} exceeds the {h}x{w} "
            "feature map")
    weight = np.zeros((c, c, k, k), dtype=np.int64)
    weight[np.arange(c), np.arange(c)] = 1
    kernel, _, positions = _eq1(
        step.name, weight, (h, w), (0, 0), s,
        ((h - k) // s + 1, (w - k) // s + 1), params)
    return CompiledPool(
        index=index, name=step.name, kernel=kernel, positions=positions)


def _compile_remap(
    step,
    index: int,
    config,
    params: FheParams,
    pending: CompiledPool | None,
    target: FeatureLayout | None,
) -> CompiledRemap:
    if pending is None:
        raise ParameterError(
            f"remap step {step.name!r} has no preceding pool round")
    return CompiledRemap(
        index=index,
        name=step.name,
        s2c=step.s2c,
        round=_compile_round(step, config, params, pending.positions, target),
    )


def _compile_residual(
    step,
    index: int,
    config,
    params: FheParams,
    in_layout: FeatureLayout | None,
    target: FeatureLayout | None,
    shape: tuple | None,
) -> CompiledResidual:
    if in_layout is None:
        raise ParameterError(
            f"residual block {step.name!r} needs a ciphertext input (it "
            "cannot open the program)")
    if shape is None:
        raise ParameterError(
            f"residual block {step.name!r} has no tracked input shape")
    body_out = shape
    for sub in step.body.steps:
        body_out = _shape_after(sub, body_out)
    if body_out is None:
        raise ParameterError(
            f"residual body of {step.name!r} has an untrackable shape")
    if step.shortcut is not None:
        join_layout = _compact(body_out)
        shortcut = _compile_block(
            step.shortcut.steps, config, params, shape, in_layout, join_layout)
    else:
        if tuple(in_layout.shape) != tuple(body_out):
            raise ParameterError(
                f"identity skip of {step.name!r} changes shape "
                f"{in_layout.shape} -> {body_out}")
        join_layout = in_layout
        shortcut = None
    body = _compile_block(
        step.body.steps, config, params, shape, in_layout, join_layout)
    if join_layout.span > params.n:
        raise ParameterError(
            f"join layout of {step.name!r} exceeds degree {params.n}")
    return CompiledResidual(
        index=index,
        name=step.name,
        s2c=step.s2c,
        alpha=int(step.skip_alpha),
        round=_compile_round(step, config, params, join_layout.rows(), target),
        body=body,
        shortcut=shortcut,
    )


def _compile_block(
    steps: list,
    config,
    params: FheParams,
    shape: tuple | None,
    in_layout: FeatureLayout | None,
    final_target: FeatureLayout | None,
) -> list:
    """Compile one step list, chaining layouts.

    A program is straight-line — a run reaches every step — so a step the
    parameter set cannot hold fails the compile, with the per-kind
    compiler's typed error naming it, exactly where the run would fail.
    """
    compiled: list = []
    cur_layout = in_layout
    pending_pool: CompiledPool | None = None
    for i, step in enumerate(steps):
        out_shape = _shape_after(step, shape)
        target = _required_layout(steps, i + 1, out_shape, final_target)
        if step.kind == "linear":
            compiled.append(_compile_linear(
                step, i, config, params, cur_layout, target))
            cur_layout = target
        elif step.kind == "pool":
            pending_pool = _compile_pool(step, i, params, cur_layout)
            compiled.append(pending_pool)
        elif step.kind == "remap":
            compiled.append(_compile_remap(
                step, i, config, params, pending_pool, target))
            pending_pool = None
            cur_layout = target
        elif step.kind == "residual":
            compiled.append(_compile_residual(
                step, i, config, params, cur_layout, target, shape))
            cur_layout = target
        else:  # reshape
            compiled.append(CompiledReshape(i, step.name))
        shape = out_shape
    return compiled


def compile_program(
    program: AthenaProgram,
    params: FheParams | None = None,
    tuning: None = None,
) -> CompiledProgram:
    """Precompute every request-invariant artifact of ``program``.

    A program with a step the ciphertext backend cannot run under ``params``
    raises that step's typed error here, when the plan is built — not on the
    first request.
    """
    # ``tuning`` exists for benchmarks/ledger/tracing.py, its only caller.
    if tuning is not None:
        raise ParameterError("there is no encoding tuner: tuning must be None")
    if params is None:
        params = program.params
    # Compile-time NTT transforms (cached plaintext operands) are labeled
    # so a counting backend separates them from per-request work.
    with current_backend().phase("compile"):
        steps = _compile_block(
            program.steps, program.config, params,
            _initial_shape(program.steps), None, None)
        capacity = _annotate_lanes(steps, params)
        return CompiledProgram(
            steps=steps,
            params=params,
            s2c=_s2c_plan(params),
            model_hash=program_fingerprint(program),
            name=program.name,
            batch_capacity=capacity,
        )
