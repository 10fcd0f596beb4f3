"""Functional bootstrapping (paper §3.2.3): LUT -> polynomial -> evaluation.

A LUT over Z_t (t prime) is interpolated into the unique polynomial of
degree <= t-1 agreeing with it everywhere:

    F_0 = LUT(0),   F_j = - sum_{k=1}^{t-1} LUT(k) * k^(t-1-j)   (j >= 1)

(this is Eq. 3 of the paper with the index corrected to start at j=1; the
paper's own worked ReLU example at t=5 — FBS(x) = 3x + x^2 + 2x^4 — matches
this form). Since k^(t-1-j) = k^(-j), the coefficient vector is a DFT of the
LUT over the multiplicative group: for t-1 a power of two (t = 65537, 257,
17...) we compute it in O(t log t) with a cyclic NTT; any other prime t
falls back to a vectorized O(t^2) matrix product.

Evaluation uses the Paterson-Stockmeyer / BSGS split of Algorithm 2:
O(t) SMult + HAdd (baby sums with scalar coefficients) and O(sqrt(t)) CMult
(powers and giant-step combinations) — this asymmetry is exactly what the
Athena accelerator's FRU array and two-region dataflow exploit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from repro.errors import ParameterError
from repro.fhe.backend import current_backend
from repro.fhe.bfv import BfvCiphertext, BfvContext, Plaintext
from repro.fhe.keys import KeySwitchKey
from repro.fhe.ntt import cyclic_ntt
from repro.utils.modmath import inv_mod, primitive_root

__all__ = [
    "FbsLut",
    "FbsPlan",
    "evaluate_poly_all",
    "evaluate_poly_plain",
    "fbs_evaluate",
    "interpolate_lut",
    "interpolate_range",
    "register_interpolation",
]


def interpolate_lut(values: np.ndarray, t: int) -> np.ndarray:
    """Coefficients F_0..F_{t-1} of the interpolating polynomial over Z_t."""
    values = np.mod(np.asarray(values, dtype=np.int64), t)
    if values.shape != (t,):
        raise ParameterError(f"LUT must have exactly t={t} entries")
    if (t - 1) & (t - 2) == 0 and t > 3:  # t-1 is a power of two
        return _interpolate_ntt(values, t)
    return _interpolate_dense(values, t)


#: Interpolation results keyed on (table bytes, t). Repeated sessions build
#: the same ReLU / avgpool / remap tables over and over; at t = 65537 each
#: interpolation is a 65537-point NTT, so identical tables are resolved from
#: here. Bounded FIFO: real deployments cycle through a model's handful of
#: tables, so 64 entries is generous.
_INTERP_CACHE: dict[tuple[bytes, int], np.ndarray] = {}
_INTERP_CACHE_MAX = 64


def _interpolate_cached(values: np.ndarray, t: int) -> np.ndarray:
    key = (values.tobytes(), t)
    got = _INTERP_CACHE.get(key)
    if got is None:
        got = interpolate_lut(values, t)
        got.setflags(write=False)
        while len(_INTERP_CACHE) >= _INTERP_CACHE_MAX:
            _INTERP_CACHE.pop(next(iter(_INTERP_CACHE)))
        _INTERP_CACHE[key] = got
    return got


def register_interpolation(values: np.ndarray, t: int, coeffs: np.ndarray) -> None:
    """Seed the interpolation cache with known-good coefficients.

    Used when deserializing a compiled plan: the artifact carries the
    interpolated coefficient vector, so rebuilding its :class:`FbsLut`
    must not pay the interpolation again (or at all, in a fresh process).
    """
    values = np.mod(np.asarray(values, dtype=np.int64), t)
    coeffs = np.mod(np.asarray(coeffs, dtype=np.int64), t)
    if values.shape != (t,) or coeffs.shape != (t,):
        raise ParameterError(f"LUT and coefficients must both have t={t} entries")
    coeffs.setflags(write=False)
    while len(_INTERP_CACHE) >= _INTERP_CACHE_MAX:
        _INTERP_CACHE.pop(next(iter(_INTERP_CACHE)))
    _INTERP_CACHE[(values.tobytes(), t)] = coeffs


def _interpolate_ntt(values: np.ndarray, t: int) -> np.ndarray:
    """O(t log t) path via a multiplicative-group DFT (t-1 a power of two)."""
    g = primitive_root(t)
    # x_m = LUT(g^m); F_j = -sum_m x_m * (g^{-1})^{jm} for j in 1..t-1,
    # with index j = t-1 aliasing to DFT bin 0.
    order = t - 1
    perm = np.empty(order, dtype=np.int64)
    acc = 1
    for m in range(order):
        perm[m] = acc
        acc = acc * g % t
    x = values[perm]
    dft = cyclic_ntt(x, t, inv_mod(g, t))
    coeffs = np.empty(t, dtype=np.int64)
    coeffs[0] = values[0]
    coeffs[1:order] = (-dft[1:order]) % t
    # x^(t-1) also carries the zero-point indicator (1 - x^(t-1)): subtract
    # LUT(0) so that P(a) = LUT(a) on every nonzero a too.
    coeffs[order] = (-dft[0] - values[0]) % t
    return coeffs


def _interpolate_dense(values: np.ndarray, t: int) -> np.ndarray:
    """Vectorized O(t^2) interpolation for arbitrary prime t."""
    k = np.arange(1, t, dtype=np.int64)
    coeffs = np.empty(t, dtype=np.int64)
    coeffs[0] = values[0]
    # Iterate j from t-1 down to 1, keeping k^(t-1-j) as a running vector
    # that picks up one factor of k per step.
    running = np.ones(t - 1, dtype=np.int64)  # k^(t-1-j) at j = t-1
    # Fill from j = t-1 down to 1: running starts at k^0 = 1.
    vals = values[1:]
    for j in range(t - 1, 0, -1):
        coeffs[j] = (-np.dot(vals % t, running) % t + t) % t
        running = running * k % t
    # Zero-point indicator correction on the top coefficient (see above).
    coeffs[t - 1] = (coeffs[t - 1] - values[0]) % t
    return coeffs % t


def interpolate_range(values: np.ndarray, r: int, t: int) -> np.ndarray:
    """Coefficients (length t) of the degree <= 2r polynomial through the
    centered points x = -r..r, with ``values[x + r] = P(x) mod t``.

    The full-domain interpolation (:func:`interpolate_lut`) pins all t
    points and generically has degree t-1. When a layer's MACs only ever
    occupy [-r, r], the table is unconstrained outside that window, and
    the minimal agreeing polynomial has degree <= 2r — the paper's
    flexible per-layer LUT sizing (§3.3 / Fig. 12) realized at compile
    time: a lower degree means proportionally fewer baby-step SMults and
    a shorter giant-step ladder in Algorithm 2.

    Newton divided differences over the consecutive integer abscissae
    (the level-j denominators are all j, so one modular inverse per
    level), then an O(m^2) Horner expansion to monomial coefficients.
    """
    m = 2 * r + 1
    values = np.mod(np.asarray(values, dtype=np.int64), t)
    if r < 0 or values.shape != (m,):
        raise ParameterError(f"restricted LUT needs 2r+1={m} entries")
    if m > t:
        raise ParameterError(f"restricted range 2*{r}+1 exceeds t={t}")
    c = values.copy()
    for j in range(1, m):
        c[j:] = (c[j:] - c[j - 1 : m - 1]) * inv_mod(j, t) % t
    poly = np.zeros(t, dtype=np.int64)
    poly[0] = c[m - 1]
    deg = 0
    for k in range(m - 2, -1, -1):
        # poly <- poly * (x - x_k) + c[k], node x_k = k - r
        xk = (k - r) % t
        shifted = np.zeros(deg + 2, dtype=np.int64)
        shifted[1:] = poly[: deg + 1]
        poly[: deg + 2] = (shifted - xk * poly[: deg + 2]) % t
        poly[0] = (poly[0] + c[k]) % t
        deg += 1
    return poly


def evaluate_poly_all(coeffs: np.ndarray, t: int) -> np.ndarray:
    """Evaluate the LUT polynomial at every point: table[x] = P(x) mod t.

    The inverse of :func:`interpolate_lut`: for t-1 a power of two this
    is one multiplicative-group DFT (O(t log t)); otherwise vectorized
    Horner over the polynomial's actual degree. Used to materialize the
    full table of a range-restricted polynomial, so that re-interpolating
    the table recovers exactly the low-degree coefficients (the unique
    interpolant of degree <= t-1 through all t points *is* P).
    """
    coeffs = np.mod(np.asarray(coeffs, dtype=np.int64), t)
    if coeffs.shape != (t,):
        raise ParameterError(f"coefficient vector must have t={t} entries")
    if (t - 1) & (t - 2) == 0 and t > 3:  # t-1 is a power of two
        g = primitive_root(t)
        order = t - 1
        a = coeffs[:order].copy()
        # On Z_t^* the exponent t-1 aliases to the constant (x^(t-1) = 1).
        a[0] = (coeffs[0] + coeffs[order]) % t
        dft = cyclic_ntt(a, t, g)  # dft[m] = P(g^m) for nonzero points
        out = np.empty(t, dtype=np.int64)
        out[0] = coeffs[0]
        acc = 1
        for m in range(order):
            out[acc] = dft[m]
            acc = acc * g % t
        return out
    nz = np.nonzero(coeffs)[0]
    deg = int(nz[-1]) if nz.size else 0
    x = np.arange(t, dtype=np.int64)
    out = np.zeros(t, dtype=np.int64)
    for c in coeffs[deg::-1]:
        out = (out * x + int(c)) % t
    return out


def evaluate_poly_plain(coeffs: np.ndarray, x: np.ndarray, t: int) -> np.ndarray:
    """Reference Horner evaluation of the LUT polynomial over Z_t."""
    x = np.mod(np.asarray(x, dtype=np.int64), t)
    out = np.zeros_like(x)
    for c in coeffs[::-1]:
        out = (out * x + int(c)) % t
    return out


@dataclass
class FbsLut:
    """A functional-bootstrapping lookup table and its polynomial form."""

    values: np.ndarray  # length t, entries mod t
    t: int
    name: str = "lut"
    coeffs: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.values = np.mod(np.asarray(self.values, dtype=np.int64), self.t)
        self.coeffs = _interpolate_cached(self.values, self.t)

    @classmethod
    def from_function(
        cls, fn: Callable[[np.ndarray], np.ndarray], t: int, name: str = "lut"
    ) -> "FbsLut":
        """Tabulate fn over the *centered* domain (-t/2, t/2]."""
        raw = np.arange(t, dtype=np.int64)
        centered = np.where(raw > t // 2, raw - t, raw)
        return cls(np.asarray(fn(centered), dtype=np.int64), t, name)

    def apply_plain(self, x: np.ndarray) -> np.ndarray:
        """Plaintext table lookup (ground truth for tests); output mod t."""
        return self.values[np.mod(np.asarray(x, dtype=np.int64), self.t)]

    def apply_plain_signed(self, x: np.ndarray) -> np.ndarray:
        """Table lookup with the output re-centered into (-t/2, t/2]."""
        out = self.apply_plain(x)
        return np.where(out > self.t // 2, out - self.t, out)

    @cached_property
    def signed_range(self) -> int:
        """max |LUT(x)| over the centered output domain, computed once.

        Consumers (the simulated engine's flip threshold, trace levels)
        previously rescanned all t entries on every layer call — at
        t = 65537 that is a 65537-element reduction per LUT application.
        """
        centered = np.where(self.values > self.t // 2, self.values - self.t,
                            self.values)
        return int(np.abs(centered).max())

    @property
    def nonzero_terms(self) -> int:
        return int(np.count_nonzero(self.coeffs))


@dataclass
class FbsPlan:
    """Compile-time BSGS schedule of one LUT polynomial (Algorithm 2).

    The schedule — polynomial degree, baby/giant split, and the nonzero
    (power, coefficient) terms of each giant group — depends only on the
    LUT, so a plan computed at compile time replaces the per-request scan
    over all t coefficients. The constant term of each group needs a
    slot-encoded plaintext; those are cached per parameter set so repeated
    evaluations (and plan-driven sessions) encode each constant once.
    """

    degree: int
    bs: int
    gs: int
    #: (g, constant, ((power j, coefficient), ...)) for non-empty groups,
    #: ascending g — exactly the iteration order of the per-request scan.
    groups: tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]
    _const_pts: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_lut(cls, lut: "FbsLut") -> "FbsPlan":
        """BSGS schedule of ``lut``'s polynomial, at the
        ``ceil(sqrt(degree + 1))`` split that balances baby and giant steps."""
        coeffs = lut.coeffs
        degree = int(np.max(np.nonzero(coeffs)[0])) if np.any(coeffs) else 0
        bs = max(2, math.ceil(math.sqrt(degree + 1)))
        gs = -(-(degree + 1) // bs)
        groups = []
        for g in range(gs):
            const = int(coeffs[g * bs]) if g * bs <= degree else 0
            terms = tuple(
                (j, int(coeffs[g * bs + j]))
                for j in range(1, bs)
                if g * bs + j <= degree and coeffs[g * bs + j] != 0
            )
            if const or terms:
                groups.append((g, const, terms))
        return cls(degree, bs, gs, tuple(groups))

    def const_plaintext(self, const: int, params) -> "Plaintext":
        key = (const, params)
        got = self._const_pts.get(key)
        if got is None:
            got = Plaintext.from_slots(np.full(params.n, const), params)
            self._const_pts[key] = got
        return got

    @cached_property
    def ladder(self) -> tuple[tuple[str, int, int, int], ...]:
        """CMult schedule of the power/giant ladder, in materialization order.

        Each step is (kind, exponent, lo, hi): kind ``"p"`` builds
        ct^e = ct^lo * ct^hi (minimal-depth split e//2 / e - e//2), kind
        ``"g"`` builds the giant power ct^(g*bs) from giants lo and hi
        (giant 1 aliases power bs). The order replays exactly the lazy
        recursion the evaluator historically ran — per group in ascending
        order, each needed power before the group's giant — so plan-driven
        evaluation stays bit-identical while the runtime loses the
        per-request recursion. The giant-step *combination* is not in the
        ladder: it is one inner-product CMult after it. Computed once per
        plan at compile time (``cached_property``).
        """
        steps: list[tuple[str, int, int, int]] = []
        have_p = {1}
        have_g: set[int] = set()

        def need_p(e: int) -> None:
            if e in have_p:
                return
            half = e // 2
            need_p(half)
            need_p(e - half)
            have_p.add(e)
            steps.append(("p", e, half, e - half))

        def need_g(g: int) -> None:
            if g == 1:
                need_p(self.bs)
                return
            if g in have_g:
                return
            half = g // 2
            need_g(half)
            need_g(g - half)
            have_g.add(g)
            steps.append(("g", g, half, g - half))

        for g, _, terms in self.groups:
            for j, _ in terms:
                need_p(j)
            if g:
                need_g(g)
        return tuple(steps)

    def materialize(self, params) -> "FbsPlan":
        """Pre-encode constants and the CMult ladder for one parameter set."""
        for _, const, _ in self.groups:
            if const:
                self.const_plaintext(const, params).add_operand()
        self.ladder  # noqa: B018 — force the cached schedule at compile time
        return self


def fbs_evaluate(
    ctx: BfvContext,
    ct: BfvCiphertext,
    lut: FbsLut,
    rlk: KeySwitchKey,
    plan: FbsPlan | None = None,
) -> BfvCiphertext:
    """Algorithm 2: evaluate the LUT polynomial on every slot of ``ct``.

    Dispatches through the active backend's :meth:`Backend.fbs`. Baby
    steps: inner sums of scalar-multiplied ciphertext powers (SMult +
    HAdd). Giant steps: one inner-product CMult, sum_g inner_g *
    ct^(bs*g), over the precomputed giant powers. Returns a ciphertext
    whose slot i holds LUT(slot_i(ct)).

    ``plan`` supplies a precomputed BSGS schedule (see :class:`FbsPlan`);
    without one, the schedule is derived here. Either way the homomorphic
    op sequence is identical, so plan-driven evaluation is bit-identical.
    """
    be = current_backend()
    with be.phase("fbs"):
        return be.fbs(ctx, ct, lut, rlk, plan=plan)


def fbs_evaluate_impl(
    ctx: BfvContext,
    ct: BfvCiphertext,
    lut: FbsLut,
    rlk: KeySwitchKey,
    plan: FbsPlan | None = None,
) -> BfvCiphertext:
    """Default :meth:`Backend.fbs` implementation (BSGS, Algorithm 2).

    CMult work — the power ladder and giant-step combinations — runs under
    the ``fbs_giant`` phase so a counting backend attributes it the same
    way the analytical trace model does; the scalar baby-step sums stay in
    the enclosing ``fbs`` phase.

    Structure: replay the plan's precomputed :attr:`FbsPlan.ladder` (the
    minimal-depth power/giant CMult schedule — depth ceil(log2 e) per
    power, which keeps FBS noise at ~log2(t) levels instead of sqrt(t)),
    then fold each group's baby terms through one fused
    :meth:`~repro.fhe.bfv.BfvContext.add_many`, and finally combine
    ``sum_{g>0} inner_g * giant_g`` in a single
    :meth:`~repro.fhe.backend.Backend.giant_step_batch`: one tensor sum,
    one scale-round, one relinearisation, whatever the number of groups.
    Every CMult operand keeps its Q u P evaluation form
    (:meth:`~repro.fhe.bfv.BfvContext.tensor_form`) for the rest of the
    call, so a power that feeds several powers, or a giant that feeds a
    giant and the combination, is extended and transformed once.
    """
    be = current_backend()
    t = ctx.params.t
    if lut.t != t:
        raise ParameterError("LUT modulus does not match context")
    if plan is None:
        plan = FbsPlan.from_lut(lut)
    bs = plan.bs

    # A private handle on the input: every form built below is held by an
    # object local to this call and dies with it.
    powers: dict[int, BfvCiphertext] = {1: replace(ct)}
    giants: dict[int, BfvCiphertext] = {}
    for kind, e, lo, hi in plan.ladder:
        with be.phase("fbs_giant"):
            if kind == "p":
                got = ctx.cmult(powers[lo], powers[hi], rlk)
                powers[e] = got
            else:
                a = powers[bs] if lo == 1 else giants[lo]
                b = powers[bs] if hi == 1 else giants[hi]
                giants[e] = ctx.cmult(a, b, rlk)

    # Group scan: the baby sums, then the giant combination in one CMult.
    combos: list[tuple[BfvCiphertext, BfvCiphertext]] = []
    result_parts: list[BfvCiphertext] = []
    for g, const, terms in plan.groups:
        parts = [ctx.smult(powers[j], coeff) for j, coeff in terms]
        inner = ctx.add_many(parts) if parts else None
        if const:
            base = inner if inner is not None else ctx.encrypt_zero()
            inner = ctx.add_plain(base, plan.const_plaintext(const, ctx.params))
        if g:
            combos.append((inner, powers[bs] if g == 1 else giants[g]))
        else:
            result_parts.append(inner)
    if combos:
        with be.phase("fbs_giant"):
            result_parts.append(be.giant_step_batch(ctx, combos, rlk))
    if not result_parts:
        # All-zero polynomial: the LUT is identically zero, so the answer is
        # a (transparent) zero ciphertext rather than SMult(ct, 0).
        return ctx.encrypt_zero()
    return ctx.add_many(result_parts)
