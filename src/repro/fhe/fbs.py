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
from repro.fhe.poly import RnsPoly
from repro.utils.modmath import inv_mod, primitive_root

__all__ = [
    "FbsLut",
    "FbsPlan",
    "evaluate_poly_all",
    "evaluate_poly_plain",
    "fbs_evaluate",
    "interpolate_lut",
    "interpolate_range",
]


def interpolate_lut(values: np.ndarray, t: int) -> np.ndarray:
    """Coefficients F_0..F_{t-1} of the interpolating polynomial over Z_t."""
    values = np.mod(np.asarray(values, dtype=np.int64), t)
    if values.shape != (t,):
        raise ParameterError(f"LUT must have exactly t={t} entries")
    if (t - 1) & (t - 2) == 0 and t > 3:  # t-1 is a power of two
        return _interpolate_ntt(values, t)
    return _interpolate_dense(values, t)


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


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class FbsLut:
    """A functional-bootstrapping lookup table, its polynomial and its
    BSGS schedule (paper §3.2.3, Eq. 3 and Algorithm 2).

    The table fixes the rest, so the LUT derives both itself, once, on
    first use: :attr:`coeffs` interpolates :attr:`values`, :attr:`plan`
    schedules :attr:`coeffs`. Both arrays are read-only and the fields
    cannot be reassigned, so the three never disagree.
    """

    values: np.ndarray  # length t, entries mod t
    t: int
    name: str = "lut"

    def __post_init__(self) -> None:
        values = np.mod(np.asarray(self.values, dtype=np.int64), self.t)
        if values.shape != (self.t,):
            raise ParameterError(f"LUT must have exactly t={self.t} entries")
        object.__setattr__(self, "values", _read_only(values))

    @cached_property
    def coeffs(self) -> np.ndarray:
        """Coefficients F_0..F_{t-1} of the table's polynomial (read-only)."""
        return _read_only(interpolate_lut(self.values, self.t))

    @cached_property
    def plan(self) -> "FbsPlan":
        """The BSGS schedule of :attr:`coeffs` (:meth:`FbsPlan.from_lut`)."""
        return FbsPlan.from_lut(self)

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
    #: (g, constant, ((power j, coefficient), ...)) for non-empty groups,
    #: ascending g — exactly the iteration order of the per-request scan.
    groups: tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]
    _const_pts: dict = field(
        init=False, default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_lut(cls, lut: "FbsLut") -> "FbsPlan":
        """BSGS schedule of ``lut``'s polynomial, at the
        ``ceil(sqrt(degree + 1))`` split that balances baby and giant steps."""
        coeffs = lut.coeffs
        degree = int(np.max(np.nonzero(coeffs)[0])) if np.any(coeffs) else 0
        bs = max(2, math.ceil(math.sqrt(degree + 1)))
        groups = []
        for g in range(-(-(degree + 1) // bs)):
            const = int(coeffs[g * bs]) if g * bs <= degree else 0
            terms = tuple(
                (j, int(coeffs[g * bs + j]))
                for j in range(1, bs)
                if g * bs + j <= degree and coeffs[g * bs + j] != 0
            )
            if const or terms:
                groups.append((g, const, terms))
        return cls(degree, bs, tuple(groups))

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

    def operand(self, kind: str, x: int) -> tuple[str, int]:
        """Key of ladder operand x of ``kind`` (giant 1 aliases power bs)."""
        return ("p", self.bs) if kind == "g" and x == 1 else (kind, x)

    @cached_property
    def levels(self) -> tuple[tuple[tuple[str, int, int, int], ...], ...]:
        """The ladder by depth: level k holds, in ladder order, the steps
        whose operands all come from earlier levels — independent CMults,
        one :meth:`Backend.cmult_batch` each (9 levels at t = 257)."""
        depth, levels = {("p", 1): 0}, {}
        for kind, e, lo, hi in self.ladder:
            d = depth[(kind, e)] = 1 + max(depth[self.operand(kind, x)] for x in (lo, hi))
            levels.setdefault(d, []).append((kind, e, lo, hi))
        return tuple(tuple(levels[d]) for d in sorted(levels))

    @cached_property
    def baby_terms(self) -> tuple[tuple[int, ...], np.ndarray]:
        """(powers, coeffs): the baby powers j the groups use, ascending, and
        the read-only (G, J) matrix of their coefficients mod t — row g is
        group g's sum_j c_j x^j, one row of :meth:`Backend.lincomb`."""
        powers = tuple(sorted({j for _, _, terms in self.groups for j, _ in terms}))
        coeffs = np.array([[dict(terms).get(j, 0) for j in powers] for _, _, terms in self.groups],
                          dtype=np.int64).reshape(len(self.groups), len(powers))
        coeffs.setflags(write=False)
        return powers, coeffs

    def materialize(self, params) -> "FbsPlan":
        """Pre-encode constants and the CMult schedule for one parameter set."""
        for _, const, _ in self.groups:
            if const:
                self.const_plaintext(const, params).add_operand()
        self.levels, self.baby_terms  # noqa: B018 — force the cached schedules
        return self


def fbs_evaluate(
    ctx: BfvContext, cts: list[BfvCiphertext], lut: FbsLut, rlk: KeySwitchKey
) -> list[BfvCiphertext]:
    """Algorithm 2: evaluate the LUT polynomial on every slot of each
    ciphertext of ``cts``, a stack in lockstep.

    Dispatches through the active backend's :meth:`Backend.fbs`. Baby
    steps: inner sums of scalar-multiplied ciphertext powers (SMult +
    HAdd). Giant steps: one inner-product CMult, sum_g inner_g *
    ct^(bs*g), over the precomputed giant powers, on the schedule the LUT
    carries (:attr:`FbsLut.plan`). Returns, in order, ciphertexts whose
    slot i holds LUT(slot_i(ct)).
    """
    be = current_backend()
    with be.phase("fbs"):
        return be.fbs(ctx, cts, lut, rlk)


def fbs_evaluate_impl(
    ctx: BfvContext, cts: list[BfvCiphertext], lut: FbsLut, rlk: KeySwitchKey
) -> list[BfvCiphertext]:
    """Default :meth:`Backend.fbs` implementation (BSGS, Algorithm 2) over
    a stack of C ciphertexts; each result equals that of a stack of one.

    CMult work — the power ladder and giant-step combinations — runs under
    the ``fbs_giant`` phase so a counting backend attributes it the same
    way the analytical trace model does; the scalar baby-step sums stay in
    the enclosing ``fbs`` phase.

    Structure: replay the plan's minimal-depth power/giant CMult ladder
    (depth ceil(log2 e) per power, which keeps FBS noise at ~log2(t) levels
    instead of sqrt(t)) one :meth:`~repro.fhe.backend.Backend.cmult_batch`
    per :attr:`FbsPlan.levels` entry over the whole stack; then every
    group's baby sum as one row of one
    :meth:`~repro.fhe.backend.Backend.lincomb`; and finally combine
    ``sum_{g>0} inner_g * giant_g`` in a single
    :meth:`~repro.fhe.backend.Backend.giant_step_batch`: one tensor sum per
    ciphertext, one scale-round, one relinearisation, whatever the number
    of groups. Every CMult operand keeps its Q u P evaluation form
    (:meth:`~repro.fhe.bfv.BfvContext.tensor_forms`) for the rest of the
    call, so a power that feeds several powers, or a giant that feeds a
    giant and the combination, is extended and transformed once.
    """
    be = current_backend()
    params = ctx.params
    t, moduli = params.t, params.moduli
    if lut.t != t:
        raise ParameterError("LUT modulus does not match context")
    plan = lut.plan

    # Private handles on the inputs: every form built below is held by an
    # object local to this call and dies with it.
    held: list[dict[tuple[str, int], BfvCiphertext]] = [{("p", 1): replace(ct)} for ct in cts]
    for level in plan.levels:
        with be.phase("fbs_giant"):
            got = iter(be.cmult_batch(ctx, [
                (h[plan.operand(kind, lo)], h[plan.operand(kind, hi)])
                for h in held for kind, _, lo, hi in level], rlk))
            for h in held:
                h.update(((kind, e), next(got)) for kind, e, _, _ in level)

    # Baby sums, one row per group; then the giant combinations in one CMult.
    powers, raw = plan.baby_terms
    stack = np.array([[(h[("p", j)].c0.data, h[("p", j)].c1.data) for h in held] for j in powers],
                     dtype=np.int64).reshape(len(powers), 2 * len(cts), len(moduli), params.n)
    rows = be.lincomb(stack, np.where(raw > t // 2, raw - t, raw), moduli)
    rows = rows.reshape(len(plan.groups), len(cts), 2, len(moduli), params.n)
    log_t = math.log2(t)
    combos: list[list[tuple[BfvCiphertext, BfvCiphertext]]] = [[] for _ in cts]
    parts: list[list[BfvCiphertext]] = [[] for _ in cts]
    for h, inners, combo, part in zip(held, rows.swapaxes(0, 1), combos, parts):
        for (g, const, terms), (c0, c1) in zip(plan.groups, inners):
            noise = (ctx.hadd_noise([h[("p", j)].noise_bits + log_t for j, _ in terms])
                     if terms else 0.0)  # an empty row is the transparent zero
            inner = BfvCiphertext(RnsPoly(c0, moduli), RnsPoly(c1, moduli), params, noise)
            if const:
                inner = ctx.add_plain(inner, plan.const_plaintext(const, params))
            if g:
                combo.append((inner, h[plan.operand("g", g)]))
            else:
                part.append(inner)
    if any(combos):
        with be.phase("fbs_giant"):
            for part, combined in zip(parts, be.giant_step_batch(ctx, combos, rlk)):
                part.append(combined)
    # An all-zero polynomial (an identically zero LUT) answers a transparent
    # zero ciphertext rather than SMult(ct, 0).
    return [ctx.add_many(part) if part else ctx.encrypt_zero() for part in parts]
