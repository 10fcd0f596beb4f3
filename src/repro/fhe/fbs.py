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
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from repro.errors import ParameterError
from repro.fhe.backend import current_backend
from repro.fhe.bfv import BfvCiphertext, BfvContext
from repro.fhe.keys import KeySwitchKey
from repro.fhe.ntt import cyclic_ntt, root_powers
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


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _degree(coeffs: np.ndarray) -> int:
    """Index of the last nonzero coefficient in row-major order (0 if none)."""
    nz = np.flatnonzero(coeffs)
    return int(nz[-1]) if nz.size else 0


def interpolate_lut(values: np.ndarray, t: int) -> np.ndarray:
    """Coefficients F_0..F_{t-1} of the interpolating polynomial over Z_t."""
    values = np.mod(np.asarray(values, dtype=np.int64), t)
    if values.shape != (t,):
        raise ParameterError(f"LUT must have exactly t={t} entries")
    if (t - 1) & (t - 2) == 0 and t > 3:  # t-1 is a power of two
        return _interpolate_ntt(values, t)
    return _interpolate_dense(values, t)


@lru_cache(maxsize=None)
def _group_powers(t: int) -> np.ndarray:
    """``g^m mod t`` for m = 0..t-2, g the primitive root of t: the index
    table of the multiplicative group (read-only)."""
    return _read_only(root_powers(primitive_root(t), t - 1, t))


def _interpolate_ntt(values: np.ndarray, t: int) -> np.ndarray:
    """O(t log t) path via a multiplicative-group DFT (t-1 a power of two)."""
    # x_m = LUT(g^m); F_j = -sum_m x_m * (g^{-1})^{jm} for j in 1..t-1,
    # with index j = t-1 aliasing to DFT bin 0.
    order = t - 1
    dft = cyclic_ntt(values[_group_powers(t)], t, inv_mod(primitive_root(t), t))
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
        out[_group_powers(t)] = dft
        return out
    x = np.arange(t, dtype=np.int64)
    out = np.zeros(t, dtype=np.int64)
    for c in coeffs[_degree(coeffs)::-1]:
        out = (out * x + int(c)) % t
    return out


def evaluate_poly_plain(coeffs: np.ndarray, x: np.ndarray, t: int) -> np.ndarray:
    """Reference Horner evaluation of the LUT polynomial over Z_t."""
    x = np.mod(np.asarray(x, dtype=np.int64), t)
    out = np.zeros_like(x)
    for c in coeffs[::-1]:
        out = (out * x + int(c)) % t
    return out


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


@dataclass(frozen=True, eq=False)
class FbsPlan:
    """Compile-time BSGS schedule of one LUT polynomial (Algorithm 2).

    The plan is the polynomial's coefficient vector reshaped to (G, bs):
    ``matrix[g, j]`` is the coefficient of x^(g*bs + j), so row g is giant
    group g's baby sum (its constant in column 0) and the split, the degree,
    the live groups and the baby powers are all read off it. It depends only
    on the LUT, so the plan computed at compile time replaces the
    per-request scan over all t coefficients.
    """

    matrix: np.ndarray  # (G, bs), read-only, entries mod t

    @classmethod
    def from_lut(cls, lut: "FbsLut") -> "FbsPlan":
        """BSGS schedule of ``lut``'s polynomial, at the
        ``ceil(sqrt(degree + 1))`` split that balances baby and giant steps.
        The coefficients are zero-padded to G·bs, which may exceed t."""
        coeffs = lut.coeffs
        degree = _degree(coeffs)
        bs = max(2, math.ceil(math.sqrt(degree + 1)))
        matrix = np.zeros(-(-(degree + 1) // bs) * bs, dtype=np.int64)
        matrix[: degree + 1] = coeffs[: degree + 1]
        return cls(_read_only(matrix.reshape(-1, bs)))

    @property
    def bs(self) -> int:
        """Baby steps per giant group: the matrix's width."""
        return self.matrix.shape[1]

    @cached_property
    def live(self) -> np.ndarray:
        """The groups with any nonzero coefficient, ascending (read-only)."""
        return _read_only(np.flatnonzero(self.matrix.any(axis=1)))

    @cached_property
    def powers(self) -> np.ndarray:
        """The baby powers j >= 1 any group uses, ascending (read-only)."""
        return _read_only(np.flatnonzero(self.matrix[:, 1:].any(axis=0)) + 1)

    @cached_property
    def ladder(self) -> tuple[tuple[str, int, int, int], ...]:
        """CMult schedule of the power/giant ladder, in materialization order.

        Each step is (kind, exponent, lo, hi): kind ``"p"`` builds
        ct^e = ct^lo * ct^hi (minimal-depth split e//2 / e - e//2), kind
        ``"g"`` builds the giant power ct^(g*bs) from giants lo and hi
        (giant 1 aliases power bs). The order replays exactly the lazy
        recursion the evaluator historically ran — per live group in
        ascending order, each power its row uses before the group's giant —
        so plan-driven evaluation stays bit-identical while the runtime
        loses the per-request recursion. The giant-step *combination* is not
        in the ladder: it is one inner-product CMult after it. Computed once
        per plan at compile time (``cached_property``).
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

        for g in self.live.tolist():
            for j in (np.flatnonzero(self.matrix[g, 1:]) + 1).tolist():
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

    # Baby sums, one row per live group; then the giant combinations in one CMult.
    live, powers = plan.live, plan.powers
    block = plan.matrix[live][:, powers]
    stack = np.array([[(h[("p", j)].c0.data, h[("p", j)].c1.data) for h in held] for j in powers],
                     dtype=np.int64).reshape(len(powers), 2 * len(cts), len(moduli), params.n)
    rows = be.lincomb(stack, np.where(block > t // 2, block - t, block), moduli)
    rows = rows.reshape(len(live), len(cts), 2, len(moduli), params.n)
    # A group's constant c is the slot-encoded constant plaintext, i.e. the
    # polynomial c: it adds [Delta*c]_q to coefficient 0 of c0, nothing else.
    consts = plan.matrix[live, 0]
    hit = np.flatnonzero(consts)
    if hit.size:
        be.record("add_plain", hit.size * len(cts))
        scaled = np.array([[c * params.delta % q for q in moduli] for c in consts[hit].tolist()],
                          dtype=np.int64)
        rows[hit, :, 0, :, :1] = be.add(rows[hit, :, 0, :, :1], scaled[:, None, :, None], moduli)
    log_t = math.log2(t)
    terms = [powers[row != 0].tolist() for row in block]
    combos: list[list[tuple[BfvCiphertext, BfvCiphertext]]] = [[] for _ in cts]
    parts: list[list[BfvCiphertext]] = [[] for _ in cts]
    for h, inners, combo, part in zip(held, rows.swapaxes(0, 1), combos, parts):
        for g, js, (c0, c1) in zip(live.tolist(), terms, inners):
            noise = (ctx.hadd_noise([h[("p", j)].noise_bits + log_t for j in js])
                     if js else 0.0)  # an empty row is the transparent zero
            inner = BfvCiphertext(RnsPoly(c0, moduli), RnsPoly(c1, moduli), params, noise)
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
