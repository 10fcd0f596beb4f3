"""Binary serialization of ciphertexts, key material and compiled plans.

In the paper's deployment model the client encrypts an image, ships
ciphertexts to the datacenter, and receives encrypted results back, so
stable wire formats matter. Formats are versioned, self-describing
(parameter fingerprint included), and numpy-native:

    [magic u32][version u16][kind u16][params fingerprint]
    [payload: shapes + int64 little-endian arrays]

A compiled plan (kind 4) is the complete plan — every step, as
:class:`repro.core.plan.RefreshRound` records — followed by a CRC32 of the
bytes above it; see :func:`dump_plan` / :func:`load_plan`.

Only public material round-trips by design: secret keys serialize behind
an explicit ``allow_secret`` flag so they are never written accidentally.
"""

from __future__ import annotations

import hashlib
import io
import struct
import zlib

import numpy as np

from repro.errors import ParameterError
from repro.fhe.bfv import BfvCiphertext, Plaintext
from repro.fhe.fbs import FbsLut, register_interpolation
from repro.fhe.lwe import LweBatch
from repro.fhe.params import PRESETS, FheParams
from repro.fhe.poly import RnsPoly

_MAGIC = 0x41544E41  # "ATNA"
# v5: a compiled plan serialises every step as refresh rounds (see
# ``dump_plan``) behind a CRC32 trailer, so loading needs no program and no
# compiler. Older artifacts are rejected; the plan cache recompiles on load
# failure, so stale caches self-heal.
_VERSION = 5

KIND_CIPHERTEXT = 1
KIND_LWE_BATCH = 2
KIND_SECRET_KEY = 3
KIND_PLAN = 4


def params_fingerprint(params: FheParams) -> bytes:
    """16-byte digest pinning (n, moduli, t, lwe_n)."""
    material = f"{params.n}|{params.moduli}|{params.t}|{params.lwe_n}".encode()
    return hashlib.sha256(material).digest()[:16]


def _read(buf: io.BytesIO, size: int) -> bytes:
    """Exactly ``size`` bytes, or :class:`ParameterError` on a short read."""
    data = buf.read(size)
    if len(data) != size:
        raise ParameterError("truncated serialized object")
    return data


def _unpack(buf: io.BytesIO, fmt: str) -> tuple:
    return struct.unpack(fmt, _read(buf, struct.calcsize(fmt)))


def _check_end(buf: io.BytesIO) -> None:
    """A complete object consumes its whole buffer."""
    if buf.read(1):
        raise ParameterError("trailing bytes after serialized object")


def _write_array(buf: io.BytesIO, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype="<i8")
    buf.write(struct.pack("<B", arr.ndim))
    for dim in arr.shape:
        buf.write(struct.pack("<Q", dim))
    buf.write(arr.tobytes())


def _read_array(buf: io.BytesIO) -> np.ndarray:
    (ndim,) = _unpack(buf, "<B")
    shape = tuple(_unpack(buf, "<Q")[0] for _ in range(ndim))
    count = int(np.prod(shape)) if shape else 1
    data = _read(buf, count * 8)
    return np.frombuffer(data, dtype="<i8").reshape(shape).astype(np.int64)


def _write_str(buf: io.BytesIO, text: str) -> None:
    raw = text.encode()
    buf.write(struct.pack("<H", len(raw)))
    buf.write(raw)


def _read_str(buf: io.BytesIO) -> str:
    (length,) = _unpack(buf, "<H")
    try:
        return _read(buf, length).decode()
    except UnicodeDecodeError:
        raise ParameterError("corrupt string in serialized object") from None


def _header(kind: int, params: FheParams) -> bytes:
    return struct.pack("<IHH", _MAGIC, _VERSION, kind) + params_fingerprint(params)


def _check_header(buf: io.BytesIO, expected_kind: int, params: FheParams) -> None:
    magic, version, kind = _unpack(buf, "<IHH")
    if magic != _MAGIC:
        raise ParameterError("not a repro-serialized object")
    if version != _VERSION:
        raise ParameterError(f"unsupported serialization version {version}")
    if kind != expected_kind:
        raise ParameterError(f"expected kind {expected_kind}, found {kind}")
    if _read(buf, 16) != params_fingerprint(params):
        raise ParameterError("parameter fingerprint mismatch")


# -- ciphertexts -------------------------------------------------------------


def dump_ciphertext(ct: BfvCiphertext) -> bytes:
    buf = io.BytesIO()
    buf.write(_header(KIND_CIPHERTEXT, ct.params))
    buf.write(struct.pack("<d", ct.noise_bits))
    _write_array(buf, ct.c0.data)
    _write_array(buf, ct.c1.data)
    return buf.getvalue()


def load_ciphertext(raw: bytes, params: FheParams) -> BfvCiphertext:
    buf = io.BytesIO(raw)
    _check_header(buf, KIND_CIPHERTEXT, params)
    (noise_bits,) = _unpack(buf, "<d")
    c0 = _read_array(buf)
    c1 = _read_array(buf)
    _check_end(buf)
    shape = (params.num_limbs, params.n)
    if c0.shape != shape or c1.shape != shape:
        raise ParameterError("ciphertext shape does not match parameters")
    return BfvCiphertext(
        RnsPoly(c0, params.moduli), RnsPoly(c1, params.moduli), params, noise_bits
    )


# -- LWE batches ----------------------------------------------------------------


def dump_lwe_batch(batch: LweBatch) -> bytes:
    buf = io.BytesIO()
    buf.write(struct.pack("<IHH", _MAGIC, _VERSION, KIND_LWE_BATCH))
    buf.write(struct.pack("<Q", batch.modulus))
    _write_array(buf, batch.a)
    _write_array(buf, batch.b)
    return buf.getvalue()


def load_lwe_batch(raw: bytes) -> LweBatch:
    buf = io.BytesIO(raw)
    magic, version, kind = _unpack(buf, "<IHH")
    if magic != _MAGIC or kind != KIND_LWE_BATCH:
        raise ParameterError("not a serialized LWE batch")
    if version != _VERSION:
        raise ParameterError(f"unsupported serialization version {version}")
    (modulus,) = _unpack(buf, "<Q")
    a = _read_array(buf)
    b = _read_array(buf)
    _check_end(buf)
    if a.ndim != 2 or b.ndim != 1 or a.shape[0] != b.shape[0]:
        raise ParameterError("inconsistent LWE batch")
    return LweBatch(a, b, int(modulus))


# -- compiled plans ----------------------------------------------------------


def _write_optional(buf: io.BytesIO, arr: np.ndarray | None) -> None:
    buf.write(struct.pack("<B", int(arr is not None)))
    if arr is not None:
        _write_array(buf, arr)


def _read_index(buf: io.BytesIO, params: FheParams) -> np.ndarray:
    """A vector of coefficient / slot indices: 1-D, inside the ring."""
    arr = _read_array(buf)
    if arr.ndim != 1 or not arr.size or arr.min() < 0 or arr.max() >= params.n:
        raise ParameterError("index vector outside the ring in serialized plan")
    return arr


def _read_plaintext(buf: io.BytesIO, params: FheParams) -> Plaintext:
    coeffs = _read_array(buf)
    if coeffs.shape != (params.n,):
        raise ParameterError("plaintext length does not match parameters")
    return Plaintext.from_coeffs(coeffs, params)


def _write_round(buf: io.BytesIO, rnd) -> None:
    """One :class:`repro.core.plan.RefreshRound`: where it extracts, where it
    packs (absent = identity rows, ``arange(count)``), and its table with the
    interpolated polynomial. The BSGS schedule, the batch height and the
    ``-LUT(0)`` correction are functions of those and are rebuilt by the one
    round builder at load."""
    _write_array(buf, rnd.positions)
    identity = np.array_equal(rnd.rows, np.arange(rnd.count))
    _write_optional(buf, None if identity else rnd.rows)
    _write_str(buf, rnd.lut.name)
    _write_array(buf, rnd.lut.values)
    _write_array(buf, rnd.lut.coeffs)


def _read_round(buf: io.BytesIO, params: FheParams):
    from repro.core.plan import _fbs_plan, _refresh_round

    positions = _read_index(buf, params)
    (placed,) = _unpack(buf, "<B")
    rows = np.arange(positions.size, dtype=np.int64)  # absent = identity
    if placed:
        rows = _read_index(buf, params)
        if rows.shape != positions.shape or np.unique(rows).size != rows.size:
            raise ParameterError(
                "pack rows do not match positions in serialized plan")
    lut_name = _read_str(buf)
    values = _read_array(buf)
    # The artifact carries the interpolation: never recomputed at load.
    register_interpolation(values, params.t, _read_array(buf))
    lut = FbsLut(values, params.t, lut_name)
    return _refresh_round(positions, rows, lut, _fbs_plan(lut, params), params)


def _write_steps(buf: io.BytesIO, steps: list) -> None:
    """A step list, recursively: name, kind, the no-payload flag (set for
    a reshape, the one step without artifacts), then the kind's payload."""
    buf.write(struct.pack("<I", len(steps)))
    for cstep in steps:
        _write_str(buf, cstep.name)
        _write_str(buf, cstep.kind)
        buf.write(struct.pack("<B", int(cstep.kind == "reshape")))
        if cstep.kind == "reshape":
            continue
        if cstep.kind == "pool":
            _write_array(buf, cstep.kernel.coeffs)
            _write_array(buf, cstep.positions)
            continue
        buf.write(struct.pack("<B", int(cstep.s2c)))
        _write_round(buf, cstep.round)
        if cstep.kind == "residual":
            buf.write(struct.pack("<q", cstep.alpha))
            _write_steps(buf, cstep.body)
            _write_steps(buf, cstep.shortcut or [])
        elif cstep.kind == "linear":
            _write_str(buf, cstep.op)
            _write_array(buf, cstep.kernel.coeffs)
            _write_optional(buf, cstep.bias.coeffs if cstep.bias else None)
            buf.write(struct.pack("<Q", cstep.lane_span))
            pool = cstep.pool_rounds or ()
            buf.write(struct.pack("<B", len(pool)))
            for delta, rnd in pool:
                buf.write(struct.pack("<Q", delta))
                _write_round(buf, rnd)


def _read_steps(buf: io.BytesIO, params: FheParams) -> list:
    from repro.core.plan import (
        CompiledLinear,
        CompiledPool,
        CompiledRemap,
        CompiledReshape,
        CompiledResidual,
    )

    (n_steps,) = _unpack(buf, "<I")
    steps: list = []
    for index in range(n_steps):
        name = _read_str(buf)
        kind = _read_str(buf)
        (bare,) = _unpack(buf, "<B")
        if bool(bare) != (kind == "reshape"):
            raise ParameterError(
                f"step {name!r} of kind {kind!r} has a wrong no-payload flag "
                "in serialized plan")
        if bare:
            steps.append(CompiledReshape(index, name))
            continue
        if kind == "pool":
            kernel = _read_plaintext(buf, params)
            kernel.pmult_operand()
            steps.append(CompiledPool(
                index=index, name=name, kernel=kernel,
                positions=_read_index(buf, params)))
            continue
        if kind not in ("linear", "remap", "residual"):
            raise ParameterError(f"unknown step kind {kind!r} in serialized plan")
        (s2c,) = _unpack(buf, "<B")
        rnd = _read_round(buf, params)
        if kind == "remap":
            steps.append(CompiledRemap(
                index=index, name=name, s2c=bool(s2c), round=rnd))
        elif kind == "residual":
            (alpha,) = _unpack(buf, "<q")
            body = _read_steps(buf, params)
            steps.append(CompiledResidual(
                index=index, name=name, s2c=bool(s2c), alpha=alpha, round=rnd,
                body=body, shortcut=_read_steps(buf, params) or None))
        else:
            op = _read_str(buf)
            kernel = _read_plaintext(buf, params)
            kernel.pmult_operand()
            bias = None
            if _unpack(buf, "<B")[0]:
                bias = _read_plaintext(buf, params)
                bias.add_operand()
            (span,) = _unpack(buf, "<Q")
            (levels,) = _unpack(buf, "<B")
            pool = tuple(
                (int(_unpack(buf, "<Q")[0]), _read_round(buf, params))
                for _ in range(levels))
            steps.append(CompiledLinear(
                index=index, name=name, op=op, s2c=bool(s2c), kernel=kernel,
                bias=bias, round=rnd, lane_span=int(span),
                pool_rounds=pool or None))
    return steps


def dump_plan(plan) -> bytes:
    """Serialize a :class:`repro.core.plan.CompiledProgram` (wire v5).

    Every step is on the wire — linear rounds (with placed packing and
    fused max trees), pooling kernels, remaps, residual blocks with both
    branches, flagged payload-free reshapes — as derived, non-secret model
    artifacts: kernel and bias coefficient vectors, each linear step's lane
    span, and each refresh round's positions, pack rows and LUT with its
    interpolated polynomial. NTT operand forms, BSGS schedules, ``-LUT(0)``
    corrections and the S2C diagonals are deterministic functions of those
    (plus the parameter set) and are rebuilt at load. The last four bytes
    are a CRC32 of everything before them.
    """
    buf = io.BytesIO()
    buf.write(_header(KIND_PLAN, plan.params))
    _write_str(buf, plan.name)
    _write_str(buf, plan.model_hash)
    _write_steps(buf, plan.steps)
    body = buf.getvalue()
    return body + struct.pack("<I", zlib.crc32(body))


def load_plan(raw: bytes, params: FheParams):
    """Rebuild a complete, runnable :class:`repro.core.plan.CompiledProgram`
    from wire bytes — no program needed, nothing left for ``bind`` to finish.

    The header (magic, version, parameter fingerprint) and then the CRC32
    trailer are verified before any payload is parsed, so an artifact of an
    older wire version, a truncated file or a flipped bit raises
    :class:`ParameterError` instead of decoding into a wrong kernel. LUT
    interpolations are seeded into the FBS cache from the artifact (never
    recomputed); plaintext operands and the S2C rotation maps are re-warmed,
    so the first request on a loaded plan is as fast as on a compiled one.
    """
    from repro.core.plan import CompiledProgram, _annotate_lanes, _s2c_plan

    body = raw[:-4]
    buf = io.BytesIO(body)
    _check_header(buf, KIND_PLAN, params)
    if struct.pack("<I", zlib.crc32(body)) != raw[-4:]:
        raise ParameterError("plan checksum mismatch (corrupt artifact)")
    name = _read_str(buf)
    model_hash = _read_str(buf)
    steps = _read_steps(buf, params)
    _check_end(buf)
    # Lane chaining (out strides + batch capacity) is a pure function of the
    # spans and the parameter set — re-derived rather than shipped.
    capacity = _annotate_lanes(steps, params)
    return CompiledProgram(
        steps=steps,
        params=params,
        s2c=_s2c_plan(params),
        model_hash=model_hash,
        name=name,
        batch_capacity=capacity,
    )


# -- secret keys (explicit opt-in) -------------------------------------------------


def dump_secret_key(sk, allow_secret: bool = False) -> bytes:
    """Serialize a secret key. Requires ``allow_secret=True`` — exporting
    secrets must never happen by accident."""
    if not allow_secret:
        raise ParameterError(
            "refusing to serialize a secret key without allow_secret=True"
        )
    buf = io.BytesIO()
    buf.write(_header(KIND_SECRET_KEY, sk.params))
    _write_array(buf, sk.coeffs)
    return buf.getvalue()


def load_secret_key(raw: bytes, params: FheParams):
    from repro.fhe.keys import SecretKey

    buf = io.BytesIO(raw)
    _check_header(buf, KIND_SECRET_KEY, params)
    coeffs = _read_array(buf)
    _check_end(buf)
    if coeffs.shape != (params.n,):
        raise ParameterError("secret key length mismatch")
    return SecretKey(params, RnsPoly.from_int_coeffs(coeffs, params.moduli), coeffs)


def guess_params(raw: bytes) -> FheParams | None:
    """Identify which preset a serialized object was produced under."""
    if len(raw) < 24:
        return None
    fingerprint = raw[8:24]
    for params in PRESETS.values():
        if params_fingerprint(params) == fingerprint:
            return params
    return None
