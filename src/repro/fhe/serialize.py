"""Binary serialization of ciphertexts and key material.

In the paper's deployment model the client encrypts an image, ships
ciphertexts to the datacenter, and receives encrypted results back, so
stable wire formats matter. Formats are versioned, self-describing
(parameter fingerprint included), and numpy-native:

    [magic u32][version u16][kind u16][params fingerprint]
    [payload: shapes + int64 little-endian arrays]

Only public material round-trips by design: secret keys serialize behind
an explicit ``allow_secret`` flag so they are never written accidentally.
"""

from __future__ import annotations

import hashlib
import io
import struct

import numpy as np

from repro.errors import ParameterError
from repro.fhe.bfv import BfvCiphertext, Plaintext
from repro.fhe.fbs import FbsLut, FbsPlan, register_interpolation
from repro.fhe.lwe import LweBatch
from repro.fhe.params import PRESETS, FheParams
from repro.fhe.poly import RnsPoly
from repro.fhe.s2c import S2CPlan

_MAGIC = 0x41544E41  # "ATNA"
# v3: compiled plans carry the autotuner's encoding config, linear steps
# their strategy tag, and layout-bearing steps (placed packing, fused max
# trees, pool/remap/residual rounds) ship as *stub* markers that
# ``CompiledProgram.bind`` recompiles from the program. v1/v2 artifacts are
# rejected; the plan cache recompiles on load failure, so stale caches
# self-heal.
_VERSION = 3

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


#: Wire tags for compiled-plan steps.
_STEP_OPAQUE = 0  # layout-only / degraded step: kind string only
_STEP_LINEAR = 1  # plain linear round: full artifact payload
_STEP_STUB = 2  # layout-bearing step: CompiledProgram.bind recompiles it


def _write_tuning(buf: io.BytesIO, tuning) -> None:
    entries = tuning.choices if tuning else ()
    buf.write(struct.pack("<H", len(entries)))
    for step_name, choice in entries:
        _write_str(buf, step_name)
        _write_str(buf, choice.strategy)
        buf.write(struct.pack("<Q", 0 if choice.chunk is None else choice.chunk))
        buf.write(struct.pack("<Q", 0 if choice.bsgs is None else choice.bsgs))


def _read_tuning(buf: io.BytesIO):
    from repro.core.lowering import StepEncodingChoice, TuningConfig

    (count,) = _unpack(buf, "<H")
    entries = []
    for _ in range(count):
        step_name = _read_str(buf)
        strategy = _read_str(buf)
        (chunk_raw,) = _unpack(buf, "<Q")
        (bsgs_raw,) = _unpack(buf, "<Q")
        entries.append((step_name, StepEncodingChoice(
            strategy=strategy,
            chunk=int(chunk_raw) or None,
            bsgs=int(bsgs_raw) or None,
        )))
    return TuningConfig(tuple(entries)) if entries else None


def dump_plan(plan) -> bytes:
    """Serialize a :class:`repro.core.plan.CompiledProgram`.

    The wire form carries only derived, non-secret model artifacts: kernel
    and bias coefficient vectors, extraction positions, LUT tables with
    their interpolated polynomials, the chunk cap, and the autotuner's
    encoding config. NTT operand forms, BSGS schedules, S2C diagonals, and
    tile corrections are deterministic functions of those (plus the
    parameter set) and are rebuilt at load. Layout-bearing steps — placed
    packing, fused max trees, pool/remap/residual rounds — are written as
    *stub* markers: their artifacts reference each other (a residual's
    body targets the join layout), so the loader ships the cheap identity
    and :meth:`CompiledProgram.bind` recompiles the full plan from the
    program — once, where the plan is bound; every holder keeps the plan
    ``bind`` returns.
    """
    from repro.core.plan import CompiledLinear, CompiledOpaque

    buf = io.BytesIO()
    buf.write(_header(KIND_PLAN, plan.params))
    _write_str(buf, plan.name)
    _write_str(buf, plan.model_hash)
    buf.write(struct.pack("<Q", 0 if plan.chunk is None else plan.chunk))
    _write_tuning(buf, plan.tuning)
    buf.write(struct.pack("<I", len(plan.steps)))
    for cstep in plan.steps:
        plain_linear = (
            isinstance(cstep, CompiledLinear)
            and cstep.pack_rows is None
            and cstep.pool_rounds is None
        )
        if plain_linear:
            tag = _STEP_LINEAR
        elif isinstance(cstep, CompiledOpaque) and not cstep.stub:
            tag = _STEP_OPAQUE
        else:
            tag = _STEP_STUB
        buf.write(struct.pack("<B", tag))
        _write_str(buf, cstep.name)
        if tag != _STEP_LINEAR:
            _write_str(buf, cstep.kind)
            continue
        _write_str(buf, cstep.op)
        buf.write(struct.pack("<B", int(cstep.s2c)))
        _write_str(buf, cstep.strategy)
        _write_array(buf, cstep.positions)
        _write_array(buf, cstep.kernel.coeffs)
        buf.write(struct.pack("<B", int(cstep.bias is not None)))
        if cstep.bias is not None:
            _write_array(buf, cstep.bias.coeffs)
        _write_str(buf, cstep.lut.name)
        _write_array(buf, cstep.lut.values)
        _write_array(buf, cstep.lut.coeffs)
        buf.write(struct.pack("<Q", cstep.lane_span))
    return buf.getvalue()


def load_plan(raw: bytes, params: FheParams):
    """Rebuild a :class:`repro.core.plan.CompiledProgram` from wire bytes.

    LUT interpolations are seeded into the FBS cache from the artifact
    (never recomputed); plaintext operands are re-warmed so the loaded plan
    is immediately as fast as a freshly compiled one.
    """
    from repro.core.plan import (
        CompiledLinear,
        CompiledOpaque,
        CompiledProgram,
        _annotate_lanes,
        _build_tiles,
    )

    buf = io.BytesIO(raw)
    _check_header(buf, KIND_PLAN, params)
    name = _read_str(buf)
    model_hash = _read_str(buf)
    (chunk_raw,) = _unpack(buf, "<Q")
    chunk = int(chunk_raw) or None
    tuning = _read_tuning(buf)
    (n_steps,) = _unpack(buf, "<I")
    steps: list = []
    for index in range(n_steps):
        (tag,) = _unpack(buf, "<B")
        step_name = _read_str(buf)
        if tag != _STEP_LINEAR:
            steps.append(CompiledOpaque(index, step_name, _read_str(buf),
                                        stub=tag == _STEP_STUB))
            continue
        op = _read_str(buf)
        (s2c,) = _unpack(buf, "<B")
        strategy = _read_str(buf)
        choice = tuning.get(step_name) if tuning else None
        step_chunk = chunk
        if choice is not None and choice.chunk is not None:
            step_chunk = choice.chunk
        positions = _read_array(buf)
        kernel = Plaintext.from_coeffs(_read_array(buf), params)
        kernel.pmult_operand()
        (has_bias,) = _unpack(buf, "<B")
        bias = None
        if has_bias:
            bias = Plaintext.from_coeffs(_read_array(buf), params)
            bias.add_operand()
        lut_name = _read_str(buf)
        values = _read_array(buf)
        coeffs = _read_array(buf)
        register_interpolation(values, params.t, coeffs)
        lut = FbsLut(values, params.t, lut_name)
        (span,) = _unpack(buf, "<Q")
        bs = choice.bsgs if choice is not None else None
        steps.append(
            CompiledLinear(
                index=index,
                name=step_name,
                op=op,
                s2c=bool(s2c),
                strategy=strategy,
                kernel=kernel,
                bias=bias,
                positions=positions,
                out_count=positions.shape[0],
                lut=lut,
                fbs=FbsPlan.from_lut(lut, bs=bs).materialize(params),
                tiles=_build_tiles(positions, lut, params, step_chunk),
                lane_span=int(span),
            )
        )
    _check_end(buf)
    # Lane chaining (out strides + batch capacity) is a pure function of the
    # spans and the parameter set — re-derived rather than shipped.
    capacity = _annotate_lanes(steps, params, chunk)
    return CompiledProgram(
        steps=steps,
        params=params,
        chunk=chunk,
        tuning=tuning,
        s2c=S2CPlan.build(params),
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
