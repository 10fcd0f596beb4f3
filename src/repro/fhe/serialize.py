"""Binary serialization of compiled plans: the one wire format.

A plan is what a deployment persists and ships: the plan cache writes it
to disk, and ``repro compile --out`` / ``repro infer --plan`` carry it
between processes. Ciphertexts never cross this wire — the service
encrypts server-side and its workers exchange numpy arrays — so the plan
is the only kind. The format is versioned, self-describing (parameter
fingerprint included), and numpy-native:

    [magic u32][version u16][kind u16][params fingerprint]
    [payload: shapes + int64 little-endian arrays][CRC32 u32]

A compiled plan (kind 4) is the complete plan — every step, as
:class:`repro.core.plan.RefreshRound` records, each linear step with the
input geometry its entry encode needs — followed by a CRC32 of the bytes
above it; see :func:`dump_plan` / :func:`load_plan`. A loaded plan runs
with no program beside it. A round carries
its LUT's table only: the table fixes the polynomial and the BSGS schedule,
which the loaded :class:`~repro.fhe.fbs.FbsLut` derives itself, so an
artifact cannot hold a polynomial that disagrees with its table. A plan
holds only derived, public model artifacts: no key material.
"""

from __future__ import annotations

import hashlib
import io
import math
import struct
import sys
import zlib

import numpy as np

from repro.errors import ParameterError
from repro.fhe.bfv import Plaintext
from repro.fhe.fbs import FbsLut
from repro.fhe.params import PRESETS, FheParams

_MAGIC = 0x41544E41  # "ATNA"
# v7: a compiled plan serialises every step as refresh rounds (see
# ``dump_plan``) behind a CRC32 trailer, so loading needs no program and no
# compiler; each round writes its LUT's table once and no polynomial, and
# each linear step its entry geometry (input shape and pad), so running one
# needs no program either. Older artifacts are rejected; the plan cache
# recompiles on load failure, so stale caches self-heal.
_VERSION = 7

KIND_PLAN = 4


def params_fingerprint(params: FheParams) -> bytes:
    """16-byte digest pinning (n, moduli, t, lwe_n)."""
    material = f"{params.n}|{params.moduli}|{params.t}|{params.lwe_n}".encode()
    return hashlib.sha256(material).digest()[:16]


def _read(buf: io.BytesIO, size: int) -> bytes:
    """Exactly ``size`` bytes, or :class:`ParameterError` on a short read."""
    # A size decoded from corrupt input may exceed what read() accepts; no
    # buffer holds sys.maxsize bytes, so capping it still reads short.
    data = buf.read(min(size, sys.maxsize))
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
    # math.prod, not np.prod: a uint64 product wraps, and a corrupt shape
    # whose product wraps to the true length would pass the length check.
    data = _read(buf, math.prod(shape) * 8)
    try:
        return np.frombuffer(data, dtype="<i8").reshape(shape).astype(np.int64)
    except ValueError:  # an empty array with a dimension numpy cannot hold
        raise ParameterError("corrupt array shape in serialized object") from None


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


def _header(params: FheParams) -> bytes:
    return struct.pack("<IHH", _MAGIC, _VERSION, KIND_PLAN) + params_fingerprint(params)


def _check_header(buf: io.BytesIO, params: FheParams) -> None:
    magic, version, kind = _unpack(buf, "<IHH")
    if magic != _MAGIC:
        raise ParameterError("not a repro-serialized object")
    if version != _VERSION:
        raise ParameterError(f"unsupported serialization version {version}")
    if kind != KIND_PLAN:
        raise ParameterError(f"expected kind {KIND_PLAN}, found {kind}")
    if _read(buf, 16) != params_fingerprint(params):
        raise ParameterError("parameter fingerprint mismatch")


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
    packs (absent = identity rows, ``arange(count)``), and its table. The
    polynomial and BSGS schedule (which the LUT derives), the batch height
    and the ``-LUT(0)`` correction are functions of those and are rebuilt by
    the one round builder at load."""
    _write_array(buf, rnd.positions)
    identity = np.array_equal(rnd.rows, np.arange(rnd.count))
    _write_optional(buf, None if identity else rnd.rows)
    _write_str(buf, rnd.lut.name)
    _write_array(buf, rnd.lut.values)


def _read_round(buf: io.BytesIO, params: FheParams, luts: dict):
    """One round; ``luts`` holds the LUTs this load has built, by name and
    table, so a repeated table (a max tree's levels) is derived once."""
    from repro.core.plan import _refresh_round

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
    key = (lut_name, values.tobytes())
    if key not in luts:
        luts[key] = FbsLut(values, params.t, lut_name)
    return _refresh_round(positions, rows, luts[key], params)


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
            _write_array(buf, np.array([*cstep.in_shape, cstep.pad]))
            pool = cstep.pool_rounds or ()
            buf.write(struct.pack("<B", len(pool)))
            for delta, rnd in pool:
                buf.write(struct.pack("<Q", delta))
                _write_round(buf, rnd)


def _read_steps(buf: io.BytesIO, params: FheParams, luts: dict) -> list:
    from repro.core.plan import (
        CompiledLinear,
        CompiledPool,
        CompiledRemap,
        CompiledReshape,
        CompiledResidual,
    )

    (n_steps,) = _unpack(buf, "<I")
    steps: list = []
    for _ in range(n_steps):
        name = _read_str(buf)
        kind = _read_str(buf)
        (bare,) = _unpack(buf, "<B")
        if bool(bare) != (kind == "reshape"):
            raise ParameterError(
                f"step {name!r} of kind {kind!r} has a wrong no-payload flag "
                "in serialized plan")
        if bare:
            steps.append(CompiledReshape(name))
            continue
        if kind == "pool":
            kernel = _read_plaintext(buf, params)
            kernel.pmult_operand()
            steps.append(CompiledPool(
                name=name, kernel=kernel,
                positions=_read_index(buf, params)))
            continue
        if kind not in ("linear", "remap", "residual"):
            raise ParameterError(f"unknown step kind {kind!r} in serialized plan")
        (s2c,) = _unpack(buf, "<B")
        rnd = _read_round(buf, params, luts)
        if kind == "remap":
            steps.append(CompiledRemap(
                name=name, s2c=bool(s2c), round=rnd))
        elif kind == "residual":
            (alpha,) = _unpack(buf, "<q")
            body = _read_steps(buf, params, luts)
            steps.append(CompiledResidual(
                name=name, s2c=bool(s2c), alpha=alpha, round=rnd,
                body=body, shortcut=_read_steps(buf, params, luts) or None))
        else:
            op = _read_str(buf)
            kernel = _read_plaintext(buf, params)
            kernel.pmult_operand()
            bias = None
            if _unpack(buf, "<B")[0]:
                bias = _read_plaintext(buf, params)
                bias.add_operand()
            (span,) = _unpack(buf, "<Q")
            if span <= rnd.positions.max():  # lanes at this stride would overlap
                raise ParameterError(
                    f"step {name!r} has a lane span below its outputs in serialized plan")
            geometry = _read_array(buf)
            if geometry.shape != (4,) or geometry[:3].min() < 1 or geometry[3] < 0:
                raise ParameterError(
                    f"step {name!r} has a corrupt entry geometry in serialized plan")
            (levels,) = _unpack(buf, "<B")
            pool = tuple(
                (int(_unpack(buf, "<Q")[0]), _read_round(buf, params, luts))
                for _ in range(levels))
            steps.append(CompiledLinear(
                name=name, op=op, s2c=bool(s2c), kernel=kernel,
                bias=bias, round=rnd, lane_span=int(span),
                in_shape=tuple(int(d) for d in geometry[:3]),
                pad=int(geometry[3]), pool_rounds=pool or None))
    return steps


def dump_plan(plan) -> bytes:
    """Serialize a :class:`repro.core.plan.CompiledProgram` (wire v7).

    Every step is on the wire — linear rounds (with placed packing and
    fused max trees), pooling kernels, remaps, residual blocks with both
    branches, flagged payload-free reshapes — as derived, non-secret model
    artifacts: kernel and bias coefficient vectors, each linear step's lane
    span and entry geometry (``in_shape`` and ``pad`` as one four-entry
    array), and each refresh round's positions, pack rows and LUT table. NTT
    operand forms, LUT polynomials and BSGS schedules, ``-LUT(0)``
    corrections and the S2C diagonals are deterministic functions of those
    (plus the parameter set) and are rebuilt at load. The last four bytes
    are a CRC32 of everything before them.
    """
    buf = io.BytesIO()
    buf.write(_header(plan.params))
    _write_str(buf, plan.name)
    _write_str(buf, plan.model_hash)
    _write_steps(buf, plan.steps)
    body = buf.getvalue()
    return body + struct.pack("<I", zlib.crc32(body))


def load_plan(raw: bytes, params: FheParams):
    """Rebuild a complete, runnable :class:`repro.core.plan.CompiledProgram`
    from wire bytes — no program needed to load it or to run it, nothing left
    for ``bind`` to finish. The plan's own construction refuses a plan whose
    first non-reshape step is not a conv/FC, and derives what a compiled plan
    derives (lane layouts, capacities, the S2C plan of each round period).

    The header (magic, version, parameter fingerprint) and then the CRC32
    trailer are verified before any payload is parsed, so an artifact of an
    older wire version, a truncated file or a flipped bit raises
    :class:`ParameterError` instead of decoding into a wrong kernel. One
    LUT is built per distinct table and derives its polynomial and schedule
    itself, so rounds repeating a table share them, and plaintext operands
    are re-warmed, so the first request on a loaded plan is as fast as on a
    compiled one.
    """
    from repro.core.plan import CompiledProgram

    body = raw[:-4]
    buf = io.BytesIO(body)
    _check_header(buf, params)
    if struct.pack("<I", zlib.crc32(body)) != raw[-4:]:
        raise ParameterError("plan checksum mismatch (corrupt artifact)")
    name = _read_str(buf)
    model_hash = _read_str(buf)
    steps = _read_steps(buf, params, {})
    _check_end(buf)
    return CompiledProgram(steps=steps, params=params, model_hash=model_hash, name=name)


def guess_params(raw: bytes) -> FheParams | None:
    """Identify which preset a serialized plan was produced under."""
    if len(raw) < 24:
        return None
    fingerprint = raw[8:24]
    for params in PRESETS.values():
        if params_fingerprint(params) == fingerprint:
            return params
    return None
