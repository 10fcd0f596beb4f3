"""Security estimation for the parameter sets (paper §3.3: ">128 bits").

Uses the Homomorphic Encryption Standard tables (ternary secret,
classical attacks): for each ring dimension they give the maximum log2(Q)
that still provides 128/192/256-bit security. A parameter set is judged by
interpolating those ceilings — the same quick check FHE papers use when
they cite the standard rather than running the full lattice estimator.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # params derives its digit rule from max_logq
    from repro.fhe.params import FheParams

#: HE-standard maximum log2(Q) for a ternary secret at (128, 192, 256)-bit
#: classical security, per ring dimension.
_HE_STANDARD = {
    1024: (27, 19, 14),
    2048: (54, 37, 29),
    4096: (109, 75, 58),
    8192: (218, 152, 118),
    16384: (438, 305, 237),
    32768: (881, 611, 476),
}

_LEVELS = (128, 192, 256)

#: The security a parameter set must meet (paper section 3.3: ">128 bits").
TARGET_BITS = 128


def max_logq(n: int, level: int = 128) -> float:
    """Maximum log2(Q) at dimension n for the given security level."""
    idx = _LEVELS.index(level)
    if n in _HE_STANDARD:
        return float(_HE_STANDARD[n][idx])
    # The ceilings scale almost exactly linearly in n: interpolate.
    dims = sorted(_HE_STANDARD)
    if n < dims[0]:
        return _HE_STANDARD[dims[0]][idx] * n / dims[0]
    if n > dims[-1]:
        return _HE_STANDARD[dims[-1]][idx] * n / dims[-1]
    lo = max(d for d in dims if d <= n)
    hi = min(d for d in dims if d >= n)
    frac = (n - lo) / (hi - lo)
    return _HE_STANDARD[lo][idx] + frac * (_HE_STANDARD[hi][idx] - _HE_STANDARD[lo][idx])


def security_level(n: int, logq: float) -> float:
    """Approximate classical security (bits) of an (n, Q) RLWE/LWE instance.

    Security scales roughly linearly in n/log2(Q); anchor on the 128-bit
    ceiling for the dimension.
    """
    ceiling = max_logq(n, 128)
    if logq <= 0:
        return float("inf")
    return 128.0 * ceiling / logq


def check_params(params: FheParams) -> dict[str, float]:
    """Security of the RLWE, keyswitch-key and LWE instances of a parameter
    set. Keyswitch keys are RLWE samples modulo Q * P, not Q, so they are
    judged at log2(QP) — the weakest of the three when P is wide."""
    rlwe = security_level(params.n, params.q.bit_length())
    logqp = math.prod(params.keyswitch_moduli).bit_length()
    key = security_level(params.n, logqp)
    lwe = security_level(params.lwe_n, math.log2(params.lwe_q))
    return {
        "rlwe_bits": rlwe,
        "logqp": float(logqp),
        "key_bits": key,
        "lwe_bits": lwe,
        "meets_target": float(min(key, lwe) >= TARGET_BITS),  # key_bits <= rlwe_bits
    }
