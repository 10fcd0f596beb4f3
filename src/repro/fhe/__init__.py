"""FHE substrate: BFV (exact), CKKS (approximate), LWE chain, FBS.

Public surface:

* :mod:`repro.fhe.params` — parameter sets (``ATHENA``, test presets)
* :class:`repro.fhe.bfv.BfvContext` — BFV keygen/encrypt/evaluate
* :mod:`repro.fhe.lwe` — modulus switching, sample extraction, keyswitch
* :mod:`repro.fhe.packing` — LWE -> RLWE homomorphic-decryption packing
* :mod:`repro.fhe.fbs` — LUT interpolation + Paterson-Stockmeyer evaluation
* :mod:`repro.fhe.s2c` — slot-to-coefficient transform
* :mod:`repro.fhe.ckks` — compact CKKS baseline
* :mod:`repro.fhe.backend` — pluggable op-dispatch backends
  (batched / serial / counting) with context-local selection
"""

from repro.fhe.backend import (
    Backend,
    BatchedBackend,
    CountingBackend,
    SerialBackend,
    current_backend,
    get_backend,
    use_backend,
)
from repro.fhe.bfv import BfvCiphertext, BfvContext, Plaintext
from repro.fhe.fbs import FbsLut, fbs_evaluate, interpolate_lut
from repro.fhe.lwe import (
    LweBatch,
    SmallRlwe,
    keyswitch,
    keyswitch_keygen,
    lwe_decrypt,
    lwe_mod_switch,
    rlwe_mod_switch,
    sample_extract,
)
from repro.fhe.packing import PackingKey, pack_lwe
from repro.fhe.params import (
    ATHENA,
    ATHENA_MEDIUM,
    TEST_FBS,
    TEST_LOOP,
    TEST_SMALL,
    TEST_TINY,
    FheParams,
    get_params,
)
from repro.fhe.poly import RnsPoly
from repro.fhe.s2c import S2CKey, slot_to_coeff
from repro.fhe.security import check_params, security_level

__all__ = [
    "ATHENA",
    "ATHENA_MEDIUM",
    "TEST_FBS",
    "TEST_LOOP",
    "TEST_SMALL",
    "TEST_TINY",
    "Backend",
    "BatchedBackend",
    "BfvCiphertext",
    "BfvContext",
    "CountingBackend",
    "SerialBackend",
    "FbsLut",
    "FheParams",
    "LweBatch",
    "PackingKey",
    "Plaintext",
    "S2CKey",
    "SmallRlwe",
    "current_backend",
    "fbs_evaluate",
    "get_backend",
    "get_params",
    "interpolate_lut",
    "keyswitch",
    "keyswitch_keygen",
    "lwe_decrypt",
    "lwe_mod_switch",
    "pack_lwe",
    "rlwe_mod_switch",
    "RnsPoly",
    "sample_extract",
    "check_params",
    "security_level",
    "slot_to_coeff",
    "use_backend",
]
