"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish parameter problems from runtime (noise-budget) problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ParameterError(ReproError):
    """An FHE or model parameter set is invalid or inconsistent."""


class NoiseBudgetExhausted(ReproError):
    """A ciphertext's noise exceeded Delta/2; decryption would be wrong."""


class EncodingError(ReproError):
    """Data does not fit the requested encoding (e.g. too large for N)."""


class QuantizationError(ReproError):
    """Quantized value out of representable range or bad quant config."""


class UnsupportedLayer(QuantizationError):
    """Lowering met a layer type with no registered :class:`LoweringRule`.

    Subclasses :class:`QuantizationError` so pre-registry callers that
    caught the old ``cannot lower`` error keep working. The payload names
    the offending layer so CLI users see *which* layer of *which* type
    broke the compile instead of a bare class name: ``index`` is the
    position within the layer list handed to the lowering pass and
    ``layer_type`` the layer's class name.
    """

    def __init__(self, message: str, *, index: int | None = None,
                 layer_type: str | None = None):
        super().__init__(message)
        self.index = index
        self.layer_type = layer_type


class ModulusOverflow(QuantizationError):
    """A calibrated MAC peak exceeds the plaintext modulus headroom ``t//2``.

    Raised by :meth:`QuantizedModel.validate_t`: a MAC wrapping mod ``t``
    silently corrupts the LUT input under FHE, so the check names the worst
    offending layer instead of returning a bare bool. ``layer`` is the
    offender's label (type + index within ``mac_layers()`` order),
    ``mac_peak`` its observed peak, ``t`` the modulus, and ``excess`` how
    far the peak overshoots ``t//2`` — i.e. the minimum amount calibration
    or a narrower bit-width assignment must shave off.
    """

    def __init__(
        self,
        message: str,
        *,
        layer: str | None = None,
        mac_peak: int | None = None,
        t: int | None = None,
        excess: int | None = None,
    ):
        super().__init__(message)
        self.layer = layer
        self.mac_peak = mac_peak
        self.t = t
        self.excess = excess


class TensorOverflow(ParameterError):
    """A CMult tensor was asked to sum more products than its auxiliary
    basis holds exactly (:func:`repro.fhe.bfv.cmult_bounds`).

    The basis of a parameter set is sized once, for the ``ceil(sqrt(t))``
    giant steps any FBS over Z_t can combine; a longer sum would wrap
    modulo P silently, so it is refused. ``terms`` is the number of
    products asked for, ``capacity`` the number the basis holds.
    """

    def __init__(self, message: str, *, terms: int, capacity: int):
        super().__init__(message)
        self.terms = terms
        self.capacity = capacity


class ScheduleError(ReproError):
    """The accelerator simulator was given an unschedulable op trace."""


class ServiceOverloaded(ReproError):
    """The serving layer shed a request: its tenant's queue is full.

    Raised synchronously at admission time (never after a request has been
    queued), so a rejected caller knows no work was started and may retry
    with backoff against a less loaded deployment. The payload carries the
    shedding tenant's live queue occupancy so clients can back off
    proportionally instead of blind-retrying: ``tenant_id``, ``depth``
    (requests pending for that tenant when shed), and ``capacity`` (the
    per-tenant bound). All three are ``None`` when the shed is not
    queue-related (e.g. the scheduler is closed).
    """

    def __init__(
        self,
        message: str,
        *,
        tenant_id: str | None = None,
        depth: int | None = None,
        capacity: int | None = None,
    ):
        super().__init__(message)
        self.tenant_id = tenant_id
        self.depth = depth
        self.capacity = capacity
