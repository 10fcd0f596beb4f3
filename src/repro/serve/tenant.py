"""Tenant layer: who is being served, under which keys and parameters.

A *tenant* is one key domain: its own :class:`FheParams`, its own keygen
seed (so every :class:`~repro.serve.session.SessionRuntime` built for it
derives the same — and only its own — secret/evaluation keys). Which
engine runs its requests is the service's ``ExecConfig`` choice, not the
tenant's. Ciphertexts never cross tenants: the scheduler keeps per-tenant
queues and the worker layer keys its warm sessions by
``(tenant_id, model)``, so tenant A's keys can never touch tenant B's
requests.

The tenant layer also owns deployment *sizing*: each tenant's evaluation
key inventory (Galois/relin/LWE-keyswitch material, via
:mod:`repro.core.keyinventory`) is derived from its parameter set, which is
what a capacity planner needs to bound per-tenant key storage before any
key is actually generated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.core.keyinventory import KeyInventory, build_inventory
from repro.errors import ParameterError
from repro.fhe.params import FheParams

__all__ = ["Tenant", "TenantRegistry"]


@dataclass(frozen=True)
class Tenant:
    """One key domain of the service.

    Attributes:
        tenant_id: Unique handle; the scheduler's fairness unit.
        params: This tenant's FHE parameter set. Tenants sharing a model
            *and* a parameter set share one compiled plan (plans hold no
            key material); key material itself is never shared.
        seed: Keygen seed. Every runtime built for this tenant derives the
            same keys from it, so any worker can answer this tenant's
            requests interchangeably.
    """

    tenant_id: str
    params: FheParams
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise ParameterError("tenant_id must be a non-empty string")

    def key_domain(self) -> tuple:
        """Hashable identity of this tenant's key material.

        Every :class:`~repro.serve.session.SessionRuntime` derives its keys
        deterministically from ``(params, seed)``, so two tenants with equal
        key domains hold *identical* secret/evaluation keys and their
        requests may legally share a ciphertext — the batching layer's
        shared-key fast path.
        """
        from repro.fhe.serialize import params_fingerprint

        return (params_fingerprint(self.params).hex(), self.seed)

    def key_inventory(self) -> KeyInventory:
        """Evaluation-key inventory this tenant's parameter set implies."""
        return build_inventory(self.params)

    def key_material_bytes(self) -> int:
        """Size of this tenant's full evaluation-key set, seed-compressed."""
        return self.key_inventory().total_bytes()

    def describe(self) -> str:
        return (
            f"{self.tenant_id}: {self.params.name}, seed={self.seed}, "
            f"keys~{self.key_material_bytes() / 2**20:.2f} MiB"
        )


class TenantRegistry:
    """The service's tenant table: lookup, iteration, capacity sizing."""

    def __init__(self, tenants: Iterable[Tenant] = ()):
        self._tenants: dict[str, Tenant] = {}
        for tenant in tenants:
            self.add(tenant)

    def add(self, tenant: Tenant) -> Tenant:
        if tenant.tenant_id in self._tenants:
            raise ParameterError(f"duplicate tenant {tenant.tenant_id!r}")
        self._tenants[tenant.tenant_id] = tenant
        return tenant

    def get(self, tenant_id: str) -> Tenant:
        try:
            return self._tenants[tenant_id]
        except KeyError:
            raise ParameterError(
                f"unknown tenant {tenant_id!r}; registered: "
                f"{sorted(self._tenants)}"
            ) from None

    def ids(self) -> list[str]:
        """Registration-ordered tenant ids (the scheduler's fairness ring)."""
        return list(self._tenants)

    def __iter__(self) -> Iterator[Tenant]:
        return iter(self._tenants.values())

    def __len__(self) -> int:
        return len(self._tenants)

    def __contains__(self, tenant_id: str) -> bool:
        return tenant_id in self._tenants
