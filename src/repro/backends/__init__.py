"""Pluggable execution backends for the machine's vector primitives.

The cost model (:mod:`repro.machine`) decides what a primitive *charges*;
a :class:`Backend` decides how it *computes*.  Five are shipped:

* :class:`NumPyBackend` (``"numpy"``, the default) — one vectorized NumPy
  expression per primitive, behavior- and step-identical to the
  pre-backend code;
* :class:`BlockedBackend` (``"blocked"`` / ``"blocked:<chunk>"``) —
  NumPy plus the carry table's fold: the five carry-bearing primitives
  and fused elementwise chains run over fixed-size chunks with carry
  propagation across chunk boundaries (the paper's Figure 10 long-vector
  schedule executed for real, with chunk-bounded temporaries); every
  other primitive is NumPy's;
* :class:`DistributedBackend` (``"distributed"`` /
  ``"distributed:<workers>[:<min_n>]"``) — shards across supervised OS
  worker processes with shared memory, a round-efficient carry exchange,
  and fault-tolerant retry/degradation (see :mod:`repro.cluster`);
* :class:`NativeBackend` (``"native"`` / ``"native:<threads>[:<block>]"``)
  — the blocked backend plus a two-phase Blelloch upsweep/downsweep over
  the same blocks, compiled with Numba when available; without Numba it
  is the blocked backend (see :mod:`repro.backends.native`);
* :class:`ReferenceBackend` (``"reference"``) — pure-Python per-element
  loops, the differential-testing oracle.

Selection: ``Machine(..., backend="blocked")`` takes a registry name, a
``"name:<args>"`` spec (colon-separated integers, parsed once by
:meth:`Backend.from_spec` into the constructor keywords a backend's
``spec_args`` names; each backend documents its own ``spec_syntax``),
or a :class:`Backend` instance; when omitted, the ``REPRO_BACKEND``
environment variable is honored (same syntax) before falling back to
``"numpy"``.
"""
from __future__ import annotations

import os
from typing import Optional, Union

from .base import Backend, OpEvent
from .blocked import BlockedBackend
from .native import NativeBackend
from .numpy_backend import NumPyBackend
from .reference import ReferenceBackend

# imported last: DistributedBackend subclasses NumPyBackend and pulls in
# repro.cluster, which reaches back into repro.backends.numpy_backend —
# fully initialized by this point in the module body
from .distributed import DistributedBackend  # noqa: E402  (import order is load-bearing)

__all__ = [
    "Backend",
    "BlockedBackend",
    "DistributedBackend",
    "NativeBackend",
    "NumPyBackend",
    "OpEvent",
    "ReferenceBackend",
    "available_backends",
    "backend_specs",
    "get_backend",
    "resolve_backend",
]

_REGISTRY: dict[str, type[Backend]] = {
    NumPyBackend.name: NumPyBackend,
    BlockedBackend.name: BlockedBackend,
    DistributedBackend.name: DistributedBackend,
    NativeBackend.name: NativeBackend,
    ReferenceBackend.name: ReferenceBackend,
}

#: environment variable consulted when no backend is passed explicitly
BACKEND_ENV_VAR = "REPRO_BACKEND"


def available_backends() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


def backend_specs() -> list[str]:
    """Each registered backend's spec syntax (its name when it takes no
    arguments), sorted by name — the vocabulary of ``Machine(backend=...)``
    strings and :data:`BACKEND_ENV_VAR` values."""
    return [(_REGISTRY[name].spec_syntax or name)
            for name in available_backends()]


def get_backend(spec: str) -> Backend:
    """Instantiate a backend from a spec string.

    A spec is a registry name, optionally followed by ``:<arguments>``,
    the integers :meth:`Backend.from_spec` passes to its constructor — e.g.
    ``"blocked:4096"`` or ``"distributed:8:100000"``.
    """
    name, _, arg = spec.partition(":")
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ValueError(
            f"unknown backend {name!r}; available backends: "
            f"{', '.join(available_backends())} "
            f"(spec syntax: {', '.join(backend_specs())}); select one via "
            f"Machine(backend=...) or the {BACKEND_ENV_VAR} environment "
            f"variable"
        )
    return cls.from_spec(arg)


def resolve_backend(backend: Optional[Union[str, Backend]]) -> Backend:
    """Resolve the ``Machine(backend=...)`` argument: an instance passes
    through, a string is looked up, and ``None`` consults
    :data:`BACKEND_ENV_VAR` before defaulting to ``"numpy"``."""
    if backend is None:
        env = os.environ.get(BACKEND_ENV_VAR)
        if not env:
            return NumPyBackend()
        try:
            return get_backend(env)
        except ValueError as exc:
            # name the env var: the bad spec came from the environment,
            # not from any visible call site
            raise ValueError(
                f"invalid {BACKEND_ENV_VAR} value {env!r}: {exc}") from exc
    if isinstance(backend, str):
        return get_backend(backend)
    if isinstance(backend, Backend):
        return backend
    raise TypeError(
        f"backend must be a name, a Backend instance or None, "
        f"got {type(backend).__name__}"
    )
