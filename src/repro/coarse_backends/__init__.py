"""Pluggable coarse-phase backends.

The engines, the build pipeline, and the manifest layer all talk to
the coarse phase through :class:`~repro.coarse_backends.base.CoarseBackend`;
the concrete technologies live here:

``inverted``
    The paper's compressed inverted interval index — the default, and
    hit-for-hit identical to the pre-backend engine.

``signature``
    A COBS-style bit-sliced signature index: one Bloom-filter row per
    document, blocked into docs-per-block bit matrices, AND-ed query
    slices, a tunable false-positive rate traded for a much smaller
    index.

Backends are resolved lazily so importing the manifest layer never
drags in numpy-heavy implementations it does not need.
"""

from __future__ import annotations

from repro.coarse_backends.base import (
    ARTIFACT_NAMES,
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    CoarseBackend,
    artifact_name,
    coarse_section,
)
from repro.errors import IndexFormatError

_INSTANCES: dict[str, CoarseBackend] = {}


def get_backend(name: str) -> CoarseBackend:
    """The (shared, stateless) backend instance registered as ``name``.

    Raises:
        IndexFormatError: if the name is unknown.
    """
    backend = _INSTANCES.get(name)
    if backend is not None:
        return backend
    if name == "inverted":
        from repro.coarse_backends.inverted import InvertedBackend

        backend = InvertedBackend()
    elif name == "signature":
        from repro.coarse_backends.signature import SignatureBackend

        backend = SignatureBackend()
    else:
        raise IndexFormatError(
            f"unknown coarse backend {name!r}; known: {sorted(BACKEND_NAMES)}"
        )
    _INSTANCES[name] = backend
    return backend


__all__ = [
    "ARTIFACT_NAMES",
    "BACKEND_NAMES",
    "DEFAULT_BACKEND",
    "CoarseBackend",
    "artifact_name",
    "coarse_section",
    "get_backend",
]
