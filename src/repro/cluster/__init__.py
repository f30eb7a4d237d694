"""Cache storage for the artifact cache: backends and retries.

* :mod:`repro.cluster.backends` — pluggable :class:`CacheBackend`
  object stores behind the artifact cache (local directory, SQLite
  object store, in-memory) with atomic put-if-absent for concurrent
  writers such as the ``process`` sweep executor's pool processes,
* :mod:`repro.cluster.retry` — :class:`RetryPolicy` and the
  :class:`RetryingBackend` decorator every cache wraps its backend in.

Both modules are pure stdlib apart from telemetry, because
:mod:`repro.pipeline.artifacts` imports them.
"""

from repro.cluster.backends import (
    BackendError,
    CacheBackend,
    LocalDirectoryBackend,
    MemoryBackend,
    ObjectStat,
    PersistentBackendError,
    SQLiteObjectStoreBackend,
    TransientBackendError,
    open_backend,
)
from repro.cluster.retry import (
    DEFAULT_RETRY_POLICY,
    RetryExhausted,
    RetryingBackend,
    RetryPolicy,
    with_retries,
)

__all__ = [
    "BackendError",
    "CacheBackend",
    "DEFAULT_RETRY_POLICY",
    "LocalDirectoryBackend",
    "MemoryBackend",
    "ObjectStat",
    "PersistentBackendError",
    "RetryExhausted",
    "RetryPolicy",
    "RetryingBackend",
    "SQLiteObjectStoreBackend",
    "TransientBackendError",
    "open_backend",
    "with_retries",
]

