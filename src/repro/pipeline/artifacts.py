"""Durable, fingerprinted artifacts for the staged pipeline.

Every pipeline stage produces one *artifact*: a Python object whose
identity is fully determined by a **fingerprint** — a SHA-256 digest of

* the stage name,
* the stage's declared *code version* (bumped when the stage's
  implementation changes in a result-affecting way),
* a canonical token of the configuration slice the stage consumes, and
* the fingerprints of its upstream artifacts (so invalidation cascades
  through the DAG without ever loading a payload).

:class:`ArtifactCache` stores artifacts in one directory under
``<stage>/<fingerprint>.pkl`` with a ``.json`` metadata sidecar
recording the SHA-256 of the pickled payload.  A load verifies the
payload hash against the sidecar, so a truncated or bit-flipped artifact
is detected and reported as a miss (the runner then recomputes and
overwrites it) instead of being deserialized into silent corruption.
Each file is written atomically (temp file + ``os.replace``).  No lock
guards a store: every writer of one fingerprint pickles the same bytes
(same fingerprint, same deterministic pipeline), and their sidecars
differ only in ``created_at``, so racing ``repro`` processes that share
one cache directory can only replace a file with an equivalent one.

Pickle is the payload format on purpose: artifacts are internal
intermediate state exchanged between stages of one code base, not an
interchange format — the stage *code version* participates in the
fingerprint precisely so that incompatible pickles are never looked up.

Hygiene: the files are the only metadata.  An entry's size is the
``stat`` of its two files and its last use is the payload's mtime, set
when the payload is written and bumped with ``os.utime`` on every
load that hits (an O(1) touch that keeps warm cache hits cheap), so
:meth:`ArtifactCache.prune` can evict by age and/or LRU order down to
a byte budget and :meth:`ArtifactCache.stats` reports size accounting
per stage — sweeps make unbounded caches a real problem in long-lived
checkouts (CLI: ``repro cache stats`` / ``repro cache prune``).  The
mtime is advisory: a filesystem that ignores ``utime`` only degrades
eviction order, never correctness.
"""

from __future__ import annotations

import contextlib
import dataclasses
import datetime as _dt
import enum
import json
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.telemetry.tracer import get_tracer

# The interpreter's own SHA-256 (``_sha2`` on 3.12+, ``_sha256`` on
# 3.11) gives the same digests as ``hashlib.sha256`` without mapping
# OpenSSL's libcrypto into the process, which ``import hashlib`` does
# (3.7 MB of RSS in every ``repro`` process).
try:
    from _sha2 import sha256 as _sha256
except ImportError:  # Python 3.11
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:  # a build without the built-in module
        from hashlib import sha256 as _sha256

#: Bump when the cache layout / metadata schema changes incompatibly.
CACHE_LAYOUT_VERSION = 1

#: Temp files this old are orphans of a crashed writer (a healthy write
#: holds its temp file for milliseconds) and are collected by the next
#: ``prune``, so budgeted caches cannot leak invisible disk.
TEMP_GC_AGE_SECONDS = 3600.0


# ----------------------------------------------------------------------
# canonical configuration tokens
# ----------------------------------------------------------------------
def config_token(value: object) -> str:
    """A canonical, deterministic string token for a config value.

    Handles the vocabulary configurations are made of — dataclasses,
    mappings, sequences, enums, dates and primitives — and refuses
    anything else loudly (a silently unstable ``repr`` would make two
    different configurations collide or one configuration drift between
    processes).
    """
    return "".join(_tokenize(value))


def _tokenize(value: object) -> List[str]:
    if value is None or isinstance(value, (bool, int, str)):
        return [repr(value)]
    if isinstance(value, float):
        # repr() of a float is exact in Python 3; keep it explicit.
        return [repr(value)]
    if isinstance(value, enum.Enum):
        return [f"{type(value).__name__}.{value.name}"]
    if isinstance(value, (_dt.datetime, _dt.date)):
        return [value.isoformat()]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        parts = [f"{type(value).__name__}("]
        for field in dataclasses.fields(value):
            parts.append(f"{field.name}=")
            parts.extend(_tokenize(getattr(value, field.name)))
            parts.append(",")
        parts.append(")")
        return parts
    if isinstance(value, dict):
        parts = ["{"]
        for key in sorted(value, key=repr):
            parts.extend(_tokenize(key))
            parts.append(":")
            parts.extend(_tokenize(value[key]))
            parts.append(",")
        parts.append("}")
        return parts
    if isinstance(value, (list, tuple)):
        parts = ["[" if isinstance(value, list) else "("]
        for item in value:
            parts.extend(_tokenize(item))
            parts.append(",")
        parts.append("]" if isinstance(value, list) else ")")
        return parts
    if isinstance(value, (set, frozenset)):
        parts = ["{s:"]
        for item in sorted(value, key=repr):
            parts.extend(_tokenize(item))
            parts.append(",")
        parts.append("}")
        return parts
    raise TypeError(
        f"cannot build a stable config token for {type(value).__name__!r}; "
        "add explicit support or pass a primitive projection instead"
    )


def fingerprint(
    stage: str,
    version: str,
    token: str,
    upstream: Sequence[str] = (),
) -> str:
    """The SHA-256 fingerprint of one stage invocation."""
    digest = _sha256()
    for part in (f"layout:{CACHE_LAYOUT_VERSION}", stage, version, token, *upstream):
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


# ----------------------------------------------------------------------
# the on-disk cache
# ----------------------------------------------------------------------
@dataclasses.dataclass
class ArtifactRecord:
    """Metadata of one stored artifact (the ``.json`` sidecar)."""

    stage: str
    fingerprint: str
    payload_sha256: str
    size_bytes: int
    code_version: str
    created_at: str

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ArtifactRecord":
        data = json.loads(text)
        return cls(**{field.name: data[field.name] for field in dataclasses.fields(cls)})


@dataclasses.dataclass
class CacheEntry:
    """One stored artifact as the hygiene machinery sees it."""

    stage: str
    fingerprint: str
    size_bytes: int  # payload + metadata sidecar
    last_used: float  # epoch seconds (payload mtime)


@dataclasses.dataclass
class CacheStats:
    """Size accounting of one artifact cache."""

    root: str
    entries: int
    total_bytes: int
    per_stage: Dict[str, Dict[str, int]]  # stage -> {"entries", "bytes"}

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class PruneReport:
    """What one :meth:`ArtifactCache.prune` call removed (or would)."""

    removed: List[CacheEntry]
    freed_bytes: int
    remaining_entries: int
    remaining_bytes: int
    dry_run: bool
    #: Orphaned temporary files swept (leftovers of writers that
    #: crashed between writing a temp file and publishing it).
    temp_files_removed: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "removed": [
                {
                    "stage": entry.stage,
                    "fingerprint": entry.fingerprint,
                    "size_bytes": entry.size_bytes,
                }
                for entry in self.removed
            ],
            "freed_bytes": self.freed_bytes,
            "remaining_entries": self.remaining_entries,
            "remaining_bytes": self.remaining_bytes,
            "dry_run": self.dry_run,
            "temp_files_removed": self.temp_files_removed,
        }




class ArtifactCache:
    """Content-addressed store of stage artifacts in one directory.

    Layout::

        <root>/
          <stage-name>/
            <fingerprint>.pkl    # pickled payload
            <fingerprint>.json   # ArtifactRecord sidecar (payload hash)

    Files are addressed by relative POSIX keys such as
    ``"store/<fingerprint>.pkl"``.  Every write is atomic (a
    dot-prefixed temp file published with ``os.replace``), so no reader
    ever sees a prefix of the new bytes and a crashed run never leaves
    a half-written payload that a later run would trust; loads verify
    the payload hash against the sidecar before unpickling.
    Dot-prefixed files (in-flight temp files) are invisible to every
    listing; aged ones are orphans that :meth:`prune` sweeps.
    """

    PAYLOAD_SUFFIX = ".pkl"
    META_SUFFIX = ".json"

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # keys and files
    # ------------------------------------------------------------------
    def _payload_key(self, stage: str, fingerprint: str) -> str:
        return f"{stage}/{fingerprint}{self.PAYLOAD_SUFFIX}"

    def _meta_key(self, stage: str, fingerprint: str) -> str:
        return f"{stage}/{fingerprint}{self.META_SUFFIX}"

    def payload_path(self, stage: str, fingerprint: str) -> Path:
        return self._path(self._payload_key(stage, fingerprint))

    def meta_path(self, stage: str, fingerprint: str) -> Path:
        return self._path(self._meta_key(stage, fingerprint))

    def _path(self, key: str) -> Path:
        """The file of ``key``; rejects keys that could escape the root
        or alias another key (``..``, ``.``/dot-prefixed or empty
        segments, absolute paths, backslashes)."""
        segments = key.split("/")
        if "\\" in key or any(not part or part.startswith(".") for part in segments):
            raise ValueError(f"cache key must be a relative POSIX name, got {key!r}")
        return self.root.joinpath(*segments)

    def _read(self, key: str) -> Optional[bytes]:
        try:
            return self._path(key).read_bytes()
        except (FileNotFoundError, IsADirectoryError):
            return None

    def _write(self, key: str, data: bytes) -> None:
        """Atomically replace the file of ``key`` with ``data``."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, temp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
        try:
            with os.fdopen(handle, "wb") as stream:
                stream.write(data)
            os.replace(temp_name, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(temp_name)
            raise

    def _delete(self, key: str) -> bool:
        """Remove one file (and the directories that leaves empty);
        ``True`` iff it existed."""
        path = self._path(key)
        try:
            path.unlink()
        except FileNotFoundError:
            return False
        parent = path.parent
        while parent != self.root:
            try:
                parent.rmdir()  # refuses non-empty directories
            except OSError:
                break
            parent = parent.parent
        return True

    def _scan(self) -> List[Tuple[str, os.stat_result]]:
        """Every visible key with its stat, sorted by key.  Files that
        vanish mid-scan are skipped."""
        results: List[Tuple[str, os.stat_result]] = []
        for directory, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if name.startswith("."):
                    continue  # in-flight or orphaned temp files
                path = Path(directory, name)
                try:
                    results.append((path.relative_to(self.root).as_posix(), path.stat()))
                except FileNotFoundError:
                    continue
        return sorted(results, key=lambda item: item[0])

    def _collect_orphans(
        self, max_age_seconds: float = TEMP_GC_AGE_SECONDS, dry_run: bool = False
    ) -> int:
        """Remove (or with ``dry_run`` only count) temp files older than
        ``max_age_seconds`` — debris of writers killed between writing a
        temp file and publishing it.  Age-gated so in-flight writes are
        never touched.  Returns how many were found."""
        cutoff = time.time() - max_age_seconds
        collected = 0
        for directory, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if not name.startswith("."):
                    continue
                path = Path(directory, name)
                try:
                    if path.stat().st_mtime < cutoff:
                        if not dry_run:
                            path.unlink()
                        collected += 1
                except OSError:
                    continue  # vanished or undeletable: not our problem
        return collected

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def contains(self, stage: str, fingerprint: str) -> bool:
        """True when a *verifiable* artifact exists (hash checked)."""
        return self.verify(stage, fingerprint) is not None

    def _read_entry(
        self, stage: str, fingerprint: str
    ) -> Optional[Tuple[bytes, Optional[ArtifactRecord]]]:
        """One read + one hash of a stored artifact.

        ``None`` when either file is absent; otherwise the payload bytes
        and their record, which is ``None`` when the payload fails
        verification (unreadable sidecar, hash mismatch).
        """
        meta = self._read(self._meta_key(stage, fingerprint))
        if meta is None:
            return None
        payload = self._read(self._payload_key(stage, fingerprint))
        if payload is None:
            return None
        try:
            record = ArtifactRecord.from_json(meta.decode("utf-8"))
        except (json.JSONDecodeError, KeyError, TypeError, UnicodeDecodeError):
            return payload, None
        if _sha256(payload).hexdigest() != record.payload_sha256:
            return payload, None
        return payload, record

    def verify(self, stage: str, fingerprint: str) -> Optional[ArtifactRecord]:
        """Validate the stored artifact; ``None`` when missing/corrupt.

        Reads and hashes the payload but does not unpickle it, and
        traces nothing: the runner reads artifacts with :meth:`load`.
        """
        entry = self._read_entry(stage, fingerprint)
        return entry[1] if entry is not None else None

    def load(self, stage: str, fingerprint: str) -> Optional[Tuple[object, ArtifactRecord]]:
        """Load and hash-verify an artifact; ``None`` on any defect.

        The payload is read and hashed once, then unpickled.  A hash
        mismatch, an unreadable sidecar or a failing unpickle all report
        a miss — the runner recomputes and the defective entry is
        overwritten by the subsequent :meth:`store`.

        The whole call is one ``cache.load`` span with the ``bytes``
        read and its ``outcome``: ``miss`` for an absent artifact,
        ``corrupt`` for a present but defective one, ``hit`` otherwise
        (so a trace tells "absent" apart from "present but bad").
        """
        with get_tracer().span("cache.load", stage=stage) as span:
            entry = self._read_entry(stage, fingerprint)
            if entry is None:
                span.annotate(bytes=0, outcome="miss")
                return None
            payload, record = entry
            span.annotate(bytes=len(payload))
            value = None
            if record is not None:
                try:
                    value = pickle.loads(payload)
                except Exception:
                    record = None
            if record is None:
                span.annotate(outcome="corrupt")
                return None
            span.annotate(outcome="hit")
            self._touch(stage, fingerprint)
        return value, record

    def store(
        self, stage: str, fingerprint: str, value: object, code_version: str
    ) -> ArtifactRecord:
        """Persist one artifact atomically; returns its metadata record.

        The payload is written first, then its sidecar, each with an
        atomic replace.  A present-but-corrupt entry (the defect
        :meth:`load` reports as a miss) is overwritten.  A reader that
        lands between the two replaces, or between two racing writers,
        sees a payload and a sidecar of the same fingerprint, whose
        hashes agree because every writer pickles the same bytes; a pair
        that still disagrees verifies as a miss, never as torn data.
        The whole call is one ``cache.store`` span with the ``bytes``
        written.
        """
        with get_tracer().span("cache.store", stage=stage) as span:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            record = ArtifactRecord(
                stage=stage,
                fingerprint=fingerprint,
                payload_sha256=_sha256(payload).hexdigest(),
                size_bytes=len(payload),
                code_version=code_version,
                created_at=_dt.datetime.now(_dt.timezone.utc).isoformat(
                    timespec="seconds"
                ),
            )
            self._write(self._payload_key(stage, fingerprint), payload)
            self._write(
                self._meta_key(stage, fingerprint), record.to_json().encode("utf-8")
            )
            span.annotate(bytes=record.size_bytes)
        return record

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def entries(self) -> Dict[str, List[str]]:
        """Stage name -> stored fingerprints (for reports and tests)."""
        result: Dict[str, List[str]] = {}
        for entry in self._scan_entries():
            result.setdefault(entry.stage, []).append(entry.fingerprint)
        return result

    # ------------------------------------------------------------------
    # hygiene: recency, size accounting, eviction
    # ------------------------------------------------------------------
    def _touch(self, stage: str, fingerprint: str) -> None:
        """Record a read for LRU ordering: an O(1) ``os.utime`` bump of
        the payload, cheap enough for every warm cache hit and visible
        across processes."""
        with contextlib.suppress(OSError):
            # A read-only or vanished cache must never break the run
            # the touch was bookkeeping for.
            os.utime(self.payload_path(stage, fingerprint))

    def _scan_entries(self) -> List[CacheEntry]:
        """Every stored artifact with its actual size and last use.

        Sizes come from ``stat`` of the files themselves; a missing
        metadata sidecar only loses the sidecar's own bytes from the
        total.  ``last_used`` is the payload's mtime (set by the write,
        bumped by :meth:`_touch` on every read).  Top-level files, such
        as the ``cache-index.json`` older caches kept, are not
        artifacts.  Entries that vanish mid-scan — another process
        pruning the same cache — are silently skipped: hygiene is
        best-effort by contract, never an error.
        """
        try:
            stats = dict(self._scan())
        except OSError:
            return []
        entries: List[CacheEntry] = []
        for key in sorted(stats):
            if "/" not in key or not key.endswith(self.PAYLOAD_SUFFIX):
                continue  # sidecars, foreign top-level files
            stage, name = key.split("/", 1)
            fingerprint = name[: -len(self.PAYLOAD_SUFFIX)]
            payload_stat = stats[key]
            size = payload_stat.st_size
            meta_stat = stats.get(self._meta_key(stage, fingerprint))
            if meta_stat is not None:
                size += meta_stat.st_size
            entries.append(
                CacheEntry(
                    stage=stage,
                    fingerprint=fingerprint,
                    size_bytes=size,
                    last_used=payload_stat.st_mtime,
                )
            )
        return entries

    def stats(self) -> CacheStats:
        """Per-stage entry counts and byte totals (deletes nothing)."""
        per_stage: Dict[str, Dict[str, int]] = {}
        total_bytes = 0
        count = 0
        for entry in self._scan_entries():
            bucket = per_stage.setdefault(entry.stage, {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += entry.size_bytes
            total_bytes += entry.size_bytes
            count += 1
        return CacheStats(
            root=str(self.root),
            entries=count,
            total_bytes=total_bytes,
            per_stage=per_stage,
        )

    def prune(
        self,
        max_bytes: Optional[int] = None,
        max_age_seconds: Optional[float] = None,
        now: Optional[float] = None,
        dry_run: bool = False,
    ) -> PruneReport:
        """Evict artifacts by age, then LRU down to a byte budget.

        ``max_age_seconds`` removes everything not used for that long;
        ``max_bytes`` then removes the least-recently-used survivors
        until the cache fits the budget.  Aged orphaned temp files are
        swept first.  ``dry_run`` reports what would be removed without
        touching a file.  Evicting a live entry is always safe — the
        next run that needs it recomputes and re-stores it (a cache
        miss, never an error).  Both bounds must be ``>= 0``; zero
        evicts everything.
        """
        if max_bytes is None and max_age_seconds is None:
            raise ValueError("prune needs max_bytes and/or max_age_seconds")
        for name, bound in (("max_bytes", max_bytes), ("max_age_seconds", max_age_seconds)):
            if bound is not None and bound < 0:
                raise ValueError(f"{name} must be >= 0, got {bound}")
        if now is None:
            now = time.time()
        try:
            temp_files_removed = self._collect_orphans(dry_run=dry_run)
        except OSError:
            temp_files_removed = 0
        entries = self._scan_entries()
        total = sum(entry.size_bytes for entry in entries)
        doomed: List[CacheEntry] = []
        survivors: List[CacheEntry] = []
        for entry in entries:
            if (
                max_age_seconds is not None
                and now - entry.last_used > max_age_seconds
            ):
                doomed.append(entry)
            else:
                survivors.append(entry)
        if max_bytes is not None:
            remaining = total - sum(entry.size_bytes for entry in doomed)
            for entry in sorted(survivors, key=lambda e: (e.last_used, e.stage, e.fingerprint)):
                if remaining <= max_bytes:
                    break
                doomed.append(entry)
                remaining -= entry.size_bytes
        if not dry_run:
            for entry in doomed:
                for key in (
                    self._payload_key(entry.stage, entry.fingerprint),
                    self._meta_key(entry.stage, entry.fingerprint),
                ):
                    try:
                        self._delete(key)
                    except OSError:
                        # Undeletable (permissions, read-only mount):
                        # hygiene is best-effort — keep evicting the rest.
                        pass
        freed = sum(entry.size_bytes for entry in doomed)
        return PruneReport(
            removed=sorted(doomed, key=lambda e: (e.stage, e.fingerprint)),
            freed_bytes=freed,
            remaining_entries=len(entries) - len(doomed),
            remaining_bytes=total - freed,
            dry_run=dry_run,
            temp_files_removed=temp_files_removed,
        )
