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
Writes are atomic (temp file + ``os.replace``) and a payload is
published with a single-winner **put-if-absent** (``os.link``, or an
``O_EXCL`` reservation where hardlinks are unsupported): when two
``repro`` processes sharing one cache directory race to publish the
same fingerprint, one write wins and the loser adopts it (the payloads
are bit-identical by construction).

Pickle is the payload format on purpose: artifacts are internal
intermediate state exchanged between stages of one code base, not an
interchange format — the stage *code version* participates in the
fingerprint precisely so that incompatible pickles are never looked up.

Hygiene: the cache records when each artifact was last used so
:meth:`ArtifactCache.prune` can evict by age and/or LRU order down to
a byte budget, and :meth:`ArtifactCache.stats` reports size accounting
per stage — sweeps make unbounded caches a real problem in long-lived
checkouts (CLI: ``repro cache stats`` / ``repro cache prune``).  Two
mechanisms cooperate: a **sidecar index** (``cache-index.json`` at the
root) written when an artifact is stored or pruned, and an
``os.utime`` bump of the payload file on every successful read — an
O(1) touch that keeps warm cache hits cheap (rewriting the index per
access would make each hit O(total entries)).  An entry's last-use
time is the newer of the two.  Both are advisory metadata only: a lost
index or a filesystem that ignores utime never affects correctness, it
just degrades eviction order (entries fall back to their creation
time).
"""

from __future__ import annotations

import contextlib
import dataclasses
import datetime as _dt
import enum
import hashlib
import json
import os
import pickle
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.telemetry import get_tracer

try:  # POSIX cross-process locking; degrade to in-process elsewhere.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

#: Bump when the cache layout / metadata schema changes incompatibly.
CACHE_LAYOUT_VERSION = 1

#: Root-level sidecar recording last-access times for LRU eviction.
INDEX_FILENAME = "cache-index.json"

#: Lock file serializing the index read-modify-write across processes.
LOCK_FILENAME = ".cache.lock"

#: Bounded wait for the locks guarding advisory index maintenance.
#: Past it the touch/cleanup is skipped — LRU recency degrades, the run
#: proceeds.  Honest contention (one small read-modify-write) clears in
#: well under this; only a wedged holder exhausts it.
INDEX_LOCK_TIMEOUT_SECONDS = 0.25

#: Temp files this old are orphans of a crashed writer (a healthy write
#: holds its temp file for milliseconds) and are collected by the next
#: ``stats``/``prune``, so budgeted caches cannot leak invisible disk.
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
    digest = hashlib.sha256()
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
    last_used: float  # epoch seconds (access index, else created_at)


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


class _CacheDirectory:
    """The byte-level store under an :class:`ArtifactCache`: objects as
    files below one root, addressed by relative POSIX keys such as
    ``"store/<fingerprint>.pkl"``.

    * ``put`` is atomic: temp file + ``os.replace``, so no reader ever
      sees a prefix of the new bytes.
    * ``scan`` sizes come from ``stat`` of the files themselves.
    * ``put_if_absent`` is an atomic test-and-set: temp file +
      ``os.link``, which fails with ``EEXIST`` exactly when another
      writer won.  Where hardlinks are unsupported an ``O_EXCL``
      reservation gives the same single winner.
    * ``lock`` is an ``flock`` on :data:`LOCK_FILENAME`, exclusive
      across processes and across threads (each acquisition opens its
      own file description).
    * Dot-prefixed files (in-flight temp files, the lock file) are
      invisible to ``scan``; aged ones are orphans that
      ``collect_orphans`` removes.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path(self, key: str) -> Path:
        """The file of ``key``; rejects keys that could escape the root
        or alias another key (``..``, ``.``/dot-prefixed or empty
        segments, absolute paths, backslashes)."""
        segments = key.split("/")
        if "\\" in key or any(not part or part.startswith(".") for part in segments):
            raise ValueError(f"cache key must be a relative POSIX name, got {key!r}")
        return self.root.joinpath(*segments)

    def get(self, key: str) -> Optional[bytes]:
        try:
            return self.path(key).read_bytes()
        except (FileNotFoundError, IsADirectoryError):
            return None

    def _write_temp(self, path: Path, data: bytes) -> str:
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, temp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
        try:
            with os.fdopen(handle, "wb") as stream:
                stream.write(data)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(temp_name)
            raise
        return temp_name

    def put(self, key: str, data: bytes) -> None:
        path = self.path(key)
        os.replace(self._write_temp(path, data), path)

    def put_if_absent(self, key: str, data: bytes) -> bool:
        """Store only if ``key`` is free; ``True`` iff this call won."""
        path = self.path(key)
        temp_name = self._write_temp(path, data)
        try:
            try:
                os.link(temp_name, path)  # atomic: fails iff the key exists
                return True
            except FileExistsError:
                return False
            except OSError:
                # Filesystems without hardlinks (exFAT, some mounts):
                # reserve the key with an exclusive create, then move the
                # payload over the reservation.  A reader glimpsing the
                # empty reservation sees a hash mismatch, i.e. a miss,
                # never torn data.
                try:
                    os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                except FileExistsError:
                    return False
                os.replace(temp_name, path)
                return True
        finally:
            with contextlib.suppress(OSError):
                os.unlink(temp_name)

    def delete(self, key: str) -> bool:
        """Remove one object (and the directories that leaves empty);
        ``True`` iff it existed."""
        path = self.path(key)
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

    def scan(self, prefix: str = "") -> List[Tuple[str, os.stat_result]]:
        """Every visible key starting with ``prefix`` with its stat,
        sorted by key.  Files that vanish mid-scan are skipped."""
        results: List[Tuple[str, os.stat_result]] = []
        for directory, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if name.startswith("."):
                    continue  # temp files, the lock file
                path = Path(directory, name)
                key = path.relative_to(self.root).as_posix()
                if not key.startswith(prefix):
                    continue
                try:
                    results.append((key, path.stat()))
                except FileNotFoundError:
                    continue
        return sorted(results, key=lambda item: item[0])

    def touch(self, key: str) -> None:
        os.utime(self.path(key))

    @contextlib.contextmanager
    def lock(self, timeout: Optional[float] = None) -> Iterator[None]:
        """Exclusive ``flock`` over the whole directory.

        With a ``timeout``, a lock that stays busy raises the built-in
        :class:`TimeoutError` (an ``OSError``) instead of blocking, so a
        wedged holder cannot stall callers whose critical section is
        advisory.  Without ``fcntl`` this is a no-op and only the
        in-process lock of :class:`ArtifactCache` excludes writers.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platform
            yield
            return
        handle = os.open(self.root / LOCK_FILENAME, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            if timeout is None:
                fcntl.flock(handle, fcntl.LOCK_EX)
            else:
                deadline = time.monotonic() + timeout
                while True:
                    try:
                        fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
                        break
                    except BlockingIOError:
                        if time.monotonic() >= deadline:
                            raise TimeoutError(
                                f"cache lock {self.root / LOCK_FILENAME} still "
                                f"held after {timeout:g}s"
                            ) from None
                        time.sleep(0.01)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)
        finally:
            os.close(handle)

    def collect_orphans(
        self, max_age_seconds: float = TEMP_GC_AGE_SECONDS, dry_run: bool = False
    ) -> int:
        """Remove (or with ``dry_run`` only count) temp files older than
        ``max_age_seconds`` — debris of writers killed between writing a
        temp file and publishing it.  Age-gated so in-flight writes are
        never touched; never called from ``scan``, so a ``dry_run``
        prune truly deletes nothing.  Returns how many were found."""
        cutoff = time.time() - max_age_seconds
        collected = 0
        for directory, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if not name.startswith(".") or name == LOCK_FILENAME:
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


class ArtifactCache:
    """Content-addressed store of stage artifacts in one directory.

    Layout::

        <root>/
          cache-index.json       # last-access times (LRU eviction order)
          .cache.lock            # flock guarding the index read-modify-write
          <stage-name>/
            <fingerprint>.pkl    # pickled payload
            <fingerprint>.json   # ArtifactRecord sidecar (payload hash)

    Writes are atomic so a crashed run never leaves a half-written
    payload that a later run would trust; loads verify the payload hash
    against the sidecar before unpickling.
    """

    PAYLOAD_SUFFIX = ".pkl"
    META_SUFFIX = ".json"

    #: Class-level: every ArtifactCache instance over any root shares it
    #: (sweep executors build one instance per scenario over the same
    #: root, so a per-instance lock would never serialize anything).
    #: Cross-*process* exclusion is the directory's ``flock``.
    _index_lock = threading.Lock()

    def __init__(self, root: Union[str, Path]) -> None:
        self._dir = _CacheDirectory(root)
        self.root = self._dir.root

    # ------------------------------------------------------------------
    # keys and paths
    # ------------------------------------------------------------------
    def _payload_key(self, stage: str, fingerprint: str) -> str:
        return f"{stage}/{fingerprint}{self.PAYLOAD_SUFFIX}"

    def _meta_key(self, stage: str, fingerprint: str) -> str:
        return f"{stage}/{fingerprint}{self.META_SUFFIX}"

    def payload_path(self, stage: str, fingerprint: str) -> Path:
        return self._dir.path(self._payload_key(stage, fingerprint))

    def meta_path(self, stage: str, fingerprint: str) -> Path:
        return self._dir.path(self._meta_key(stage, fingerprint))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def contains(self, stage: str, fingerprint: str) -> bool:
        """True when a *verifiable* artifact exists (hash checked)."""
        return self.verify(stage, fingerprint) is not None

    def _verified_bytes(
        self, stage: str, fingerprint: str, report_corrupt: bool = True
    ) -> Optional[Tuple[bytes, ArtifactRecord]]:
        """One read + one hash: the payload bytes iff they verify.

        A stored artifact that fails verification (unreadable sidecar,
        hash mismatch) emits a ``cache.corrupt`` counter unless
        ``report_corrupt`` is off, so a trace tells "absent" apart from
        "present but bad".
        """
        meta = self._dir.get(self._meta_key(stage, fingerprint))
        if meta is None:
            return None
        payload = self._dir.get(self._payload_key(stage, fingerprint))
        if payload is None:
            return None
        try:
            record = ArtifactRecord.from_json(meta.decode("utf-8"))
        except (json.JSONDecodeError, KeyError, TypeError, UnicodeDecodeError):
            record = None
        if record is None or hashlib.sha256(payload).hexdigest() != record.payload_sha256:
            if report_corrupt:
                _count_corrupt(stage)
            return None
        return payload, record

    def verify(self, stage: str, fingerprint: str) -> Optional[ArtifactRecord]:
        """Validate the stored artifact; ``None`` when missing/corrupt.

        Reads and hashes the payload — corruption is detected here, not
        at unpickle time.  The runner calls this once per stage it
        demands, so a run pays one sequential read of each cached
        artifact it needs (the deliberate price of eager corruption
        detection) but no deserialization.
        """
        verified = self._verified_bytes(stage, fingerprint)
        tracer = get_tracer()
        if tracer:
            tracer.counter("cache.verify", stage=stage)
            tracer.counter("cache.hit" if verified is not None else "cache.miss",
                           stage=stage)
        if verified is not None:
            self._touch(stage, fingerprint)
        return verified[1] if verified is not None else None

    def load(self, stage: str, fingerprint: str) -> Optional[Tuple[object, ArtifactRecord]]:
        """Load and hash-verify an artifact; ``None`` on any defect.

        A hash mismatch, an unreadable sidecar or a failing unpickle all
        report a miss — the runner recomputes and the defective entry is
        overwritten by the subsequent :meth:`store`.  The payload is
        read and hashed once (re-verified here even if :meth:`verify`
        passed earlier, because the file may have changed in between).
        """
        verified = self._verified_bytes(stage, fingerprint)
        tracer = get_tracer()
        if tracer:
            tracer.counter("cache.load", stage=stage)
        if verified is None:
            if tracer:
                tracer.counter("cache.miss", stage=stage)
            return None
        payload, record = verified
        try:
            value = pickle.loads(payload)
        except Exception:
            _count_corrupt(stage)
            if tracer:
                tracer.counter("cache.miss", stage=stage)
            return None
        self._touch(stage, fingerprint)
        return value, record

    def store(
        self, stage: str, fingerprint: str, value: object, code_version: str
    ) -> ArtifactRecord:
        """Persist one artifact atomically; returns its metadata record.

        The payload is published with **put-if-absent**: when a
        concurrent worker already published this fingerprint, the
        existing entry is adopted if it verifies (bit-identical by
        construction — same fingerprint, same deterministic pipeline)
        and the duplicate write is skipped.  A present-but-corrupt entry
        (the defect :meth:`load` reports as a miss) is overwritten.
        """
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        record = ArtifactRecord(
            stage=stage,
            fingerprint=fingerprint,
            payload_sha256=hashlib.sha256(payload).hexdigest(),
            size_bytes=len(payload),
            code_version=code_version,
            created_at=_dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds"),
        )
        payload_key = self._payload_key(stage, fingerprint)
        meta_key = self._meta_key(stage, fingerprint)
        if not self._dir.put_if_absent(payload_key, payload):
            # The entry being replaced was already reported corrupt by
            # the verify/load that sent the runner here.
            existing = self._verified_bytes(stage, fingerprint, report_corrupt=False)
            if (
                existing is not None
                and existing[1].payload_sha256 == record.payload_sha256
            ):
                # Another worker won the race with the same bytes:
                # dedupe — adopt its record instead of rewriting.
                self._touch(stage, fingerprint, stored=True)
                return existing[1]
            self._dir.put(payload_key, payload)
        self._dir.put(meta_key, record.to_json().encode("utf-8"))
        self._touch(stage, fingerprint, stored=True)
        tracer = get_tracer()
        if tracer:
            tracer.counter("cache.put", stage=stage)
            tracer.counter("cache.put_bytes", value=record.size_bytes, stage=stage)
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
    # hygiene: access index, size accounting, eviction
    # ------------------------------------------------------------------
    @property
    def index_path(self) -> Path:
        return self.root / INDEX_FILENAME

    def _read_index(self) -> Dict[str, float]:
        """``"stage/fingerprint" -> last-used epoch seconds`` (best effort)."""
        try:
            raw = self._dir.get(INDEX_FILENAME)
        except OSError:
            return {}
        if raw is None:
            return {}
        try:
            data = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            return {}
        entries = data.get("entries") if isinstance(data, dict) else None
        if not isinstance(entries, dict):
            return {}
        return {
            key: float(value)
            for key, value in entries.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }

    def _write_index(self, entries: Dict[str, float]) -> None:
        payload = json.dumps(
            {"layout_version": CACHE_LAYOUT_VERSION, "entries": entries},
            indent=2,
            sort_keys=True,
        )
        self._dir.put(INDEX_FILENAME, payload.encode("utf-8"))

    @contextlib.contextmanager
    def _index_locked(self) -> Iterator[bool]:
        """Hold both index locks for one read-modify-write: the
        class-level thread lock and the directory's ``flock``.  Yields
        ``False`` (lock skipped) when the thread lock stays busy; a busy
        ``flock`` raises :class:`TimeoutError`.  Both waits are bounded
        by :data:`INDEX_LOCK_TIMEOUT_SECONDS`."""
        if not self._index_lock.acquire(timeout=INDEX_LOCK_TIMEOUT_SECONDS):
            yield False
            return
        try:
            with self._dir.lock(timeout=INDEX_LOCK_TIMEOUT_SECONDS):
                yield True
        finally:
            self._index_lock.release()

    def _touch(self, stage: str, fingerprint: str, stored: bool = False) -> None:
        """Record an access for LRU ordering.

        A plain read access is an O(1) ``os.utime`` bump of the payload
        — cheap enough for every warm cache hit, visible across
        processes.  Only a *store* rewrites the sidecar index (stores
        are amortized by the stage computation they follow); the
        read-modify-write runs under :meth:`_index_locked`, so
        concurrent workers and prunes never interleave their index
        rewrites (a worker/prune race could otherwise resurrect
        just-pruned index entries or drop a fresh store's).

        Both locks are acquired with a *bounded* wait and the touch is
        skipped when they stay busy: a wedged holder must not pass its
        fate on to every healthy sibling that merely wanted to note a
        timestamp.  Recency is advisory by contract; stalling a run for
        it is not.
        """
        try:
            if not stored:
                self._dir.touch(self._payload_key(stage, fingerprint))
                return
            with self._index_locked() as locked:
                if locked:
                    entries = self._read_index()
                    entries[f"{stage}/{fingerprint}"] = time.time()
                    self._write_index(entries)
        except OSError:
            # A read-only or vanished cache, or a lock timeout
            # (TimeoutError is an OSError), must never break the run the
            # touch was bookkeeping for.
            pass

    def _scan_entries(self) -> List[CacheEntry]:
        """Every stored artifact with its actual size and last use.

        Sizes always come from ``stat`` of the files themselves — never
        from the advisory index — so artifacts the index has no entry
        for (written by another process, index lost or stale) are
        reported at their true size instead of being miscounted.  A
        missing metadata sidecar only loses the sidecar's own bytes from
        the total.  ``last_used`` is the newer of the index entry
        (written at store time) and the payload's mtime (bumped by
        :meth:`_touch` on every read).  Entries that vanish mid-scan —
        another process pruning the same cache — are silently skipped:
        hygiene is best-effort by contract, never an error.
        """
        index = self._read_index()
        try:
            stats = dict(self._dir.scan())
        except OSError:
            return []
        entries: List[CacheEntry] = []
        for key in sorted(stats):
            if "/" not in key or not key.endswith(self.PAYLOAD_SUFFIX):
                continue  # the index, foreign top-level files
            stage, name = key.split("/", 1)
            fingerprint = name[: -len(self.PAYLOAD_SUFFIX)]
            payload_stat = stats[key]
            size = payload_stat.st_size
            meta_stat = stats.get(self._meta_key(stage, fingerprint))
            if meta_stat is not None:
                size += meta_stat.st_size
            last_used = max(
                index.get(f"{stage}/{fingerprint}", 0.0), payload_stat.st_mtime
            )
            entries.append(
                CacheEntry(
                    stage=stage,
                    fingerprint=fingerprint,
                    size_bytes=size,
                    last_used=last_used,
                )
            )
        return entries

    def stats(self) -> CacheStats:
        """Per-stage entry counts and byte totals."""
        try:
            # Hygiene entry point: sweep crashed writers' stale temp
            # files while we are here (best effort, like prune's).
            self._dir.collect_orphans()
        except OSError:
            pass
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
        until the cache fits the budget.  ``dry_run`` reports what would
        be removed without touching a file.  Evicting a live entry is
        always safe — the next run that needs it recomputes and
        re-stores it (a cache miss, never an error).  Both bounds must
        be ``>= 0``; zero evicts everything.
        """
        if max_bytes is None and max_age_seconds is None:
            raise ValueError("prune needs max_bytes and/or max_age_seconds")
        for name, bound in (("max_bytes", max_bytes), ("max_age_seconds", max_age_seconds)):
            if bound is not None and bound < 0:
                raise ValueError(f"{name} must be >= 0, got {bound}")
        if now is None:
            now = time.time()
        try:
            temp_files_removed = self._dir.collect_orphans(dry_run=dry_run)
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
        removed_keys = {(entry.stage, entry.fingerprint) for entry in doomed}
        survivors = [
            entry for entry in entries
            if (entry.stage, entry.fingerprint) not in removed_keys
        ]
        if not dry_run and doomed:
            for entry in doomed:
                for key in (
                    self._payload_key(entry.stage, entry.fingerprint),
                    self._meta_key(entry.stage, entry.fingerprint),
                ):
                    try:
                        self._dir.delete(key)
                    except OSError:
                        # Undeletable (permissions, read-only mount):
                        # hygiene is best-effort — keep evicting the rest.
                        pass
            # Bounded like _touch: eviction already happened, the index
            # cleanup is advisory — a wedged lock holder must not stall
            # the prune (stale index entries are ignored by _scan_entries).
            try:
                with self._index_locked() as locked:
                    if locked:
                        index = self._read_index()
                        kept = {f"{e.stage}/{e.fingerprint}" for e in survivors}
                        self._write_index(
                            {key: value for key, value in index.items() if key in kept}
                        )
            except OSError:
                pass
        freed = sum(entry.size_bytes for entry in doomed)
        return PruneReport(
            removed=sorted(doomed, key=lambda e: (e.stage, e.fingerprint)),
            freed_bytes=freed,
            remaining_entries=len(survivors),
            remaining_bytes=total - freed,
            dry_run=dry_run,
            temp_files_removed=temp_files_removed,
        )


def _count_corrupt(stage: str) -> None:
    tracer = get_tracer()
    if tracer:
        tracer.counter("cache.corrupt", stage=stage)
