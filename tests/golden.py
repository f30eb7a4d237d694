"""Canonical JSON and digests for the committed golden fixtures.

The golden tests compare live results with values a retired code path
computed once and wrote to ``tests/fixtures``.  Large results are kept
as the SHA-256 of their canonical JSON; this module is the one encoding
both the writer and the tests use.

``canonical`` turns a result into plain JSON values: an enum becomes
its name, a tuple (named or not) and a list a list, a prefix its text, an
AS path the list of its hops, a date its ISO form, a dataclass the dict
of the fields its equality compares (a ``compare=False`` memo is left
out), and a mapping the list of its ``[key, value]`` pairs sorted by
encoded key, so two equal mappings encode alike whatever their insertion
order.
"""

from __future__ import annotations

import dataclasses
import datetime
import enum
import hashlib
import json
from pathlib import Path
from typing import Any, Mapping

from repro.bgp.attributes import ASPath
from repro.bgp.prefixes import Prefix

FIXTURES = Path(__file__).parent / "fixtures"


def canonical(value: Any) -> Any:
    """``value`` as plain JSON values (see the module docstring)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, Prefix):
        return str(value)
    if isinstance(value, ASPath):
        return list(value.hops)
    if isinstance(value, datetime.date):
        return value.isoformat()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
            if field.compare
        }
    if isinstance(value, Mapping):
        pairs = [[canonical(key), canonical(item)] for key, item in value.items()]
        return sorted(pairs, key=lambda pair: dumps(pair[0]))
    if isinstance(value, (tuple, list)):
        return [canonical(item) for item in value]
    raise TypeError(f"no canonical form for {type(value).__name__}")


def dumps(value: Any) -> str:
    """Canonical JSON text of already-encoded values."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(value: Any) -> str:
    """SHA-256 of ``value``'s canonical JSON."""
    return hashlib.sha256(dumps(canonical(value)).encode()).hexdigest()


def load(name: str) -> Any:
    """A committed fixture."""
    return json.loads((FIXTURES / name).read_text())


def write(name: str, payload: Any) -> Path:
    """Write a fixture as indented, key-sorted JSON."""
    path = FIXTURES / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
