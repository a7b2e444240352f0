"""Canonical JSON serialization and a content-addressed artifact cache.

All artifacts are written as canonical JSON — sorted keys, fixed separators,
trailing newline — so identical inputs produce byte-identical files.  A
window's fields are serialized once (``Window.json_fields``) and its
quotient's JSON reuses them.  The
cache keys artifacts by the SHA-256 of their canonical build description and
a cache version, never by filename, so stale entries, and entries written by
older builders, cannot be confused with current ones.  The CLI caches S5
windows only: a Farey window is built faster than it is read back.  The
cache directory comes from the CURVELAB_CACHE environment variable; with no
directory set, caching is disabled, everything is recomputed, and neither
``hashlib`` (it loads OpenSSL, megabytes of memory) nor ``tempfile`` is
imported.  An entry
that cannot be read back as canonical JSON (unreadable, not UTF-8, not
JSON, nested deeper than the decoder recurses, or not canonical) is a miss
and is rebuilt, and entries are written through a temporary file of their
own and renamed into place, so concurrent writers never see each other's
partial output.
"""

from __future__ import annotations

import json
import os
from itertools import islice
from json.encoder import encode_basestring_ascii as json_str
from pathlib import Path
from typing import Any, Callable, Iterable

CACHE_ENV = "CURVELAB_CACHE"
# Hashed into every cache key: raise it whenever a builder's output changes,
# so that entries written by older code are misses.
CACHE_VERSION = 1


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def json_list(items: Iterable[str]) -> str:
    """The JSON array of the nonempty texts ``items``, joined 4096 at a time
    so that a window's vertex and edge strings are never all alive at once."""
    items = iter(items)
    return "[" + ",".join(iter(lambda: ",".join(islice(items, 4096)), "")) + "]"


def json_object(fields: dict[str, str]) -> list[str]:
    """``canonical_json`` of the object with the field texts ``fields``, in pieces."""
    parts = [p for key in sorted(fields) for p in (",", json_str(key), ":", fields[key])]
    return ["{", *parts[1:], "}\n"]  # no separator before the first field


def content_hash(obj) -> str:
    """The cache key of obj: SHA-256 of its canonical JSON and CACHE_VERSION."""
    import hashlib
    return hashlib.sha256(canonical_json([CACHE_VERSION, obj]).encode()).hexdigest()


def cache_dir() -> Path | None:
    path = os.environ.get(CACHE_ENV)
    return Path(path) if path else None


def cached_json(key_obj, produce: Callable[[], str]) -> Any:
    """The JSON value whose canonical text ``produce`` returns, via the cache.

    ``key_obj`` is any JSON-able description of the computation; the cache
    file is named by its content hash and holds the produced text.  A hit
    hands back the value decoded while checking that the entry is
    canonical, so it is decoded once; a miss decodes the text it writes.
    """
    directory = cache_dir()
    if directory is None:
        return json.loads(produce())
    import tempfile
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{content_hash(key_obj)}.json"
    try:
        text = path.read_text()
        value = json.loads(text)
        if canonical_json(value) == text:
            return value
    except (OSError, ValueError, RecursionError):
        pass
    text = produce()
    with tempfile.NamedTemporaryFile(
        "w", dir=directory, prefix=f"{path.stem}.", suffix=".tmp", delete=False
    ) as tmp:
        try:
            tmp.write(text)
            tmp.close()
            os.replace(tmp.name, path)
        except OSError:
            os.unlink(tmp.name)
            raise
    return json.loads(text)
