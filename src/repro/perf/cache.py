"""Content-hashed experiment result cache.

``repro-experiments --all`` recomputes every table and figure from
scratch on each invocation even when nothing changed.  This module keys
each :class:`~repro.experiments.reporting.ExperimentResult` on

- the experiment name,
- the parameters it ran with (``method`` and any overrides), and
- a *code fingerprint*: one SHA-256 over the contents of every Python
  source file in the ``repro`` package,

so a warm rerun returns pickled results instantly while any source edit
-- anywhere in the package, since experiments reach across most of it --
invalidates the whole cache at once.  Conservative by design: a stale
table is worse than a recomputed one.

Invalidation, in increasing order of force: edit any file under
``src/repro`` (automatic), run with ``--no-cache`` (bypass), or delete
the cache directory (default ``.repro-cache/``, override with
``--cache-dir`` or ``REPRO_CACHE_DIR``).
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path
from typing import Any, Dict, Optional

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 over every ``*.py`` file of the installed ``repro`` package.

    Computed once per process; file contents (not mtimes) feed the hash,
    so rebuilding or re-checking-out identical sources keeps the cache
    warm.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


def default_cache_dir() -> Path:
    """The cache directory honouring :data:`CACHE_DIR_ENV`."""
    return Path(os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR))


class ResultCache:
    """Pickle-backed store of experiment results keyed by content hash."""

    def __init__(self, directory: Optional[Path] = None):
        self.directory = Path(directory) if directory is not None else default_cache_dir()

    def key(self, name: str, params: Optional[Dict[str, Any]] = None) -> str:
        """Cache key for ``name`` run with ``params`` under current code."""
        digest = hashlib.sha256()
        digest.update(code_fingerprint().encode())
        digest.update(name.encode())
        for param in sorted(params or {}):
            digest.update(f"\0{param}={(params or {})[param]!r}".encode())
        return f"{name}-{digest.hexdigest()[:32]}"

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pickle"

    def get(self, key: str) -> Optional[Any]:
        """The cached value for ``key``, or None (corrupt entries ignored)."""
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:
            # A truncated or version-skewed pickle: drop it and recompute.
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key``, crash-safely and best-effort.

        The entry is pickled to a per-process temp file, fsync'd, and
        atomically renamed into place: a crash (or a concurrent writer)
        at any point leaves either the old entry or the new one, never a
        truncated pickle a later :meth:`get` would have to repair.  A
        failed write (full or read-only disk) cleans up its temp file
        and is swallowed -- the cache is an accelerator, not a
        dependency, so the caller's results must never be lost to a
        cache-write error.
        """
        path = self._path(key)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
