"""Crash-safe cache of built fixtures: build in a temp dir, publish with
one rename.

An artifact is a directory.  :func:`publish` fills a fresh sibling temp
dir with ``build(tmp)``, writes the marker inside it and renames it into
place, so a reader sees either no artifact or a complete one: a build
that raises publishes nothing, and a process that loses a publish race
drops its temp dir and returns the winner's path.  A dir is reused only
when its marker holds the caller's key.  The resumable run's ``_input``
layout follows the same rule (``pipelines/runner.py``).

:func:`cached` names the dir under ``ROOT`` by :func:`key`: the build
parameters, the bytes of the source modules the artifact depends on, and
an input signature the caller passes in (:func:`stat_sig`, or the input's
bytes where only its content may decide).  :func:`cached_parquet` is the
one-table case.

Standard library only at module level: query modules import this when
they are imported.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile

ROOT = "/tmp/pytorchocr_ray_cache"
MARKER = "_SUCCESS"


def stat_sig(*paths: str) -> str:
    """Input signature of files: the path, size and mtime of each file, a
    directory standing for the files in it."""
    parts = []
    for p in paths:
        files = sorted(os.path.join(p, f) for f in os.listdir(p)) if os.path.isdir(p) else [p]
        for f in files:
            st = os.stat(f)
            parts.append(f"{os.path.abspath(f)}:{st.st_size}:{st.st_mtime_ns}")
    return "|".join(parts)


def key(params, sources=(), inputs: str | bytes = "") -> str:
    """Digest of ``repr(params)``, the bytes of each source (a module or a
    file path) and ``inputs``."""
    h = hashlib.sha256(repr(params).encode())
    for src in sources:
        with open(getattr(src, "__file__", src), "rb") as f:
            h.update(f.read())
    h.update(inputs if isinstance(inputs, bytes) else inputs.encode())
    return h.hexdigest()[:16]


def _holds(path: str, stamp: str) -> bool:
    try:
        with open(os.path.join(path, MARKER)) as f:
            return f.read() == stamp
    except FileNotFoundError:
        return False


def publish(path: str, build, stamp: str) -> str:
    """Return ``path``, first building it unless its marker holds ``stamp``.

    ``path`` may exist as an empty dir (rename replaces it); any other
    content without a matching marker raises instead of being reused or
    overwritten."""
    if _holds(path, stamp):
        return path
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=os.path.basename(path) + ".tmp-", dir=parent)
    try:
        build(tmp)
        with open(os.path.join(tmp, MARKER), "w") as f:
            f.write(stamp)
        try:
            os.rename(tmp, path)
        except OSError:  # lost a publish race, or ``path`` holds another build
            if not _holds(path, stamp):
                raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return path


def cached(name: str, build, params, sources=(), inputs: str | bytes = "") -> str:
    """The dir ``ROOT/name/<key>`` holding ``build``'s output."""
    k = key(params, sources, inputs)
    return publish(os.path.join(ROOT, name, k), build, k)


def cached_parquet(name: str, make_table, params, sources=(), inputs: str | bytes = "") -> str:
    """The file ``<name>.parquet`` of ``make_table()``, in its :func:`cached` dir."""
    import pyarrow.parquet as pq

    file = f"{name}.parquet"

    def build(d: str) -> None:
        pq.write_table(make_table(), os.path.join(d, file))

    return os.path.join(cached(name, build, params, sources, inputs), file)
