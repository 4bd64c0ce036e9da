"""The serving-artifact container: one versioned file of JSON doc + array pages.

A ``.pipeline`` artifact reuses the layout idiom of the table persistence
format (:mod:`repro.relational.persist`): a small magic/version prefix, a JSON
header, then 64-byte-aligned binary pages — here one page per named numpy
array (estimator node arrays, fitted imputation codes, frequency tables).
The JSON header carries the pipeline document plus, per page, its name,
extent, dtype and shape, so ``inspect`` tooling can describe an artifact
without touching a page.

Writes are atomic (uniquely-named temp sibling + ``os.replace``, shared with
the table format via :func:`repro.relational.persist.atomic_replace`).
Reading an artifact written by a different format version raises
:class:`ArtifactError` — serving must fail loudly rather than mis-replay a
pipeline whose on-disk layout it does not understand.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.relational.persist import atomic_replace

MAGIC = b"RPROPIPA"
ARTIFACT_VERSION = 1
_ALIGN = 64
_PREFIX_LEN = len(MAGIC) + 8  # magic + uint32 version + uint32 header length
_FORMAT = "arda-fitted-pipeline"

# dtypes allowed in pages; anything else (notably object arrays) must be
# encoded into the JSON doc by the caller
_ALLOWED_DTYPES = {"<f8", "<i8", "<i4", "|u1"}


class ArtifactError(ValueError):
    """A pipeline artifact is unreadable: bad magic, wrong version, truncation."""


def _align(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


def write_artifact(path: str | Path, doc: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write ``doc`` plus named ``arrays`` to ``path`` atomically.

    ``doc`` must be JSON-serialisable; array dtypes are normalised to the
    little-endian on-disk forms (float64 / int64 / int32 / uint8).
    """
    path = Path(path)
    pages: list[bytes] = []
    page_docs: list[dict] = []
    rel = 0
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        dtype = array.dtype.newbyteorder("<").str
        if dtype == "|i1":
            dtype = "|u1"
        if dtype not in _ALLOWED_DTYPES:
            raise TypeError(
                f"page {name!r} has unsupported dtype {array.dtype}; "
                f"allowed: {sorted(_ALLOWED_DTYPES)}"
            )
        payload = array.astype(dtype, copy=False).tobytes()
        page_docs.append(
            {
                "name": name,
                "offset": rel,
                "nbytes": len(payload),
                "dtype": dtype,
                "shape": list(array.shape),
            }
        )
        pages.append(payload)
        rel += len(payload)
        pad = _align(rel) - rel
        if pad:
            pages.append(b"\x00" * pad)
            rel += pad

    header_doc = {"format": _FORMAT, "version": ARTIFACT_VERSION, "doc": doc, "pages": page_docs}
    header_bytes = json.dumps(header_doc, separators=(",", ":")).encode("utf-8")
    pages_start = _align(_PREFIX_LEN + len(header_bytes))

    def write_to(handle):
        handle.write(MAGIC)
        handle.write(ARTIFACT_VERSION.to_bytes(4, "little"))
        handle.write(len(header_bytes).to_bytes(4, "little"))
        handle.write(header_bytes)
        handle.write(b"\x00" * (pages_start - _PREFIX_LEN - len(header_bytes)))
        for payload in pages:
            handle.write(payload)

    atomic_replace(path, write_to)


def _parse_header(prefix: bytes, read_header, label) -> dict:
    """Validate the magic/version ``prefix`` and parse the JSON header that
    ``read_header(length)`` returns."""
    if len(prefix) < _PREFIX_LEN or prefix[: len(MAGIC)] != MAGIC:
        raise ArtifactError(f"{label}: not a pipeline artifact (bad magic)")
    version = int.from_bytes(prefix[len(MAGIC) : len(MAGIC) + 4], "little")
    if version != ARTIFACT_VERSION:
        raise ArtifactError(
            f"{label}: unsupported artifact version {version} "
            f"(this build reads version {ARTIFACT_VERSION})"
        )
    header_len = int.from_bytes(prefix[len(MAGIC) + 4 : _PREFIX_LEN], "little")
    header_bytes = read_header(header_len)
    if len(header_bytes) < header_len:
        raise ArtifactError(f"{label}: truncated header")
    try:
        header = json.loads(header_bytes)
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{label}: corrupt header JSON: {exc}") from None
    if header.get("format") != _FORMAT:
        raise ArtifactError(f"{label}: not a {_FORMAT} artifact")
    header["_pages_start"] = _align(_PREFIX_LEN + header_len)
    return header


def read_artifact_header(path: str | Path) -> dict:
    """Read and validate only the JSON header of an artifact.

    Returns the full header document (``doc`` + ``pages`` metadata) without
    touching any page — the cost of ``python -m repro inspect``.
    """
    path = Path(path)
    with path.open("rb") as handle:
        return _parse_header(handle.read(_PREFIX_LEN), handle.read, path)


def read_artifact(source: str | Path | bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """Load an artifact written by :func:`write_artifact`.

    ``source`` is a path, read once, or the artifact's bytes (what a caller
    that also hashes the artifact read).  Returns ``(doc, arrays)``; every
    page is validated against the artifact's size before it is read, so a
    truncated artifact raises :class:`ArtifactError` instead of returning
    short arrays.
    """
    if isinstance(source, (bytes, bytearray, memoryview)):
        data, label = memoryview(source), "artifact bytes"
    else:
        data, label = memoryview(Path(source).read_bytes()), source
    header = _parse_header(
        bytes(data[:_PREFIX_LEN]),
        lambda length: bytes(data[_PREFIX_LEN : _PREFIX_LEN + length]),
        label,
    )
    pages_start = header["_pages_start"]
    arrays: dict[str, np.ndarray] = {}
    for page in header["pages"]:
        start = pages_start + page["offset"]
        if start + page["nbytes"] > len(data):
            raise ArtifactError(
                f"{label}: truncated page {page['name']!r} "
                f"({len(data)} bytes, page ends at {start + page['nbytes']})"
            )
        raw = bytearray(data[start : start + page["nbytes"]])
        array = np.frombuffer(raw, dtype=np.dtype(page["dtype"]))
        arrays[page["name"]] = array.reshape(page["shape"])
    return header["doc"], arrays
