"""Topology persistence, and the array file it is stored in.

An *array file* is this package's one on-disk format: the substrate store
of :mod:`repro.experiments.common` and :func:`save_topology` both write
it.  In order, it holds

* :data:`MAGIC`;
* the length of the header, 8 bytes little-endian;
* a JSON header: the format version (:data:`FORMAT_VERSION`), a key (the
  store's substrate key; empty for a bare topology), the SHA-256 of
  :func:`payload_digest`, and per array its name, dtype, shape and offset
  into the payload;
* the payload: each array's raw bytes in C order.  The header is padded
  so that the payload, and every array in it, starts at a multiple of
  :data:`ALIGN` bytes.

:func:`write_arrays` and :func:`read_arrays` take a path or an open
file (the substrate generator hands a prefix table from a forked child
to its parent through an unnamed temporary file).  :func:`read_arrays`
takes the file in with one ``read()`` and returns
read-only :func:`numpy.frombuffer` views into that one buffer, once the
format, the key and the digest over every array have checked out.  Only
numeric dtypes are accepted, so nothing is ever unpickled.  The buffer's
data start 16-byte aligned in memory, so the 16-byte file alignment puts
every array on an address its dtype's alignment divides; a coarser file
alignment would buy nothing, as the buffer itself is aligned no further.

A topology is the arrays of :func:`topology_arrays`: a layout version
plus :meth:`ASTopology.adjacency_arrays`.  :func:`load_topology` decodes
them from an array file or from a mapping of arrays (a substrate
store's, say: a substrate file is also a topology archive).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from typing import BinaryIO, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from ..errors import TopologyError
from .graph import ASTopology

#: First bytes of an array file.
MAGIC = b"repro-arrays\n"

#: Layout of an array file (header and payload); part of the store key.
FORMAT_VERSION = 3

#: Layout of :func:`topology_arrays`, stored as their ``topology_version``
#: member.  The array layout is unchanged since version 2; the version is
#: inside the pinned payload digests of ``tests/test_substrate_digests.py``.
LAYOUT_VERSION = 2

#: Alignment, in bytes, of the payload and of each array in it: that of
#: the buffer :func:`read_arrays` reads the file into.  Offsets are read
#: from the header, so files written with another alignment still load.
ALIGN = 16

#: dtype kinds an array file may hold: bool, signed, unsigned, float.
_KINDS = "biuf"

_LENGTH = struct.Struct("<Q")


def payload_digest(arrays: Mapping[str, np.ndarray]) -> str:
    """SHA-256 over every array's name, dtype, shape and bytes, in name
    order.  The bytes are hashed through the buffer protocol, so a
    contiguous array is not copied."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(f"{name}:{array.dtype.str}:{array.shape}\n".encode())
        digest.update(array)
    return digest.hexdigest()


def write_arrays(
    target: Union[str, BinaryIO], arrays: Mapping[str, np.ndarray], key: str = ""
) -> None:
    """Write ``arrays`` (numeric dtypes only) as an array file under
    ``key``: to the path ``target`` atomically (to a temp file, then
    :func:`os.replace`), or into the open binary file ``target`` at its
    position, flushed."""
    entries, blobs, end = [], [], 0
    for name, value in arrays.items():
        array = np.asarray(value)
        if array.dtype.kind not in _KINDS:
            raise ValueError(f"array {name!r} has non-numeric dtype {array.dtype}")
        offset = -(-end // ALIGN) * ALIGN
        entries.append(
            {"name": name, "dtype": array.dtype.str, "shape": list(array.shape),
             "offset": offset}
        )
        blobs.append((offset, np.ascontiguousarray(array)))
        end = offset + array.nbytes
    header = json.dumps({
        "format": FORMAT_VERSION,
        "key": key,
        "digest": payload_digest(arrays),
        "arrays": entries,
    }).encode()
    header += b" " * (-(len(MAGIC) + _LENGTH.size + len(header)) % ALIGN)

    def dump(fh: BinaryIO) -> None:
        fh.write(MAGIC + _LENGTH.pack(len(header)) + header)
        written = 0
        for offset, blob in blobs:
            fh.write(bytes(offset - written))
            fh.write(blob)
            written = offset + blob.nbytes
        fh.flush()

    if not isinstance(target, str):
        dump(target)
        return
    os.makedirs(os.path.dirname(os.path.abspath(target)), exist_ok=True)
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            dump(fh)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def read_arrays(
    source: Union[str, BinaryIO], key: Optional[str] = None
) -> Dict[str, np.ndarray]:
    """The arrays of the array file ``source`` (a path, or a binary file
    open for reading at the file's start): read-only views into one read
    of it.

    Raises :class:`OSError` when the file cannot be read, and
    :class:`TopologyError` when it is not an array file of this format,
    was written under another key than ``key`` (when one is given), or
    its arrays do not match the digest in its header.
    """
    if isinstance(source, str):
        path = source
        with open(path, "rb") as fh:
            data = fh.read()
    else:
        path, data = f"array file {source.name!r}", source.read()
    start = len(MAGIC) + _LENGTH.size
    if not data.startswith(MAGIC) or len(data) < start:
        raise TopologyError(f"{path} is not an array file")
    (size,) = _LENGTH.unpack_from(data, len(MAGIC))
    if start + size > len(data):
        raise TopologyError(f"{path}: header runs past the end")
    try:
        header = json.loads(data[start : start + size])
    except (ValueError, RecursionError) as exc:
        raise TopologyError(f"{path}: unreadable header") from exc
    if not isinstance(header, dict) or header.get("format") != FORMAT_VERSION:
        raise TopologyError(f"{path} is not array-file format {FORMAT_VERSION}")
    if key is not None and header.get("key") != key:
        raise TopologyError(f"{path} holds another key")
    entries = header.get("arrays")
    if not isinstance(entries, list):
        raise TopologyError(f"{path}: header lists no arrays")
    payload = memoryview(data)[start + size :]
    arrays: Dict[str, np.ndarray] = {}
    for entry in entries:
        name, array = _view(payload, entry, path)
        if name in arrays:
            raise TopologyError(f"{path}: array {name!r} listed twice")
        arrays[name] = array
    if header.get("digest") != payload_digest(arrays):
        raise TopologyError(f"{path}: payload does not match its digest")
    return arrays


def _view(payload: memoryview, entry: object, path: str) -> Tuple[str, np.ndarray]:
    """``(name, array)`` of one header entry, a view into ``payload``."""
    if not isinstance(entry, dict):
        raise TopologyError(f"{path}: malformed header entry {entry!r}")
    name, dtype, shape, offset = (entry.get(f) for f in ("name", "dtype", "shape", "offset"))
    if not (
        isinstance(name, str)
        and isinstance(dtype, str)
        and isinstance(shape, list)
        and all(type(d) is int and d >= 0 for d in shape)
        and type(offset) is int
        and offset >= 0
    ):
        raise TopologyError(f"{path}: malformed header entry {entry!r}")
    try:
        kind = np.dtype(dtype)
    except (TypeError, ValueError) as exc:
        raise TopologyError(f"{path}: array {name!r} has unknown dtype {dtype!r}") from exc
    if kind.kind not in _KINDS:
        raise TopologyError(f"{path}: array {name!r} has non-numeric dtype {dtype!r}")
    end = offset + math.prod(shape) * kind.itemsize
    if end > len(payload):
        raise TopologyError(f"{path}: array {name!r} runs past the end")
    return name, np.frombuffer(payload[offset:end], dtype=kind).reshape(shape)


def topology_arrays(topology: ASTopology) -> Dict[str, np.ndarray]:
    """The arrays that store ``topology`` (see :func:`load_topology`)."""
    return {
        "topology_version": np.int64(LAYOUT_VERSION),
        **topology.adjacency_arrays(),
    }


def save_topology(topology: ASTopology, path: str) -> None:
    """Write ``topology`` (its :func:`topology_arrays`) as the array file
    ``path``, with an empty key."""
    write_arrays(path, topology_arrays(topology))


def load_topology(source: Union[str, Mapping[str, np.ndarray]]) -> ASTopology:
    """The topology stored in ``source``: the path of an array file
    holding :func:`topology_arrays` (as :func:`save_topology` and the
    substrate store write), or those arrays themselves.  Equal to the
    stored one, neighbour order included."""
    if isinstance(source, str):
        if not os.path.exists(source):
            raise TopologyError(f"no topology archive at {source}")
        source = read_arrays(source)
    version = source.get("topology_version")
    if version is None or np.shape(version) != () or int(version) != LAYOUT_VERSION:
        raise TopologyError(f"unsupported topology layout version {version}")
    return ASTopology(source)
