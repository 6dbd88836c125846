"""The DMap wire protocol: a compact, versioned binary frame codec.

Every message between a querying gateway and a hosting AS is one UDP
datagram carrying one frame.  A frame is a fixed 37-byte header followed
by a type-specific payload, all big-endian:

===========  =====  ====================================================
field        bytes  meaning
===========  =====  ====================================================
magic        2      ``b"DM"`` — rejects cross-protocol traffic early
version      1      wire schema version (:data:`WIRE_VERSION`)
type         1      LOOKUP / INSERT / UPDATE / RESPONSE / ERROR
k_index      1      hash index of the replica this exchange asks; the
                    client asks each replica once, so it keys the exchange
trace_id     8      per-query id correlating requests, responses, and
                    :mod:`repro.obs` traces
guid         20     the 160-bit identifier (§IV-A width)
source_asn   4      AS of the original querier (latency shaping key)
===========  =====  ====================================================

Payloads:

* **LOOKUP** — empty.
* **INSERT / UPDATE** (:class:`WriteFrame`) — mapping version (u32),
  timestamp (f64 ms), locator count (u8), then 32-bit locators.
* **RESPONSE** (:class:`ResponseFrame`) — status (u8), echoed request
  type (u8), serving AS (u32), mapping version (u32), timestamp (f64),
  locator count (u8), locators.
* **ERROR** (:class:`ErrorFrame`) — error code (u8), UTF-8 message
  (u16 length prefix).

The codec is pure and event-loop-free: :func:`encode` /
:func:`decode` round-trip exactly (tested exhaustively), and every
malformed input raises :class:`~repro.errors.WireProtocolError` rather
than propagating a :mod:`struct` error.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Tuple, Union

from ..core.guid import GUID_BITS, MAX_LOCATORS
from ..errors import WireProtocolError

#: Leading bytes of every frame.
MAGIC = b"DM"

#: Bumped when the frame layout changes shape.
WIRE_VERSION = 2

#: Frame types.
T_LOOKUP = 1
T_INSERT = 2
T_UPDATE = 3
T_RESPONSE = 4
T_ERROR = 5

#: Response status codes.
STATUS_OK = 0
STATUS_MISS = 1

#: Error codes.
ERR_MALFORMED = 1

_HEADER = struct.Struct(">2sBBBQ20sI")
HEADER_SIZE = _HEADER.size  # 37 bytes

_WRITE_HEAD = struct.Struct(">IdB")
_RESPONSE_HEAD = struct.Struct(">BBIIdB")
_ERROR_HEAD = struct.Struct(">BH")
_LOCATOR = struct.Struct(">I")

#: Wire GUID width: 20 bytes = the paper's 160-bit identifiers.
GUID_WIRE_BYTES = GUID_BITS // 8

_U8 = (1 << 8) - 1
_U32 = (1 << 32) - 1
_U64 = (1 << 64) - 1


def seeded_unit(fmt: str, *fields: int) -> float:
    """A replayable uniform draw in [0, 1): the first 8 bytes of the
    SHA-256 of ``struct.pack(fmt, *fields)``, read as a big-endian
    fraction.  Callers mask each field to its packed width."""
    digest = hashlib.sha256(struct.pack(fmt, *fields)).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class _Head:
    """Fields shared by every frame type."""

    trace_id: int
    guid_value: int
    source_asn: int
    k_index: int = 0


@dataclass(frozen=True)
class LookupFrame(_Head):
    """A GUID Lookup request (empty payload)."""

    ftype: int = T_LOOKUP


@dataclass(frozen=True)
class WriteFrame(_Head):
    """A GUID Insert or Update request (§III-A processes them alike)."""

    ftype: int = T_INSERT
    version: int = 0
    timestamp: float = 0.0
    locators: Tuple[int, ...] = ()


@dataclass(frozen=True)
class ResponseFrame(_Head):
    """The answer a hosting AS sends back for any request."""

    ftype: int = T_RESPONSE
    status: int = STATUS_OK
    request_type: int = T_LOOKUP
    served_by: int = 0
    version: int = 0
    timestamp: float = 0.0
    locators: Tuple[int, ...] = ()


@dataclass(frozen=True)
class ErrorFrame(_Head):
    """A protocol-level rejection of a malformed datagram."""

    ftype: int = T_ERROR
    code: int = ERR_MALFORMED
    message: str = ""


Frame = Union[LookupFrame, WriteFrame, ResponseFrame, ErrorFrame]


def _check_range(name: str, value: int, limit: int) -> int:
    if not 0 <= value <= limit:
        raise WireProtocolError(f"{name} {value!r} out of wire range [0, {limit}]")
    return value


def _check_locators(locators: Tuple[int, ...]) -> Tuple[int, ...]:
    if len(locators) > MAX_LOCATORS:
        raise WireProtocolError(
            f"at most {MAX_LOCATORS} locators per frame, got {len(locators)}"
        )
    for locator in locators:
        _check_range("locator", locator, _U32)
    return locators


def encode(frame: Frame) -> bytes:
    """Serialize a frame into one datagram payload."""
    ftype = frame.ftype
    expected = {
        LookupFrame: (T_LOOKUP,),
        WriteFrame: (T_INSERT, T_UPDATE),
        ResponseFrame: (T_RESPONSE,),
        ErrorFrame: (T_ERROR,),
    }.get(type(frame))
    if expected is None:
        raise WireProtocolError(f"cannot encode {type(frame).__name__}")
    if ftype not in expected:
        raise WireProtocolError(
            f"{type(frame).__name__} cannot carry frame type {ftype!r}"
        )
    guid_value = _check_range("guid", frame.guid_value, (1 << GUID_BITS) - 1)
    header = _HEADER.pack(
        MAGIC,
        WIRE_VERSION,
        ftype,
        _check_range("k_index", frame.k_index, _U8),
        _check_range("trace_id", frame.trace_id, _U64),
        guid_value.to_bytes(GUID_WIRE_BYTES, "big"),
        _check_range("source_asn", frame.source_asn, _U32),
    )
    if isinstance(frame, LookupFrame):
        return header
    if isinstance(frame, WriteFrame):
        locators = _check_locators(frame.locators)
        body = _WRITE_HEAD.pack(
            _check_range("version", frame.version, _U32),
            float(frame.timestamp),
            len(locators),
        )
        return header + body + b"".join(_LOCATOR.pack(loc) for loc in locators)
    if isinstance(frame, ResponseFrame):
        locators = _check_locators(frame.locators)
        body = _RESPONSE_HEAD.pack(
            _check_range("status", frame.status, _U8),
            _check_range("request_type", frame.request_type, _U8),
            _check_range("served_by", frame.served_by, _U32),
            _check_range("version", frame.version, _U32),
            float(frame.timestamp),
            len(locators),
        )
        return header + body + b"".join(_LOCATOR.pack(loc) for loc in locators)
    if isinstance(frame, ErrorFrame):
        message = frame.message.encode("utf-8")
        if len(message) > 0xFFFF:
            raise WireProtocolError("error message exceeds 65535 UTF-8 bytes")
        body = _ERROR_HEAD.pack(_check_range("code", frame.code, _U8), len(message))
        return header + body + message
    raise WireProtocolError(f"cannot encode {type(frame).__name__}")


def _need(data: bytes, offset: int, n: int, what: str) -> None:
    if len(data) < offset + n:
        raise WireProtocolError(
            f"truncated frame: need {offset + n} bytes for {what}, got {len(data)}"
        )


def _decode_locators(data: bytes, offset: int, count: int) -> Tuple[int, ...]:
    if count > MAX_LOCATORS:
        raise WireProtocolError(f"locator count {count} exceeds {MAX_LOCATORS}")
    _need(data, offset, count * _LOCATOR.size, "locators")
    out = []
    for i in range(count):
        out.append(_LOCATOR.unpack_from(data, offset + i * _LOCATOR.size)[0])
    return tuple(out)


def decode(data: bytes) -> Frame:
    """Parse one datagram payload back into a frame.

    Raises
    ------
    WireProtocolError
        On bad magic, unsupported version, unknown type, truncation,
        or trailing bytes — every way a datagram can be malformed.
    """
    _need(data, 0, HEADER_SIZE, "header")
    (
        magic,
        version,
        ftype,
        k_index,
        trace_id,
        guid_bytes,
        source_asn,
    ) = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise WireProtocolError(f"bad magic {magic!r}")
    if version != WIRE_VERSION:
        raise WireProtocolError(
            f"unsupported wire version {version} (speak {WIRE_VERSION})"
        )
    head = dict(
        trace_id=trace_id,
        guid_value=int.from_bytes(guid_bytes, "big"),
        source_asn=source_asn,
        k_index=k_index,
    )
    offset = HEADER_SIZE
    if ftype == T_LOOKUP:
        frame: Frame = LookupFrame(**head)
    elif ftype in (T_INSERT, T_UPDATE):
        _need(data, offset, _WRITE_HEAD.size, "write payload")
        version_no, timestamp, n_loc = _WRITE_HEAD.unpack_from(data, offset)
        offset += _WRITE_HEAD.size
        locators = _decode_locators(data, offset, n_loc)
        offset += n_loc * _LOCATOR.size
        frame = WriteFrame(
            ftype=ftype,
            version=version_no,
            timestamp=timestamp,
            locators=locators,
            **head,
        )
    elif ftype == T_RESPONSE:
        _need(data, offset, _RESPONSE_HEAD.size, "response payload")
        (
            status,
            request_type,
            served_by,
            version_no,
            timestamp,
            n_loc,
        ) = _RESPONSE_HEAD.unpack_from(data, offset)
        offset += _RESPONSE_HEAD.size
        locators = _decode_locators(data, offset, n_loc)
        offset += n_loc * _LOCATOR.size
        frame = ResponseFrame(
            status=status,
            request_type=request_type,
            served_by=served_by,
            version=version_no,
            timestamp=timestamp,
            locators=locators,
            **head,
        )
    elif ftype == T_ERROR:
        _need(data, offset, _ERROR_HEAD.size, "error payload")
        code, msg_len = _ERROR_HEAD.unpack_from(data, offset)
        offset += _ERROR_HEAD.size
        _need(data, offset, msg_len, "error message")
        try:
            message = data[offset : offset + msg_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireProtocolError(f"undecodable error message: {exc}") from exc
        offset += msg_len
        frame = ErrorFrame(code=code, message=message, **head)
    else:
        raise WireProtocolError(f"unknown frame type {ftype}")
    if len(data) != offset:
        raise WireProtocolError(
            f"{len(data) - offset} trailing bytes after a complete frame"
        )
    return frame
