"""Exhaustive round-trip and malformed-input tests for the wire codec."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.guid import GUID_BITS, MAX_LOCATORS
from repro.errors import WireProtocolError
from repro.net.protocol import (
    ERR_MALFORMED,
    HEADER_SIZE,
    MAGIC,
    STATUS_MISS,
    STATUS_OK,
    T_INSERT,
    T_LOOKUP,
    T_UPDATE,
    WIRE_VERSION,
    ErrorFrame,
    LookupFrame,
    ResponseFrame,
    WriteFrame,
    decode,
    encode,
)

MAX_GUID = (1 << GUID_BITS) - 1
U32 = (1 << 32) - 1
U64 = (1 << 64) - 1


def frames_exhaustive():
    """Representative frames covering every type and boundary."""
    return [
        LookupFrame(trace_id=0, guid_value=0, source_asn=0),
        LookupFrame(
            trace_id=U64,
            guid_value=MAX_GUID,
            source_asn=U32,
            k_index=255,
        ),
        WriteFrame(trace_id=1, guid_value=2, source_asn=3, locators=()),
        WriteFrame(
            trace_id=7,
            guid_value=MAX_GUID,
            source_asn=42,
            ftype=T_UPDATE,
            version=U32,
            timestamp=123456.789,
            locators=tuple(range(MAX_LOCATORS)),
        ),
        ResponseFrame(
            trace_id=9,
            guid_value=5,
            source_asn=17,
            status=STATUS_MISS,
            request_type=T_LOOKUP,
            served_by=U32,
        ),
        ResponseFrame(
            trace_id=10,
            guid_value=6,
            source_asn=18,
            k_index=4,
            status=STATUS_OK,
            request_type=T_INSERT,
            served_by=1234,
            version=3,
            timestamp=0.25,
            locators=(0, U32),
        ),
        ErrorFrame(trace_id=11, guid_value=7, source_asn=19, message=""),
        ErrorFrame(
            trace_id=12,
            guid_value=8,
            source_asn=20,
            code=ERR_MALFORMED,
            message="héllo wörld ☃",
        ),
    ]


class TestRoundTrip:
    @pytest.mark.parametrize("frame", frames_exhaustive())
    def test_exact_round_trip(self, frame):
        assert decode(encode(frame)) == frame

    def test_header_layout(self):
        data = encode(LookupFrame(trace_id=0, guid_value=0, source_asn=0))
        assert len(data) == HEADER_SIZE == 37
        assert data[:2] == MAGIC
        assert data[2] == WIRE_VERSION == 2
        assert data[3] == T_LOOKUP

    def test_header_field_offsets(self):
        """k_index, trace_id, guid and source_asn sit at bytes 4, 5, 13
        and 33 of the 37-byte header."""
        data = encode(
            LookupFrame(
                trace_id=0x0102030405060708,
                guid_value=MAX_GUID,
                source_asn=0xA0B0C0D0,
                k_index=255,
            )
        )
        assert data[4] == 255
        assert data[5:13] == bytes(range(1, 9))
        assert data[13:33] == b"\xff" * 20
        assert data[33:37] == bytes([0xA0, 0xB0, 0xC0, 0xD0])

    def test_seeded_fuzz_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            frame = WriteFrame(
                trace_id=int(rng.integers(0, 1 << 63)),
                guid_value=int(rng.integers(0, 1 << 62)),
                source_asn=int(rng.integers(0, U32)),
                k_index=int(rng.integers(0, 256)),
                ftype=T_UPDATE if rng.integers(0, 2) else T_INSERT,
                version=int(rng.integers(0, U32)),
                timestamp=float(rng.uniform(0, 1e9)),
                locators=tuple(
                    int(v)
                    for v in rng.integers(0, U32, size=int(rng.integers(0, MAX_LOCATORS + 1)))
                ),
            )
            assert decode(encode(frame)) == frame

    def test_distinct_frames_encode_distinctly(self):
        blobs = {encode(f) for f in frames_exhaustive()}
        assert len(blobs) == len(frames_exhaustive())


class TestEncodeValidation:
    def test_rejects_out_of_range_guid(self):
        with pytest.raises(WireProtocolError):
            encode(LookupFrame(trace_id=0, guid_value=MAX_GUID + 1, source_asn=0))

    def test_rejects_negative_fields(self):
        with pytest.raises(WireProtocolError):
            encode(LookupFrame(trace_id=-1, guid_value=0, source_asn=0))

    def test_rejects_oversized_byte_fields(self):
        with pytest.raises(WireProtocolError):
            encode(LookupFrame(trace_id=0, guid_value=0, source_asn=0, k_index=256))

    def test_rejects_too_many_locators(self):
        frame = WriteFrame(
            trace_id=0,
            guid_value=0,
            source_asn=0,
            locators=tuple(range(MAX_LOCATORS + 1)),
        )
        with pytest.raises(WireProtocolError):
            encode(frame)

    def test_rejects_out_of_range_locator(self):
        frame = WriteFrame(
            trace_id=0, guid_value=0, source_asn=0, locators=(U32 + 1,)
        )
        with pytest.raises(WireProtocolError):
            encode(frame)

    def test_rejects_class_ftype_mismatch(self):
        with pytest.raises(WireProtocolError):
            encode(LookupFrame(trace_id=0, guid_value=0, source_asn=0, ftype=T_INSERT))

    def test_rejects_huge_error_message(self):
        frame = ErrorFrame(
            trace_id=0, guid_value=0, source_asn=0, message="x" * 70_000
        )
        with pytest.raises(WireProtocolError):
            encode(frame)


class TestDecodeValidation:
    def test_rejects_bad_magic(self):
        data = bytearray(encode(LookupFrame(trace_id=0, guid_value=0, source_asn=0)))
        data[0:2] = b"XX"
        with pytest.raises(WireProtocolError, match="magic"):
            decode(bytes(data))

    def test_rejects_unknown_version(self):
        data = bytearray(encode(LookupFrame(trace_id=0, guid_value=0, source_asn=0)))
        data[2] = WIRE_VERSION + 1
        with pytest.raises(WireProtocolError, match="version"):
            decode(bytes(data))

    def test_rejects_version_1_frame(self):
        """A version-1 frame (the old 40-byte header) is refused, not
        reinterpreted."""
        data = bytearray(encode(LookupFrame(trace_id=0, guid_value=0, source_asn=0)))
        data[2] = 1
        with pytest.raises(WireProtocolError, match="version"):
            decode(bytes(data) + b"\x00" * 3)

    def test_rejects_unknown_frame_type(self):
        data = bytearray(encode(LookupFrame(trace_id=0, guid_value=0, source_asn=0)))
        data[3] = 99
        with pytest.raises(WireProtocolError, match="unknown frame type"):
            decode(bytes(data))

    @pytest.mark.parametrize("frame", frames_exhaustive())
    def test_every_truncation_rejected(self, frame):
        data = encode(frame)
        for cut in range(len(data)):
            with pytest.raises(WireProtocolError):
                decode(data[:cut])

    @pytest.mark.parametrize("frame", frames_exhaustive())
    def test_trailing_bytes_rejected(self, frame):
        with pytest.raises(WireProtocolError, match="trailing"):
            decode(encode(frame) + b"\x00")

    def test_rejects_oversized_locator_count(self):
        data = bytearray(
            encode(
                WriteFrame(trace_id=0, guid_value=0, source_asn=0, locators=(1,))
            )
        )
        # The locator-count byte sits at the end of the write head.
        data[HEADER_SIZE + 12] = MAX_LOCATORS + 1
        with pytest.raises(WireProtocolError):
            decode(bytes(data))

    def test_rejects_undecodable_error_message(self):
        data = bytearray(
            encode(ErrorFrame(trace_id=0, guid_value=0, source_asn=0, message="ab"))
        )
        data[-2:] = b"\xff\xfe"
        with pytest.raises(WireProtocolError, match="undecodable"):
            decode(bytes(data))

    def test_empty_datagram_rejected(self):
        with pytest.raises(WireProtocolError, match="truncated"):
            decode(b"")
