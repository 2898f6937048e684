"""Frame codec: byte-exact examples and randomized round-trip properties."""

import random

import pytest

from gridbed.modbus import frames
from gridbed.modbus.frames import (
    ExceptionResponse,
    FrameError,
    MbapHeader,
    ReadCoilsRequest,
    ReadCoilsResponse,
    ReadHoldingRequest,
    ReadHoldingResponse,
    WriteCoilRequest,
    WriteCoilsRequest,
    WriteCoilsResponse,
    WriteRegisterRequest,
    WriteRegistersRequest,
    WriteRegistersResponse,
    decode_frame,
    decode_request,
    decode_response,
    encode_frame,
    encode_pdu,
)


def test_read_holding_frame_bytes():
    pdu = encode_pdu(ReadHoldingRequest(start=0, count=2))
    frame = encode_frame(MbapHeader(transaction_id=1, unit_id=1), pdu)
    assert frame == bytes.fromhex("000100000006010300000002")


def test_write_coil_pdu_bytes():
    # coil wire address 6 (coil number 7), ON
    assert encode_pdu(WriteCoilRequest(6, 0xFF00)) == bytes.fromhex("050006FF00")


def test_truncated_frame_is_short_frame_error():
    with pytest.raises(FrameError, match="short frame"):
        decode_frame(bytes.fromhex("0001000000"))


def test_bad_protocol_id_rejected():
    frame = bytearray(encode_frame(MbapHeader(1, 1), encode_pdu(ReadHoldingRequest(0, 1))))
    frame[2] = 0x12
    with pytest.raises(FrameError, match="protocol"):
        decode_frame(bytes(frame))


def test_length_mismatch_rejected():
    frame = bytearray(encode_frame(MbapHeader(1, 1), encode_pdu(ReadHoldingRequest(0, 1))))
    frame[5] = 99
    with pytest.raises(FrameError, match="length"):
        decode_frame(bytes(frame))


def test_unknown_function_rejected():
    frame = encode_frame(MbapHeader(1, 1), bytes([0x2B, 0x00]))
    with pytest.raises(FrameError, match="unknown function"):
        decode_frame(frame)


def test_frame_decode_round_trip():
    header = MbapHeader(transaction_id=77, unit_id=3)
    pdu = encode_pdu(ReadCoilsRequest(4, 8))
    back_header, back_pdu = decode_frame(encode_frame(header, pdu))
    assert back_header == header
    assert back_pdu == pdu


def _random_request(rng):
    """A random request of any type, over every size its response can carry.

    A one-byte byte count caps a payload at 255 bytes: 2040 bits or 127 words.
    """
    kind = rng.randrange(6)
    start = rng.randrange(0, 0x10000)
    if kind == 0:
        return ReadCoilsRequest(start, rng.randrange(0, 2041))
    if kind == 1:
        return ReadHoldingRequest(start, rng.randrange(0, 128))
    if kind == 2:
        return WriteCoilRequest(start, rng.randrange(0, 0x10000))
    if kind == 3:
        return WriteRegisterRequest(start, rng.randrange(0, 0x10000))
    if kind == 4:
        bits = tuple(rng.random() < 0.5 for _ in range(rng.randrange(1, 2041)))
        return WriteCoilsRequest(start, bits)
    words = tuple(rng.randrange(0, 0x10000) for _ in range(rng.randrange(1, 128)))
    return WriteRegistersRequest(start, words)


def _matching_response(rng, request):
    if isinstance(request, ReadCoilsRequest):
        return ReadCoilsResponse(tuple(rng.random() < 0.5 for _ in range(request.count)))
    if isinstance(request, ReadHoldingRequest):
        return ReadHoldingResponse(
            tuple(rng.randrange(0, 0x10000) for _ in range(request.count))
        )
    if isinstance(request, (WriteCoilRequest, WriteRegisterRequest)):
        return request
    if isinstance(request, WriteCoilsRequest):
        return WriteCoilsResponse(request.start, len(request.bits))
    return WriteRegistersResponse(request.start, len(request.words))


def test_randomized_request_round_trip():
    rng = random.Random(99)
    seen = set()
    for _ in range(2000):
        request = _random_request(rng)
        pdu = encode_pdu(request)
        assert decode_request(pdu) == request
        header = MbapHeader(rng.randrange(0, 0x10000), rng.randrange(0, 0x100))
        assert decode_frame(encode_frame(header, pdu)) == (header, pdu)
        seen.add(request.function)
    assert seen == frames.SUPPORTED_FUNCTIONS


def test_randomized_response_round_trip():
    rng = random.Random(100)
    for _ in range(2000):
        request = _random_request(rng)
        response = _matching_response(rng, request)
        assert decode_response(encode_pdu(response), request) == response


def test_exception_response_round_trip():
    rng = random.Random(101)
    for _ in range(200):
        request = _random_request(rng)
        exc = ExceptionResponse(request.function, rng.choice([1, 2, 3]))
        decoded = decode_response(encode_pdu(exc), request)
        assert decoded == exc


def test_response_function_mismatch_rejected():
    pdu = encode_pdu(ReadHoldingResponse((1, 2)))
    with pytest.raises(FrameError, match="does not match"):
        decode_response(pdu, ReadCoilsRequest(0, 2))


def test_multi_write_length_mismatch_rejected():
    raw = bytearray(encode_pdu(WriteRegistersRequest(0, (1, 2, 3))))
    raw[5] = 9  # byte count lies
    with pytest.raises(FrameError, match="length mismatch"):
        decode_request(bytes(raw))
