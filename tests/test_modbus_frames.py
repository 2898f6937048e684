"""Frame codec: byte-exact examples and randomized round-trip properties."""

import hashlib
import io
import random

import pytest

from gridbed.modbus import frames
from gridbed.modbus.frames import (
    FC_READ_COILS,
    FC_READ_HOLDING,
    FC_WRITE_COIL,
    FC_WRITE_COILS,
    FC_WRITE_REGISTER,
    FC_WRITE_REGISTERS,
    ExceptionResponse,
    FrameError,
    MbapHeader,
    Pdu,
    decode_request,
    decode_response,
    encode_frame,
    encode_pdu,
    receive_frame,
)


class _Stream:
    """Socket stand-in that yields the given bytes, then end of stream."""

    def __init__(self, data: bytes):
        self.recv = io.BytesIO(data).read


def _receive(data: bytes):
    return receive_frame(_Stream(data), bytearray())


def test_read_holding_frame_bytes():
    pdu = encode_pdu(Pdu(FC_READ_HOLDING, start=0, count=2))
    frame = encode_frame(MbapHeader(transaction_id=1, unit_id=1), pdu)
    assert frame == bytes.fromhex("000100000006010300000002")


def test_write_coil_pdu_bytes():
    # coil wire address 6 (coil number 7), ON
    assert encode_pdu(Pdu(FC_WRITE_COIL, 6, 1, (True,))) == bytes.fromhex("050006FF00")


def test_truncated_frame_is_eof_error():
    frame = encode_frame(MbapHeader(1, 1), encode_pdu(Pdu(FC_READ_HOLDING, 0, 1)))
    for cut in (0, 5, len(frame) - 1):
        with pytest.raises(EOFError):
            _receive(frame[:cut])


def test_bad_protocol_id_rejected():
    frame = bytearray(encode_frame(MbapHeader(1, 1), encode_pdu(Pdu(FC_READ_HOLDING, 0, 1))))
    frame[2] = 0x12
    with pytest.raises(FrameError, match="proto=4608"):
        _receive(bytes(frame))


def test_out_of_range_length_rejected():
    frame = bytearray(encode_frame(MbapHeader(1, 1), encode_pdu(Pdu(FC_READ_HOLDING, 0, 1))))
    for length in (0, 1, 255, 0xFFFF):
        frame[4:6] = length.to_bytes(2, "big")
        with pytest.raises(FrameError, match=f"len={length}"):
            _receive(bytes(frame) + bytes(300))


def test_unknown_function_rejected():
    with pytest.raises(FrameError, match="unknown function"):
        decode_request(bytes([0x2B, 0x00]))


def test_frame_decode_round_trip():
    header = MbapHeader(transaction_id=77, unit_id=3)
    pdu = encode_pdu(Pdu(FC_READ_COILS, 4, 8))
    back_header, back_pdu = _receive(encode_frame(header, pdu))
    assert back_header == header
    assert back_pdu == pdu


def _random_request(rng):
    """A random request of any type, over every size its response can carry.

    A one-byte byte count caps a payload at 255 bytes: 2040 bits or 127 words.
    """
    kind = rng.randrange(6)
    start = rng.randrange(0, 0x10000)
    if kind == 0:
        return Pdu(FC_READ_COILS, start, rng.randrange(0, 2041))
    if kind == 1:
        return Pdu(FC_READ_HOLDING, start, rng.randrange(0, 128))
    if kind == 2:
        return Pdu(FC_WRITE_COIL, start, 1, (rng.choice((True, False)),))  # ON, OFF
    if kind == 3:
        return Pdu(FC_WRITE_REGISTER, start, 1, (rng.randrange(0, 0x10000),))
    if kind == 4:
        bits = tuple(rng.random() < 0.5 for _ in range(rng.randrange(1, 2041)))
        return Pdu(FC_WRITE_COILS, start, len(bits), bits)
    words = tuple(rng.randrange(0, 0x10000) for _ in range(rng.randrange(1, 128)))
    return Pdu(FC_WRITE_REGISTERS, start, len(words), words)


def _matching_response(rng, request):
    fc, start, count = request.function, request.start, request.count
    if fc == FC_READ_COILS:
        return Pdu(fc, start, count, tuple(rng.random() < 0.5 for _ in range(count)))
    if fc == FC_READ_HOLDING:
        return Pdu(fc, start, count, tuple(rng.randrange(0, 0x10000) for _ in range(count)))
    if fc in (FC_WRITE_COIL, FC_WRITE_REGISTER):
        return request
    return Pdu(fc, start, count)


def test_randomized_request_round_trip():
    rng = random.Random(99)
    seen = set()
    framed = oversized = 0
    wire = hashlib.sha256()
    for _ in range(2000):
        request = _random_request(rng)
        pdu = encode_pdu(request)
        wire.update(pdu)
        assert decode_request(pdu) == request
        header = MbapHeader(rng.randrange(0, 0x10000), rng.randrange(0, 0x100))
        if len(pdu) > 253:  # too long for the 2..254 MBAP length field
            with pytest.raises(FrameError, match="does not fit"):
                encode_frame(header, pdu)
            oversized += 1
        else:
            frame = encode_frame(header, pdu)
            wire.update(frame)
            assert _receive(frame) == (header, pdu)
            framed += 1
        seen.add(request.function)
    assert seen == frames.SUPPORTED_FUNCTIONS
    assert framed and oversized
    assert wire.hexdigest() == "7d58632e9eaf9e2bcf18d442bdd7714e1c85efd2454edf62558645e7ac4097cb"


def test_randomized_response_round_trip():
    rng = random.Random(100)
    wire = hashlib.sha256()
    for i in range(2000):
        request = _random_request(rng)
        response = _matching_response(rng, request)
        assert decode_response(encode_pdu(response), request) == response
        wire.update(encode_pdu(request))
        wire.update(encode_pdu(response))
        wire.update(encode_pdu(ExceptionResponse(request.function, 1 + i % 4)))
    assert wire.hexdigest() == "41383bc7559a2cd8fb38fdd19367e6a7d54db6286c0d23d30fbb218b49f14704"


@pytest.mark.parametrize(
    "request_, response",
    [
        (Pdu(FC_WRITE_COIL, 6, 1, (True,)), Pdu(FC_WRITE_COIL, 6, 1, (False,))),
        (Pdu(FC_WRITE_COIL, 6, 1, (True,)), Pdu(FC_WRITE_COIL, 7, 1, (True,))),
        (Pdu(FC_WRITE_REGISTER, 206, 1, (80,)), Pdu(FC_WRITE_REGISTER, 206, 1, (81,))),
        (Pdu(FC_WRITE_REGISTER, 206, 1, (80,)), Pdu(FC_WRITE_REGISTER, 205, 1, (80,))),
        (Pdu(FC_WRITE_COILS, 0, 3, (True, False, True)), Pdu(FC_WRITE_COILS, 0, 2)),
        (Pdu(FC_WRITE_COILS, 0, 3, (True, False, True)), Pdu(FC_WRITE_COILS, 1, 3)),
        (Pdu(FC_WRITE_REGISTERS, 206, 3, (1, 2, 3)), Pdu(FC_WRITE_REGISTERS, 206, 4)),
        (Pdu(FC_WRITE_REGISTERS, 206, 3, (1, 2, 3)), Pdu(FC_WRITE_REGISTERS, 207, 3)),
    ],
    ids=["fc05-value", "fc05-address", "fc06-value", "fc06-address",
         "fc0f-count", "fc0f-start", "fc10-count", "fc10-start"],
)
def test_write_response_must_match_request(request_, response):
    with pytest.raises(FrameError, match="does not match request"):
        decode_response(encode_pdu(response), request_)


def test_exception_response_round_trip():
    rng = random.Random(101)
    for _ in range(200):
        request = _random_request(rng)
        exc = ExceptionResponse(request.function, rng.choice([1, 2, 3]))
        decoded = decode_response(encode_pdu(exc), request)
        assert decoded == exc


def test_response_function_mismatch_rejected():
    pdu = encode_pdu(Pdu(FC_READ_HOLDING, 0, 2, (1, 2)))
    with pytest.raises(FrameError, match="does not match"):
        decode_response(pdu, Pdu(FC_READ_COILS, 0, 2))


def test_multi_write_length_mismatch_rejected():
    raw = bytearray(encode_pdu(Pdu(FC_WRITE_REGISTERS, 0, 3, (1, 2, 3))))
    raw[5] = 9  # byte count lies
    with pytest.raises(FrameError, match="length mismatch"):
        decode_request(bytes(raw))
