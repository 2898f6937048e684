"""Modbus/TCP frame codec, and the framing rule of both ends of the wire.

Wire format: 7-byte MBAP header (transaction id, protocol id 0, remaining
byte count, unit id) followed by the PDU (function code + body).  All
multi-byte fields are big-endian; coil/register addresses are 0-based on the
wire, so register number N travels as N - 1.  The remaining byte count
covers the unit id and a PDU of 1..253 bytes, so it lies in 2..254:
:func:`encode_frame` refuses to build a frame outside that range, and
:func:`receive_frame`, which the server and the client both read frames
with, refuses to read one.

Supported function codes: 0x01 read coils, 0x03 read holding registers,
0x05 write single coil, 0x06 write single register, 0x0F write multiple
coils, 0x10 write multiple registers.  Exception responses set the high bit
of the function code and carry a single exception byte.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence, Union

FC_READ_COILS = 0x01
FC_READ_HOLDING = 0x03
FC_WRITE_COIL = 0x05
FC_WRITE_REGISTER = 0x06
FC_WRITE_COILS = 0x0F
FC_WRITE_REGISTERS = 0x10

SUPPORTED_FUNCTIONS = frozenset(
    [
        FC_READ_COILS,
        FC_READ_HOLDING,
        FC_WRITE_COIL,
        FC_WRITE_REGISTER,
        FC_WRITE_COILS,
        FC_WRITE_REGISTERS,
    ]
)

EXC_ILLEGAL_FUNCTION = 0x01
EXC_ILLEGAL_ADDRESS = 0x02
EXC_ILLEGAL_VALUE = 0x03
EXC_SERVER_FAILURE = 0x04

COIL_ON = 0xFF00
COIL_OFF = 0x0000

MBAP_SIZE = 7
MBAP_LENGTHS = range(2, 255)  # unit id + a PDU of 1..253 bytes


class FrameError(ValueError):
    """Malformed frame or PDU, or a response that does not fit its request."""


@dataclass(frozen=True)
class MbapHeader:
    transaction_id: int
    unit_id: int


@dataclass(frozen=True)
class ReadCoilsRequest:
    start: int
    count: int
    function = FC_READ_COILS


@dataclass(frozen=True)
class ReadCoilsResponse:
    bits: tuple[bool, ...]
    function = FC_READ_COILS


@dataclass(frozen=True)
class ReadHoldingRequest:
    start: int
    count: int
    function = FC_READ_HOLDING


@dataclass(frozen=True)
class ReadHoldingResponse:
    words: tuple[int, ...]
    function = FC_READ_HOLDING


@dataclass(frozen=True)
class WriteCoilRequest:
    address: int
    value: int  # 0xFF00 or 0x0000 on the wire
    function = FC_WRITE_COIL


@dataclass(frozen=True)
class WriteRegisterRequest:
    address: int
    value: int
    function = FC_WRITE_REGISTER


@dataclass(frozen=True)
class WriteCoilsRequest:
    start: int
    bits: tuple[bool, ...]
    function = FC_WRITE_COILS


@dataclass(frozen=True)
class WriteCoilsResponse:
    start: int
    count: int
    function = FC_WRITE_COILS


@dataclass(frozen=True)
class WriteRegistersRequest:
    start: int
    words: tuple[int, ...]
    function = FC_WRITE_REGISTERS


@dataclass(frozen=True)
class WriteRegistersResponse:
    start: int
    count: int
    function = FC_WRITE_REGISTERS


@dataclass(frozen=True)
class ExceptionResponse:
    function: int  # original function code, without the high bit
    code: int


Request = Union[
    ReadCoilsRequest,
    ReadHoldingRequest,
    WriteCoilRequest,
    WriteRegisterRequest,
    WriteCoilsRequest,
    WriteRegistersRequest,
]
Response = Union[
    ReadCoilsResponse,
    ReadHoldingResponse,
    WriteCoilRequest,  # echo responses reuse the request shape
    WriteRegisterRequest,
    WriteCoilsResponse,
    WriteRegistersResponse,
    ExceptionResponse,
]


def _pack_bits(bits: Sequence[bool]) -> bytes:
    out = bytearray((len(bits) + 7) // 8)
    for i, b in enumerate(bits):
        if b:
            out[i // 8] |= 1 << (i % 8)
    return bytes(out)


def _unpack_bits(data: bytes, count: int) -> tuple[bool, ...]:
    return tuple(bool(data[i // 8] >> (i % 8) & 1) for i in range(count))


def encode_pdu(pdu) -> bytes:
    """Encode a request or response object into PDU bytes."""
    if isinstance(pdu, (ReadCoilsRequest, ReadHoldingRequest)):
        return struct.pack(">BHH", pdu.function, pdu.start, pdu.count)
    if isinstance(pdu, ReadCoilsResponse):
        payload = _pack_bits(pdu.bits)
        return struct.pack(">BB", pdu.function, len(payload)) + payload
    if isinstance(pdu, ReadHoldingResponse):
        return (
            struct.pack(">BB", pdu.function, 2 * len(pdu.words))
            + struct.pack(f">{len(pdu.words)}H", *pdu.words)
        )
    if isinstance(pdu, (WriteCoilRequest, WriteRegisterRequest)):
        return struct.pack(">BHH", pdu.function, pdu.address, pdu.value)
    if isinstance(pdu, WriteCoilsRequest):
        payload = _pack_bits(pdu.bits)
        return (
            struct.pack(">BHHB", pdu.function, pdu.start, len(pdu.bits), len(payload))
            + payload
        )
    if isinstance(pdu, WriteRegistersRequest):
        return (
            struct.pack(">BHHB", pdu.function, pdu.start, len(pdu.words), 2 * len(pdu.words))
            + struct.pack(f">{len(pdu.words)}H", *pdu.words)
        )
    if isinstance(pdu, (WriteCoilsResponse, WriteRegistersResponse)):
        return struct.pack(">BHH", pdu.function, pdu.start, pdu.count)
    if isinstance(pdu, ExceptionResponse):
        return struct.pack(">BB", pdu.function | 0x80, pdu.code)
    raise FrameError(f"cannot encode PDU of type {type(pdu).__name__}")


def decode_request(data: bytes) -> Request:
    """Decode a client-to-server PDU."""
    if not data:
        raise FrameError("empty PDU")
    function = data[0]
    if function not in SUPPORTED_FUNCTIONS:
        raise FrameError(f"unknown function code 0x{function:02X}")
    body = data[1:]
    if function in (FC_READ_COILS, FC_READ_HOLDING):
        if len(body) != 4:
            raise FrameError("read request body must be 4 bytes")
        start, count = struct.unpack(">HH", body)
        cls = ReadCoilsRequest if function == FC_READ_COILS else ReadHoldingRequest
        return cls(start, count)
    if function in (FC_WRITE_COIL, FC_WRITE_REGISTER):
        if len(body) != 4:
            raise FrameError("single-write request body must be 4 bytes")
        address, value = struct.unpack(">HH", body)
        cls = WriteCoilRequest if function == FC_WRITE_COIL else WriteRegisterRequest
        return cls(address, value)
    if function == FC_WRITE_COILS:
        if len(body) < 5:
            raise FrameError("write-multiple-coils body too short")
        start, count, nbytes = struct.unpack(">HHB", body[:5])
        payload = body[5:]
        if nbytes != len(payload) or nbytes != (count + 7) // 8 or count < 1:
            raise FrameError("write-multiple-coils length mismatch")
        return WriteCoilsRequest(start, _unpack_bits(payload, count))
    # FC_WRITE_REGISTERS
    if len(body) < 5:
        raise FrameError("write-multiple-registers body too short")
    start, count, nbytes = struct.unpack(">HHB", body[:5])
    payload = body[5:]
    if nbytes != len(payload) or nbytes != 2 * count or count < 1:
        raise FrameError("write-multiple-registers length mismatch")
    words = struct.unpack(f">{count}H", payload)
    return WriteRegistersRequest(start, words)


def decode_response(data: bytes, request: Request) -> Response:
    """Decode a server-to-client PDU against the request that elicited it."""
    if not data:
        raise FrameError("empty PDU")
    function = data[0]
    body = data[1:]
    if function & 0x80:
        if (function & 0x7F) != request.function:
            raise FrameError("exception response for a different function")
        if len(body) != 1:
            raise FrameError("exception response body must be 1 byte")
        return ExceptionResponse(function & 0x7F, body[0])
    if function != request.function:
        raise FrameError(
            f"response function 0x{function:02X} does not match request"
        )
    if function in (FC_READ_COILS, FC_READ_HOLDING):
        if len(body) < 1 or body[0] != len(body) - 1:
            raise FrameError("read response byte count mismatch")
        payload = body[1:]
        if function == FC_READ_COILS:
            if len(payload) != (request.count + 7) // 8:
                raise FrameError("read-coils response length mismatch")
            return ReadCoilsResponse(_unpack_bits(payload, request.count))
        if len(payload) != 2 * request.count:
            raise FrameError("read-holding response length mismatch")
        return ReadHoldingResponse(struct.unpack(f">{request.count}H", payload))
    if len(body) != 4:
        raise FrameError("write response body must be 4 bytes")
    first, second = struct.unpack(">HH", body)
    if function in (FC_WRITE_COIL, FC_WRITE_REGISTER):
        if (first, second) != (request.address, request.value):
            raise FrameError("write echo does not match request")
        return request
    count = len(request.bits if function == FC_WRITE_COILS else request.words)
    if (first, second) != (request.start, count):
        raise FrameError("write response does not match request")
    cls = WriteCoilsResponse if function == FC_WRITE_COILS else WriteRegistersResponse
    return cls(first, second)


def encode_frame(header: MbapHeader, pdu_bytes: bytes) -> bytes:
    """Wrap PDU bytes in an MBAP header."""
    length = len(pdu_bytes) + 1  # + unit id
    if length not in MBAP_LENGTHS:
        raise FrameError(f"PDU of {len(pdu_bytes)} bytes does not fit an MBAP frame")
    return struct.pack(">HHHB", header.transaction_id, 0, length, header.unit_id) + pdu_bytes


def receive_frame(sock, inbox: bytearray) -> tuple[MbapHeader, bytes] | None:
    """Receive only what the frame begun in ``inbox`` lacks, header first,
    leaving later bytes to the kernel; return its header and PDU once whole.

    Returns ``None`` when a non-blocking socket has nothing more to give,
    raises ``EOFError`` when the peer hung up and :class:`FrameError` on a
    bad MBAP header.
    """
    while True:
        size = MBAP_SIZE
        if len(inbox) >= size:
            txn, proto, length, unit = struct.unpack_from(">HHHB", inbox)
            if proto != 0 or length not in MBAP_LENGTHS:
                raise FrameError(f"bad MBAP (proto={proto} len={length})")
            size += length - 1
            if len(inbox) == size:
                pdu = bytes(inbox[MBAP_SIZE:])
                inbox.clear()
                return MbapHeader(txn, unit), pdu
        try:
            chunk = sock.recv(size - len(inbox))
        except BlockingIOError:
            return None
        if not chunk:
            raise EOFError
        inbox += chunk
