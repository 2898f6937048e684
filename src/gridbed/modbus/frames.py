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
coils, 0x10 write multiple registers.  Every request and normal response of
each of them is one :class:`Pdu` (function, start address, count, values),
and the codec branches on the three body layouts the specification defines
rather than on a class per function code.  The FC05 rule, that a coil value
is 0xFF00 or 0x0000, lives in :func:`decode_request`.  Exception responses
set the high bit of the function code and carry a single exception byte.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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


class Pdu(NamedTuple):
    """A request or a normal response of any supported function code.

    ``start`` is the 0-based wire address.  ``values`` holds bits for
    FC01/05/0F and words for FC03/06/10, one of them for FC05/06 and their
    echo; it is ``None`` when the PDU has no value field, as in a read
    request or a write-multiple response, so a zero-quantity read request
    and its empty response stay apart.
    """

    function: int
    start: int
    count: int
    values: tuple | None = None


@dataclass(frozen=True)
class ExceptionResponse:
    function: int  # original function code, without the high bit
    code: int


_READS = (FC_READ_COILS, FC_READ_HOLDING)
_SINGLE_WRITES = (FC_WRITE_COIL, FC_WRITE_REGISTER)
_BIT_FUNCTIONS = (FC_READ_COILS, FC_WRITE_COIL, FC_WRITE_COILS)


def _pack(function: int, values: Sequence) -> bytes:
    """Values as their payload: words big-endian, bits LSB first."""
    if function not in _BIT_FUNCTIONS:
        return struct.pack(f">{len(values)}H", *values)
    out = bytearray((len(values) + 7) // 8)
    for i, b in enumerate(values):
        if b:
            out[i // 8] |= 1 << (i % 8)
    return bytes(out)


def _unpack(function: int, payload: bytes, count: int) -> tuple:
    """The ``count`` values a payload carries, if it is exactly that long."""
    if function not in _BIT_FUNCTIONS:
        if len(payload) == 2 * count:
            return struct.unpack(f">{count}H", payload)
    elif len(payload) == (count + 7) // 8:
        return tuple(bool(payload[i // 8] >> (i % 8) & 1) for i in range(count))
    raise FrameError(f"function 0x{function:02X} payload length mismatch")


def _second(pdu: Pdu) -> int:
    """The field after the address in a 4-byte body: the quantity, or the
    value of a single write (FC05 sends a coil as 0xFF00 or 0x0000)."""
    if pdu.function == FC_WRITE_COIL:
        return COIL_ON if pdu.values[0] else COIL_OFF
    if pdu.function == FC_WRITE_REGISTER:
        return pdu.values[0]
    return pdu.count


def encode_pdu(pdu: Pdu | ExceptionResponse) -> bytes:
    """Encode a request or response into PDU bytes.

    The body is one of three layouts: address + quantity or value, byte
    count + values (a read response), or address + quantity + byte count +
    values (a write-multiple request).
    """
    fc = pdu.function
    if isinstance(pdu, ExceptionResponse):
        return struct.pack(">BB", fc | 0x80, pdu.code)
    if pdu.values is None or fc in _SINGLE_WRITES:
        return struct.pack(">BHH", fc, pdu.start, _second(pdu))
    payload = _pack(fc, pdu.values)
    if fc in _READS:
        return struct.pack(">BB", fc, len(payload)) + payload
    return struct.pack(">BHHB", fc, pdu.start, pdu.count, len(payload)) + payload


def decode_request(data: bytes) -> Pdu:
    """Decode a client-to-server PDU; an FC05 value other than 0xFF00 or
    0x0000 is a :class:`FrameError`."""
    if not data:
        raise FrameError("empty PDU")
    function = data[0]
    if function not in SUPPORTED_FUNCTIONS:
        raise FrameError(f"unknown function code 0x{function:02X}")
    if function in _READS or function in _SINGLE_WRITES:
        if len(data) != 5:
            raise FrameError("request body must be 4 bytes")
        start, second = struct.unpack_from(">HH", data, 1)
        if function in _READS:
            return Pdu(function, start, second)
        if function == FC_WRITE_COIL:
            if second not in (COIL_ON, COIL_OFF):
                raise FrameError(f"coil value 0x{second:04X} is neither ON nor OFF")
            return Pdu(function, start, 1, (second == COIL_ON,))
        return Pdu(function, start, 1, (second,))
    if len(data) < 6:
        raise FrameError("write-multiple body too short")
    start, count, nbytes = struct.unpack_from(">HHB", data, 1)
    if count < 1 or nbytes != len(data) - 6:
        raise FrameError("write-multiple length mismatch")
    return Pdu(function, start, count, _unpack(function, data[6:], count))


def decode_response(data: bytes, request: Pdu) -> Pdu | ExceptionResponse:
    """Decode a server-to-client PDU against the request that elicited it."""
    if not data:
        raise FrameError("empty PDU")
    function = data[0]
    if function & 0x80:
        if (function & 0x7F) != request.function:
            raise FrameError("exception response for a different function")
        if len(data) != 2:
            raise FrameError("exception response body must be 1 byte")
        return ExceptionResponse(function & 0x7F, data[1])
    if function != request.function:
        raise FrameError(
            f"response function 0x{function:02X} does not match request"
        )
    if function in _READS:
        if len(data) < 2 or data[1] != len(data) - 2:
            raise FrameError("read response byte count mismatch")
        values = _unpack(function, data[2:], request.count)
        return Pdu(function, request.start, request.count, values)
    if len(data) != 5:
        raise FrameError("write response body must be 4 bytes")
    if struct.unpack_from(">HH", data, 1) != (request.start, _second(request)):
        raise FrameError("write response does not match request")
    if function in _SINGLE_WRITES:
        return request
    return Pdu(function, request.start, request.count)


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
