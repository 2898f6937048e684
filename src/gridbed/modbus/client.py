"""Synchronous single-connection Modbus/TCP client.

Thin request/response wrapper plus the testbed-level operations the attack
and mitigation engines use: chunked voltage reads, setpoint writes, and
switch operations.  Exception responses surface as
:class:`ModbusExceptionError` with the code; transport failures raise
``ConnectionError``.
"""

from __future__ import annotations

import socket
import struct

from .. import regmap
from ..regmap import MeterMap, decode_float_pair, decode_voltage_word, plan_chunked_read
from . import frames
from .frames import (
    ExceptionResponse,
    MbapHeader,
    ReadCoilsRequest,
    ReadHoldingRequest,
    WriteCoilRequest,
    WriteRegisterRequest,
    WriteRegistersRequest,
)


class ModbusExceptionError(RuntimeError):
    """Server answered with a Modbus exception response."""

    def __init__(self, function: int, code: int):
        super().__init__(f"exception 0x{code:02X} for function 0x{function:02X}")
        self.function = function
        self.code = code


class ModbusClient:
    def __init__(self, host: str, port: int, unit_id: int = 1, timeout: float = 5.0):
        self.unit_id = unit_id
        self._txn = 0
        self._sock = socket.create_connection((host, port), timeout=timeout)

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- request/response core ----------------------------------------------

    def request(self, request):
        self._txn = (self._txn + 1) & 0xFFFF
        header = MbapHeader(transaction_id=self._txn, unit_id=self.unit_id)
        try:
            self._sock.sendall(frames.encode_frame(header, frames.encode_pdu(request)))
            head = self._recv_exact(frames.MBAP_SIZE)
            txn, proto, length, _unit = struct.unpack(">HHHB", head)
            pdu = self._recv_exact(length - 1)
        except socket.timeout as exc:
            raise ConnectionError("modbus request timed out") from exc
        except OSError as exc:
            raise ConnectionError(f"modbus transport failure: {exc}") from exc
        if proto != 0:
            raise ConnectionError("peer sent a non-Modbus protocol id")
        if txn != self._txn:
            raise ConnectionError(f"transaction id mismatch: sent {self._txn}, got {txn}")
        response = frames.decode_response(pdu, request)
        if isinstance(response, ExceptionResponse):
            raise ModbusExceptionError(response.function, response.code)
        return response

    def _recv_exact(self, n: int) -> bytes:
        buf = b""
        while len(buf) < n:
            chunk = self._sock.recv(n - len(buf))
            if not chunk:
                raise ConnectionError("connection closed by peer")
            buf += chunk
        return buf

    # -- register primitives --------------------------------------------------

    def read_holding(self, first_register: int, count: int) -> list[int]:
        """Read ``count`` holding registers starting at a 1-based number."""
        resp = self.request(ReadHoldingRequest(first_register - 1, count))
        return list(resp.words)

    def read_coils(self, first_coil: int, count: int) -> list[bool]:
        resp = self.request(ReadCoilsRequest(first_coil - 1, count))
        return list(resp.bits)

    def write_register(self, register: int, value: int):
        self.request(WriteRegisterRequest(register - 1, value))

    def write_registers(self, first_register: int, values: list[int]):
        self.request(WriteRegistersRequest(first_register - 1, tuple(values)))

    def write_coil(self, coil: int, closed: bool):
        self.request(
            WriteCoilRequest(coil - 1, frames.COIL_ON if closed else frames.COIL_OFF)
        )

    # -- testbed operations ----------------------------------------------------

    def read_all_voltages(
        self,
        meter_map: MeterMap,
        source: str = "scaled",
        high_word_first: bool = True,
    ) -> dict[tuple[str, str], float]:
        """All meter magnitudes (pu) in meter order, read in chunked spans."""
        n = len(meter_map.meters)
        if source == "scaled":
            words: list[int] = []
            for start, count in plan_chunked_read(regmap.VOLTAGE_BLOCK_START, n):
                words.extend(self.read_holding(start, count))
            mags = [decode_voltage_word(w) for w in words]
        elif source == "float":
            words = []
            for start, count in plan_chunked_read(regmap.FLOAT_BLOCK_START, 2 * n):
                words.extend(self.read_holding(start, count))
            mags = [
                decode_float_pair(words[2 * i : 2 * i + 2], high_word_first)
                for i in range(n)
            ]
        else:
            raise ValueError(f"unknown voltage source {source!r}")
        return {point: mag for point, mag in zip(meter_map.meters, mags)}

    def read_setpoints(self, meter_map: MeterMap) -> dict[str, int]:
        k = len(meter_map.setpoints)
        words = self.read_holding(regmap.SETPOINT_BLOCK_START, k)
        return {node: w for (node, _), w in zip(meter_map.setpoints, words)}

    def write_setpoints(self, meter_map: MeterMap, kw_by_node: dict[str, int]):
        """Write every node setpoint (kW) in one write-multiple request.

        The map must name every mapped node, so the write needs no read
        first and cannot race with another writer; an empty map is a no-op.
        """
        if not kw_by_node:
            return
        for node in kw_by_node:
            meter_map.setpoint_register(node)  # raises for unmapped nodes
        for node, kw in kw_by_node.items():
            if not 0 <= int(kw) <= 0xFFFF:
                raise ValueError(f"setpoint {kw} kW for {node!r} exceeds 16-bit range")
        missing = [node for node, _ in meter_map.setpoints if node not in kw_by_node]
        if missing:
            raise ValueError(f"setpoint map does not name {', '.join(missing)}")
        values = [int(kw_by_node[node]) for node, _ in meter_map.setpoints]
        self.write_registers(regmap.SETPOINT_BLOCK_START, values)

    def read_switches(self, switch_names: tuple[str, ...]) -> dict[str, bool]:
        bits = self.read_coils(1, len(switch_names))
        return dict(zip(switch_names, bits))

    def write_switch(self, switch_names: tuple[str, ...], name: str, closed: bool):
        """Operate one switch by name and confirm by read-back."""
        if name not in switch_names:
            raise ValueError(f"unmapped switch {name!r}")
        coil = 1 + switch_names.index(name)
        self.write_coil(coil, closed)
        state = self.read_coils(coil, 1)[0]
        if state != closed:
            raise RuntimeError(f"switch {name!r} read-back mismatch after write")
