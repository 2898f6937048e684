"""Synchronous single-connection Modbus/TCP client.

Thin request/response wrapper plus the testbed-level operations the attack
and mitigation engines use: chunked voltage reads, setpoint reads and
writes, and switch operations.  A reading is a tuple of magnitudes in
``meter_map.meters`` order, a setpoint vector a tuple of kW in
``meter_map.setpoints`` order: both in register order.  Each primitive sends
one :class:`frames.Pdu` and reads the ``values`` of the one that answers it.
Exception responses surface as :class:`ModbusExceptionError` with the code.
Replies are read with the server's own :func:`frames.receive_frame`; a
transport failure, a timeout, a malformed reply or one that does not answer
the request closes the connection and raises ``ConnectionError``, so a stream
that has lost its place is never read again.  A request too large for one frame raises
:class:`frames.FrameError` before anything is sent.
"""

from __future__ import annotations

import socket

import numpy as np

from .. import regmap
from ..regmap import MeterMap, plan_chunked_read
from . import frames
from .frames import ExceptionResponse, FrameError, MbapHeader, Pdu


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
        frame = frames.encode_frame(header, frames.encode_pdu(request))
        try:
            self._sock.sendall(frame)
            reply, pdu = frames.receive_frame(self._sock, bytearray())
            if reply.transaction_id != self._txn:
                raise FrameError(
                    f"transaction id mismatch: sent {self._txn}, got {reply.transaction_id}"
                )
            response = frames.decode_response(pdu, request)
        except (OSError, EOFError, FrameError) as exc:
            self.close()
            raise ConnectionError(f"modbus request failed: {exc!r}") from exc
        if isinstance(response, ExceptionResponse):
            raise ModbusExceptionError(response.function, response.code)
        return response

    # -- register primitives --------------------------------------------------

    def read_holding(self, first_register: int, count: int) -> list[int]:
        """Read ``count`` holding registers starting at a 1-based number."""
        return list(self.request(Pdu(frames.FC_READ_HOLDING, first_register - 1, count)).values)

    def read_coils(self, first_coil: int, count: int) -> list[bool]:
        return list(self.request(Pdu(frames.FC_READ_COILS, first_coil - 1, count)).values)

    def write_registers(self, first_register: int, values: list[int]):
        values = tuple(values)
        self.request(Pdu(frames.FC_WRITE_REGISTERS, first_register - 1, len(values), values))

    def write_coil(self, coil: int, closed: bool):
        self.request(Pdu(frames.FC_WRITE_COIL, coil - 1, 1, (closed,)))

    # -- testbed operations ----------------------------------------------------

    def read_all_voltages(
        self,
        meter_map: MeterMap,
        source: str = "scaled",
        high_word_first: bool = True,
    ) -> tuple[float, ...]:
        """All meter magnitudes (pu) as one reading: a tuple in
        ``meter_map.meters`` order, the shape
        :meth:`~gridbed.powerflow.VoltageSolution.magnitudes` returns.  The
        words are read in chunked spans and decoded as
        :func:`regmap.decode_voltage_word` or :func:`regmap.decode_float_pair`
        would, bit for bit."""
        if source not in ("scaled", "float"):
            raise ValueError(f"unknown voltage source {source!r}")
        width = 1 if source == "scaled" else 2
        first = regmap.VOLTAGE_BLOCK_START if width == 1 else regmap.FLOAT_BLOCK_START
        words: list[int] = []
        for start, count in plan_chunked_read(first, width * len(meter_map.meters)):
            words.extend(self.read_holding(start, count))
        if width == 1:
            mags = np.array(words) / regmap.VOLTAGE_SCALE
        else:
            pairs = np.array(words, dtype=">u2").reshape(-1, 2)
            mags = np.ascontiguousarray(pairs if high_word_first else pairs[:, ::-1]).view(">f4")
        return tuple(mags.ravel().tolist())

    def read_setpoints(self, meter_map: MeterMap) -> tuple[int, ...]:
        """The setpoint vector: kW in ``meter_map.setpoints`` order."""
        return tuple(self.read_holding(regmap.SETPOINT_BLOCK_START, len(meter_map.setpoints)))

    def write_setpoints(self, meter_map: MeterMap, setpoints_kw):
        """Write a setpoint vector (kW in ``meter_map.setpoints`` order) in
        one write-multiple request.

        The vector covers every setpoint register, so the write needs no read
        first and cannot race with another writer.  A vector of another
        length or a value outside 0..65535 raises
        :class:`~gridbed.regmap.RegisterMapError` before anything is sent.
        """
        values = tuple(map(int, setpoints_kw))
        meter_map.check_setpoints(values)
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

    def write_switches(self, switch_names: tuple[str, ...], states: dict[str, bool]):
        """Operate several switches in one write-multiple-coils request and
        confirm them with one read-back.

        The request covers the coils from the first to the last switch that
        ``states`` names, so it must name every switch between them; an empty
        map is a no-op.
        """
        unmapped = [name for name in states if name not in switch_names]
        if unmapped:
            raise ValueError(f"unmapped switch(es) {', '.join(map(repr, unmapped))}")
        if not states:
            return
        coils = sorted(switch_names.index(name) for name in states)
        span = switch_names[coils[0] : coils[-1] + 1]
        if len(span) != len(coils):
            missing = [name for name in span if name not in states]
            raise ValueError(f"switch states do not name {', '.join(map(repr, missing))}")
        wanted = [bool(states[name]) for name in span]
        self.request(Pdu(frames.FC_WRITE_COILS, coils[0], len(wanted), tuple(wanted)))
        if self.read_coils(1 + coils[0], len(span)) != wanted:
            raise RuntimeError(f"switches {', '.join(span)} read-back mismatch after write")
