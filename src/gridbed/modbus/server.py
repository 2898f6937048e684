"""Modbus/TCP server fronting a live power-flow simulation.

The register store is bound to a feeder model: coil writes reconfigure
switches, setpoint-register writes change controllable loads, and the solver
re-runs synchronously so the voltage registers already reflect the new state
when the write response goes out.  Every write goes through
:meth:`FeederServer._commit`, which solves and renders a new immutable
:class:`ServerState` before swapping it in, so a failing write leaves the
previous state and image untouched and is answered with exception 0x04, and
a reader of ``server.state`` needs no copy.  Its setpoint vector is a tuple
of kW in ``meter_map.setpoints`` order, so a register write splices its
values in at the register's offset.

One address rule answers every request.  Each function code has a table
of the registers (or coils) it may touch, in unbroken runs: holding reads
(FC03) reach every mapped holding register, register writes (FC06, FC16)
only the setpoint block, and coil requests (FC01, FC05, FC0F) coils
1..len(switch_names).  A request whose first register is not in its table
is answered 0x02; one with a count below 1, a holding read of more than
``READ_LIMIT`` registers, or a span that runs past the end of the first
register's run is answered 0x03.  Blocks that touch form one run, so on the
bundled feeder a read of registers 200..215 crosses from the voltage block
into the setpoint block, while 200..216 gets 0x03.  A request the codec
cannot decode, such as an FC05 value other than 0xFF00 or 0x0000, is
answered 0x03 before the address is looked up.  Every decoded request is
one :class:`frames.Pdu`, so the rule reads its start, count and values the
same way for all six function codes.

If a write produces a non-converging state the write is still accepted; the
voltage registers keep the last converged values and the status register is
set to 1 (stale) until a later write converges again.

Lifecycle: the constructor binds the listening socket and
:meth:`FeederServer.start` runs one thread, ``gridbed-server``, which waits in
a selector on the listener, one end of a socket pair and every non-blocking
connection.  Each turn of its loop reads with :func:`frames.receive_frame`
and runs at most one whole MBAP frame per connection, so requests run one at
a time in arrival order and a pipelined burst cannot starve other peers; a
connection with unsent output is not read until it drains, and one that
sends a bad MBAP header is logged and dropped.  As the only thread that runs
requests, it is the only writer of ``state``, so no lock guards it.
:meth:`FeederServer.close` writes to the socket pair to wake the thread,
which closes every connection on its way out, then joins it and closes the
sockets.  ``close()`` is idempotent and returns at once on a server that was
never started.
"""

from __future__ import annotations

import argparse
import logging
import selectors
import socket
import threading
from dataclasses import dataclass

from .. import regmap
from ..feeder import (
    PHASE_INDEX,
    FeederModel,
    SwitchConfig,
    apply_switch_config,
    load_feeder_file,
)
from ..powerflow import PowerFlowError, VoltageSolution, solve
from ..regmap import MeterMap, RegisterImage, build_image
from . import frames, parse_address
from .frames import (
    EXC_ILLEGAL_ADDRESS,
    EXC_ILLEGAL_FUNCTION,
    EXC_ILLEGAL_VALUE,
    EXC_SERVER_FAILURE,
    FC_READ_COILS,
    FC_READ_HOLDING,
    FC_WRITE_COIL,
    FC_WRITE_COILS,
    FC_WRITE_REGISTER,
    FC_WRITE_REGISTERS,
    ExceptionResponse,
    Pdu,
)

log = logging.getLogger("gridbed.server")

DEFAULT_PORT = 1502


def _run_ends(registers) -> dict[int, int]:
    """Map each register to the last register of the unbroken run holding it."""
    ends: dict[int, int] = {}
    for register in sorted(set(registers), reverse=True):
        ends[register] = ends.get(register + 1, register)
    return ends


@dataclass(frozen=True)
class ServerState:
    """Simulation + register state; the server swaps in a new one per write."""

    config: SwitchConfig
    setpoints_kw: tuple[int, ...]  # in meter_map.setpoints order
    image: RegisterImage
    solution: VoltageSolution
    stale: bool


class FeederServer:
    """Modbus/TCP server over one feeder simulation, served by one thread."""

    state: ServerState | None = None  # replaced only by _commit

    def __init__(
        self,
        model: FeederModel,
        meter_map: MeterMap | None = None,
        bind: tuple[str, int] = ("127.0.0.1", 0),
        high_word_first: bool = True,
    ):
        self.model = model
        self.meter_map = meter_map or MeterMap.for_model(model)
        self.high_word_first = high_word_first
        setpoints = tuple(
            int(round(model.bus(node).load_kw[PHASE_INDEX[phase]]))
            for node, phase in self.meter_map.setpoints
        )
        self._commit(SwitchConfig.normal(model), setpoints)

        # The address rule's table: function code -> _run_ends of its registers.
        n = len(self.meter_map.meters)
        setpoint_block = range(
            regmap.SETPOINT_BLOCK_START,
            regmap.SETPOINT_BLOCK_START + len(self.meter_map.setpoints),
        )
        writable = _run_ends(setpoint_block)
        readable = _run_ends(
            [
                *range(regmap.VOLTAGE_BLOCK_START, regmap.VOLTAGE_BLOCK_START + n),
                *setpoint_block,
                regmap.STATUS_REGISTER,
                *range(regmap.FLOAT_BLOCK_START, regmap.FLOAT_BLOCK_START + 2 * n),
            ]
        )
        coils = _run_ends(range(1, len(model.switch_names) + 1))
        self._run_end = {
            FC_READ_HOLDING: readable,
            FC_WRITE_REGISTER: writable,
            FC_WRITE_REGISTERS: writable,
            FC_READ_COILS: coils,
            FC_WRITE_COIL: coils,
            FC_WRITE_COILS: coils,
        }

        self._listener = socket.create_server(bind)
        self._listener.setblocking(False)  # a peer may vanish before accept()
        self.address = self._listener.getsockname()
        self._wake_r, self._wake_w = socket.socketpair()
        self._closing = False
        self._thread = threading.Thread(target=self._serve, name="gridbed-server", daemon=True)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "FeederServer":
        if self._thread.is_alive():
            return self
        self._thread.start()
        log.info("serving %s:%d", *self.address)
        return self

    def close(self):
        """Wake the server thread, which drops every connection, and join it."""
        if self._closing:
            return
        self._closing = True
        self._wake_w.send(b"\0")
        if self._thread.is_alive():
            self._thread.join()
        for sock in (self._listener, self._wake_r, self._wake_w):
            sock.close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.close()

    def _serve(self):
        with selectors.DefaultSelector() as selector:
            selector.register(self._listener, selectors.EVENT_READ)
            selector.register(self._wake_r, selectors.EVENT_READ)
            try:
                while True:
                    ready = selector.select()
                    if self._closing:
                        return
                    for key, _ in ready:
                        if key.fileobj is self._listener:
                            self._accept(selector)
                        elif key.data is not None:
                            self._turn(selector, key)
            finally:
                for key in selector.get_map().values():
                    if key.data is not None:
                        key.fileobj.close()

    def _accept(self, selector: selectors.BaseSelector):
        try:
            sock, _ = self._listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        selector.register(sock, selectors.EVENT_READ, (bytearray(), bytearray()))

    def _turn(self, selector: selectors.BaseSelector, key: selectors.SelectorKey):
        """Send what is pending, or else read on and answer a whole frame."""
        sock = key.fileobj
        inbox, outbox = key.data
        try:
            if not outbox:
                frame = frames.receive_frame(sock, inbox)
                if frame is None:
                    return
                header, pdu = frame
                outbox += frames.encode_frame(header, frames.encode_pdu(self._dispatch(pdu)))
            del outbox[: sock.send(outbox)]
        except BlockingIOError:
            pass  # the send buffer is full; the outbox waits for it to drain
        except Exception as exc:
            # A hang-up or a reset is no fault, and a bad header is the peer's.
            if isinstance(exc, frames.FrameError):
                log.warning("dropping connection: %s", exc)
            elif not isinstance(exc, (EOFError, OSError)):
                log.exception("connection failed")
            selector.unregister(sock)
            sock.close()
            return
        # Unsent output is all this connection is watched for until it drains.
        events = selectors.EVENT_WRITE if outbox else selectors.EVENT_READ
        selector.modify(sock, events, key.data)

    # -- simulation --------------------------------------------------------

    def _commit(self, config: SwitchConfig, setpoints: tuple[int, ...]):
        """Solve and render a new state, then swap it in.

        A non-converging solve keeps the last converged solution and marks
        the image stale; if anything raises, the current state stays.
        """
        view = apply_switch_config(self.model, config)
        solution = solve(self.model, view, self.meter_map.demand(self.model, setpoints))
        stale = not solution.converged
        if stale:
            if self.state is None:
                raise PowerFlowError("base state does not converge; refusing to serve")
            solution = self.state.solution
        image = build_image(
            solution, setpoints, config, self.meter_map, stale, self.high_word_first
        )
        self.state = ServerState(config, setpoints, image, solution, stale)

    # -- protocol ----------------------------------------------------------

    def _dispatch(self, pdu: bytes):
        function = pdu[0]
        if function not in frames.SUPPORTED_FUNCTIONS:
            return ExceptionResponse(function & 0x7F, EXC_ILLEGAL_FUNCTION)
        try:
            request = frames.decode_request(pdu)
        except frames.FrameError:
            return ExceptionResponse(function & 0x7F, EXC_ILLEGAL_VALUE)
        try:
            return self._execute(request)
        except Exception:
            log.exception("server failure on function 0x%02X", function)
            return ExceptionResponse(function, EXC_SERVER_FAILURE)

    def _execute(self, request: Pdu):
        """Answer a decoded request under the address rule (module docstring)."""
        fc, start, count = request.function, request.start, request.count
        first = start + 1
        end = self._run_end[fc].get(first)
        if end is None:
            return ExceptionResponse(fc, EXC_ILLEGAL_ADDRESS)
        if (
            count < 1
            or (fc == FC_READ_HOLDING and count > regmap.READ_LIMIT)
            or first + count - 1 > end
        ):
            return ExceptionResponse(fc, EXC_ILLEGAL_VALUE)

        image = self.state.image
        if fc == FC_READ_HOLDING:
            return Pdu(fc, start, count, image.holding[first : first + count])
        if fc == FC_READ_COILS:
            return Pdu(fc, start, count, image.coils[first : first + count])
        config, setpoints = self.state.config, self.state.setpoints_kw
        if fc in (FC_WRITE_COIL, FC_WRITE_COILS):
            for name, closed in zip(self.model.switch_names[start:], request.values):
                config = config.with_switch(name, closed)
        else:
            offset = first - regmap.SETPOINT_BLOCK_START
            setpoints = (*setpoints[:offset], *request.values, *setpoints[offset + count :])
        self._commit(config, setpoints)
        if fc in (FC_WRITE_COIL, FC_WRITE_REGISTER):
            return request  # single writes answer with the echo
        return Pdu(fc, start, count)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gridbed-server", description="Serve a feeder simulation over Modbus/TCP"
    )
    parser.add_argument("--feeder", required=True, help="feeder description JSON file")
    parser.add_argument("--bind", default=f"127.0.0.1:{DEFAULT_PORT}", help="addr:port")
    parser.add_argument(
        "--float-order",
        choices=("hi-lo", "lo-hi"),
        default="hi-lo",
        help="word order of the FLOAT32 mirror",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO)

    try:
        bind = parse_address(args.bind)
        model = load_feeder_file(args.feeder)
        server = FeederServer(model, bind=bind, high_word_first=args.float_order == "hi-lo")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}")
        return 1
    server.start()
    print(f"serving {args.feeder} on {server.address[0]}:{server.address[1]}", flush=True)
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
