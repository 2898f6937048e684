"""Modbus/TCP server fronting a live power-flow simulation.

The register store is bound to a feeder model: coil writes reconfigure
switches, setpoint-register writes change controllable loads, and the solver
re-runs synchronously so the voltage registers already reflect the new state
when the write response goes out.  All request processing is serialized
through one lock, which gives per-request atomicity and a total order over
writes.  Every write goes through :meth:`FeederServer._commit`, which solves
and renders the new state before swapping it in, so a failing write leaves
the previous state and image untouched and is answered with exception 0x04.

If a write produces a non-converging state the write is still accepted; the
voltage registers keep the last converged values and the status register is
set to 1 (stale) until a later write converges again.

Lifecycle: the constructor binds the listening socket, :meth:`FeederServer.start`
runs one accept thread, and every accepted connection is served by its own
daemon thread.  The accept thread waits in a selector on the listener and on
one end of a socket pair; :meth:`FeederServer.close` writes to the other end,
so it wakes the accept thread at once instead of waiting out a poll interval.
It then shuts down every open connection, joins all server threads and
closes the sockets.  ``close()`` is idempotent and returns at once on a
server that was never started.
"""

from __future__ import annotations

import argparse
import logging
import selectors
import socket
import struct
import threading
from dataclasses import dataclass, replace

from .. import regmap
from ..feeder import (
    PHASE_INDEX,
    FeederModel,
    SwitchConfig,
    apply_switch_config,
    load_feeder_file,
)
from ..powerflow import VoltageSolution, effective_overrides, solve
from ..regmap import MeterMap, RegisterImage, build_image
from . import frames
from .frames import (
    EXC_ILLEGAL_ADDRESS,
    EXC_ILLEGAL_FUNCTION,
    EXC_ILLEGAL_VALUE,
    EXC_SERVER_FAILURE,
    ExceptionResponse,
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
)

log = logging.getLogger("gridbed.server")

DEFAULT_PORT = 1502


def _merge_blocks(blocks: list[tuple[int, int]]) -> list[tuple[int, int]]:
    blocks = sorted(blocks)
    merged = [blocks[0]]
    for lo, hi in blocks[1:]:
        if lo <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return merged


@dataclass(frozen=True)
class ServerState:
    """Simulation + register state; the server swaps in a new one per write."""

    model: FeederModel
    meter_map: MeterMap
    config: SwitchConfig
    setpoints_kw: dict[str, int]
    image: RegisterImage
    solution: VoltageSolution
    stale: bool


class FeederServer:
    """Threaded Modbus/TCP server over one feeder simulation."""

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
        self._lock = threading.RLock()
        setpoints = {
            node: int(round(model.bus(node).load_kw[PHASE_INDEX[phase]]))
            for node, phase in self.meter_map.setpoints
        }
        self._commit(SwitchConfig.normal(model), setpoints)

        self._holding_blocks = _merge_blocks(
            [
                (regmap.VOLTAGE_BLOCK_START, len(self.meter_map.meters)),
                (
                    regmap.SETPOINT_BLOCK_START,
                    regmap.SETPOINT_BLOCK_START + len(self.meter_map.setpoints) - 1,
                ),
                (regmap.STATUS_REGISTER, regmap.STATUS_REGISTER),
                (
                    regmap.FLOAT_BLOCK_START,
                    regmap.FLOAT_BLOCK_START + 2 * len(self.meter_map.meters) - 1,
                ),
            ]
        )
        self._writable_registers = (
            regmap.SETPOINT_BLOCK_START,
            regmap.SETPOINT_BLOCK_START + len(self.meter_map.setpoints) - 1,
        )
        self._coil_range = (1, len(model.switch_names))

        self._listener = socket.create_server(bind)
        self._listener.setblocking(False)  # a peer may vanish before accept()
        self.address = self._listener.getsockname()
        self._wake_r, self._wake_w = socket.socketpair()
        self._closing = False
        self._conns: dict[socket.socket, threading.Thread] = {}
        self._conns_lock = threading.Lock()
        self._thread = threading.Thread(
            target=self._accept_loop, name="gridbed-server-accept", daemon=True
        )

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "FeederServer":
        if self._thread.is_alive():
            return self
        self._thread.start()
        log.info("serving %s:%d", *self.address)
        return self

    def close(self):
        """Stop accepting, drop every connection and join the server threads."""
        with self._conns_lock:
            if self._closing:
                return
            self._closing = True
        self._wake_w.send(b"\0")
        if self._thread.is_alive():
            self._thread.join()
        # A connection thread closes its socket only after leaving _conns, so
        # no socket is shut down here after its descriptor was released.
        with self._conns_lock:
            threads = list(self._conns.values())
            for sock in self._conns:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        for thread in threads:
            thread.join()
        for sock in (self._listener, self._wake_r, self._wake_w):
            sock.close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.close()

    def _accept_loop(self):
        with selectors.DefaultSelector() as selector:
            selector.register(self._listener, selectors.EVENT_READ)
            selector.register(self._wake_r, selectors.EVENT_READ)
            while True:
                selector.select()
                if self._closing:
                    return
                try:
                    sock, peer = self._listener.accept()
                except OSError:
                    continue
                sock.setblocking(True)
                thread = threading.Thread(
                    target=self._run_connection,
                    args=(sock,),
                    name=f"gridbed-server-conn-{peer[1]}",
                    daemon=True,
                )
                with self._conns_lock:
                    self._conns[sock] = thread
                thread.start()

    def _run_connection(self, sock: socket.socket):
        try:
            self._serve_connection(sock)
        except Exception:
            log.exception("connection thread failed")
        finally:
            with self._conns_lock:
                self._conns.pop(sock, None)
            sock.close()

    # -- simulation --------------------------------------------------------

    def _commit(self, config: SwitchConfig, setpoints: dict[str, int]):
        """Solve and render a new state, then swap it in.

        A non-converging solve keeps the last converged solution and marks
        the image stale; if anything raises, the current state stays.
        """
        view = apply_switch_config(self.model, config)
        overrides = self.meter_map.overrides(self.model, setpoints)
        solution = solve(self.model, view, effective_overrides(view, overrides))
        stale = not solution.converged
        if stale:
            if self.state is None:
                raise RuntimeError("base state does not converge; refusing to serve")
            solution = self.state.solution
        image = build_image(
            solution, setpoints, config, self.meter_map, stale, self.high_word_first
        )
        self.state = ServerState(
            self.model, self.meter_map, config, setpoints, image, solution, stale
        )

    def snapshot(self) -> ServerState:
        """Consistent copy of the live state (for tests and the orchestrator)."""
        with self._lock:
            return replace(self.state, setpoints_kw=dict(self.state.setpoints_kw))

    # -- protocol ----------------------------------------------------------

    def _serve_connection(self, sock: socket.socket):
        try:
            while True:
                head = _read_exact(sock, frames.MBAP_SIZE)
                if head is None:
                    return
                txn, proto, length, unit = struct.unpack(">HHHB", head)
                if proto != 0 or not 2 <= length <= 254:
                    log.warning("dropping connection: bad MBAP (proto=%d len=%d)", proto, length)
                    return
                pdu = _read_exact(sock, length - 1)
                if pdu is None:
                    return
                response = self._dispatch(pdu)
                header = frames.MbapHeader(transaction_id=txn, unit_id=unit)
                sock.sendall(frames.encode_frame(header, frames.encode_pdu(response)))
        except (ConnectionError, OSError):
            return

    def _dispatch(self, pdu: bytes):
        function = pdu[0]
        if function not in frames.SUPPORTED_FUNCTIONS:
            return ExceptionResponse(function & 0x7F, EXC_ILLEGAL_FUNCTION)
        try:
            request = frames.decode_request(pdu)
        except frames.FrameError:
            return ExceptionResponse(function & 0x7F, EXC_ILLEGAL_VALUE)
        with self._lock:
            try:
                return self._execute(request)
            except Exception:
                log.exception("server failure on function 0x%02X", function)
                return ExceptionResponse(function, EXC_SERVER_FAILURE)

    def _execute(self, request):
        if isinstance(request, ReadHoldingRequest):
            return self._read_holding(request)
        if isinstance(request, ReadCoilsRequest):
            return self._read_coils(request)
        if isinstance(request, WriteRegisterRequest):
            return self._write_registers(
                request.function, request.address + 1, [request.value], request
            )
        if isinstance(request, WriteRegistersRequest):
            return self._write_registers(
                request.function,
                request.start + 1,
                list(request.words),
                WriteRegistersResponse(request.start, len(request.words)),
            )
        if isinstance(request, WriteCoilRequest):
            if request.value not in (frames.COIL_ON, frames.COIL_OFF):
                return ExceptionResponse(request.function, EXC_ILLEGAL_VALUE)
            return self._write_coils(
                request.function,
                request.address + 1,
                [request.value == frames.COIL_ON],
                request,
            )
        if isinstance(request, WriteCoilsRequest):
            return self._write_coils(
                request.function,
                request.start + 1,
                list(request.bits),
                WriteCoilsResponse(request.start, len(request.bits)),
            )
        return ExceptionResponse(0, EXC_ILLEGAL_FUNCTION)

    def _read_holding(self, request: ReadHoldingRequest):
        first = request.start + 1
        block = next(
            (b for b in self._holding_blocks if b[0] <= first <= b[1]), None
        )
        if block is None:
            return ExceptionResponse(request.function, EXC_ILLEGAL_ADDRESS)
        if not 1 <= request.count <= regmap.READ_LIMIT:
            return ExceptionResponse(request.function, EXC_ILLEGAL_VALUE)
        if first + request.count - 1 > block[1]:
            return ExceptionResponse(request.function, EXC_ILLEGAL_VALUE)
        words = self.state.image.holding[first : first + request.count]
        return ReadHoldingResponse(tuple(words))

    def _read_coils(self, request: ReadCoilsRequest):
        first = request.start + 1
        lo, hi = self._coil_range
        if not lo <= first <= hi:
            return ExceptionResponse(request.function, EXC_ILLEGAL_ADDRESS)
        if request.count < 1:
            return ExceptionResponse(request.function, EXC_ILLEGAL_VALUE)
        if first + request.count - 1 > hi:
            return ExceptionResponse(request.function, EXC_ILLEGAL_VALUE)
        bits = self.state.image.coils[first : first + request.count]
        return ReadCoilsResponse(tuple(bits))

    def _write_registers(self, function: int, first: int, values: list[int], response):
        lo, hi = self._writable_registers
        if not lo <= first <= hi:
            return ExceptionResponse(function, EXC_ILLEGAL_ADDRESS)
        if first + len(values) - 1 > hi:
            return ExceptionResponse(function, EXC_ILLEGAL_VALUE)
        setpoints = dict(self.state.setpoints_kw)
        for offset, value in enumerate(values):
            node, _ = self.meter_map.setpoints[first - lo + offset]
            setpoints[node] = value
        self._commit(self.state.config, setpoints)
        return response

    def _write_coils(self, function: int, first: int, bits: list[bool], response):
        lo, hi = self._coil_range
        if not lo <= first <= hi:
            return ExceptionResponse(function, EXC_ILLEGAL_ADDRESS)
        if first + len(bits) - 1 > hi:
            return ExceptionResponse(function, EXC_ILLEGAL_VALUE)
        config = self.state.config
        for offset, closed in enumerate(bits):
            name = self.model.switch_names[first - lo + offset]
            config = config.with_switch(name, closed)
        self._commit(config, self.state.setpoints_kw)
        return response


def _read_exact(sock: socket.socket, n: int) -> bytes | None:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf += chunk
    return buf


def serve(
    model: FeederModel,
    meter_map: MeterMap | None = None,
    bind: tuple[str, int] = ("127.0.0.1", DEFAULT_PORT),
    high_word_first: bool = True,
) -> FeederServer:
    """Start a server and return its handle (caller closes)."""
    return FeederServer(model, meter_map, bind, high_word_first).start()


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

    host, _, port = args.bind.rpartition(":")
    model = load_feeder_file(args.feeder)
    server = serve(
        model,
        bind=(host or "127.0.0.1", int(port)),
        high_word_first=args.float_order == "hi-lo",
    )
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
