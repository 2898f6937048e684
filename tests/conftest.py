import json
import math
import socket
import threading

import pytest

from gridbed.feeder import load_default_feeder, load_feeder
from gridbed.modbus import frames
from gridbed.modbus.server import FeederServer
from gridbed.regmap import MeterMap


@pytest.fixture(autouse=True)
def no_server_thread_left_running():
    """Fail a test that leaves a server thread alive, as a missing close() does."""
    before = set(threading.enumerate())
    yield
    leaked = [
        t for t in threading.enumerate() if t.name == "gridbed-server" and t not in before
    ]
    assert not leaked, f"{len(leaked)} server thread(s) left running; close() the server"


# Values every number in every document must refuse, each a JSON value:
# json.dumps writes NaN and ±Infinity as JavaScript does, and json.loads
# reads them back; 10**400 is an integer past float range.
BAD_NUMBERS = [
    pytest.param(None, id="null"),
    pytest.param("0.01", id="string"),
    pytest.param(True, id="true"),
    pytest.param(math.nan, id="nan"),
    pytest.param(math.inf, id="inf"),
    pytest.param(-math.inf, id="-inf"),
    pytest.param(10**400, id="past-float-range"),
]


def zero3():
    return [[0.0] * 3 for _ in range(3)]


def z_matrix(entries):
    """3x3 (r, x) matrices from {(i, j): (r, x)} upper-triangle entries."""
    r = [[0.0] * 3 for _ in range(3)]
    x = [[0.0] * 3 for _ in range(3)]
    for (i, j), (rr, xx) in entries.items():
        r[i][j] = r[j][i] = rr
        x[i][j] = x[j][i] = xx
    return r, x


def two_bus_doc(load_kw=100.0, load_kvar=0.0, r=0.01, x=0.01, phase="A"):
    """Source + one load bus over one single-phase line.

    Base 1.0 kV line-to-neutral / 3000 kVA makes the one-phase impedance base
    exactly 1 ohm, so r and x are also per-unit values.
    """
    idx = {"A": 0, "B": 1, "C": 2}[phase]
    kw = [0.0] * 3
    kvar = [0.0] * 3
    kw[idx] = load_kw
    kvar[idx] = load_kvar
    rm, xm = z_matrix({(idx, idx): (r, x)})
    return {
        "base_kv_ln": 1.0,
        "base_kva": 3000.0,
        "source": "B0",
        "buses": [
            {"id": "B0", "phases": phase, "load_kw": [0, 0, 0], "load_kvar": [0, 0, 0]},
            {"id": "B1", "phases": phase, "load_kw": kw, "load_kvar": kvar},
        ],
        "branches": [{"from": "B0", "to": "B1", "r_ohm": rm, "x_ohm": xm}],
    }


def four_bus_doc():
    """Three-phase chain with a two-phase spur; unbalanced loads."""
    trunk_r, trunk_x = z_matrix(
        {
            (0, 0): (0.02, 0.04), (1, 1): (0.02, 0.04), (2, 2): (0.02, 0.04),
            (0, 1): (0.004, 0.01), (0, 2): (0.004, 0.01), (1, 2): (0.004, 0.01),
        }
    )
    spur_r, spur_x = z_matrix(
        {(0, 0): (0.05, 0.05), (1, 1): (0.05, 0.05), (0, 1): (0.008, 0.012)}
    )
    return {
        "base_kv_ln": 2.4018,
        "base_kva": 5000.0,
        "source": "S",
        "buses": [
            {"id": "S", "phases": "ABC", "load_kw": [0, 0, 0], "load_kvar": [0, 0, 0]},
            {"id": "M", "phases": "ABC", "load_kw": [50, 20, 80], "load_kvar": [20, 5, 30]},
            {"id": "T", "phases": "ABC", "load_kw": [0, 120, 40], "load_kvar": [0, 40, 10]},
            {"id": "U", "phases": "AB", "load_kw": [60, 35, 0], "load_kvar": [25, 10, 0]},
        ],
        "branches": [
            {"from": "S", "to": "M", "r_ohm": trunk_r, "x_ohm": trunk_x},
            {"from": "M", "to": "T", "r_ohm": trunk_r, "x_ohm": trunk_x},
            {"from": "M", "to": "U", "r_ohm": spur_r, "x_ohm": spur_x},
        ],
    }


def three_bus_switch_doc():
    """Source, load bus, and a spur behind a normally-open switch plus a
    normally-closed switch in line; used for topology tests."""
    r1, x1 = z_matrix({(0, 0): (0.02, 0.02)})
    return {
        "base_kv_ln": 1.0,
        "base_kva": 3000.0,
        "source": "B0",
        "buses": [
            {"id": "B0", "phases": "A", "load_kw": [0, 0, 0], "load_kvar": [0, 0, 0]},
            {"id": "B1", "phases": "A", "load_kw": [50, 0, 0], "load_kvar": [10, 0, 0]},
            {"id": "B2", "phases": "A", "load_kw": [0, 0, 0], "load_kvar": [0, 0, 0]},
        ],
        "branches": [
            {"from": "B0", "to": "B1", "r_ohm": r1, "x_ohm": x1},
            {"from": "B1", "to": "B2", "r_ohm": zero3(), "x_ohm": zero3(),
             "switch": "SW1", "normal": "closed"},
            {"from": "B0", "to": "B2", "r_ohm": zero3(), "x_ohm": zero3(),
             "switch": "SW2", "normal": "open"},
        ],
    }


@pytest.fixture(scope="session")
def fixture_model():
    return load_default_feeder()


@pytest.fixture(scope="session")
def fixture_meter_map(fixture_model):
    return MeterMap.for_model(fixture_model)


@pytest.fixture()
def two_bus_model():
    return load_feeder(json.dumps(two_bus_doc()))


@pytest.fixture()
def four_bus_model():
    return load_feeder(json.dumps(four_bus_doc()))


@pytest.fixture()
def live_server(fixture_model, fixture_meter_map):
    server = FeederServer(fixture_model, fixture_meter_map, bind=("127.0.0.1", 0))
    server.start()
    yield server
    server.close()


def mbap_frame(txn, pdu):
    """A whole MBAP frame, unit id 1, carrying a request or response object."""
    return frames.encode_frame(frames.MbapHeader(txn, 1), frames.encode_pdu(pdu))


class ScriptedPeer:
    """Loopback peer that accepts one connection and answers its k-th request
    with ``replies[k]``: bytes to send, or None to stay silent, as it does
    past the end of the script.  ``requests`` holds the (header, PDU) of each
    request received."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.requests = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self.address = self._listener.getsockname()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        # Short timeouts let close() stop a peer that is still waiting.
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                continue
            with conn:
                conn.settimeout(0.05)
                self._answer(conn)
            return

    def _answer(self, conn):
        inbox = bytearray()
        while not self._stop.is_set():
            try:
                frame = frames.receive_frame(conn, inbox)
                self.requests.append(frame)
                k = len(self.requests) - 1
                if k < len(self.replies) and self.replies[k] is not None:
                    conn.sendall(self.replies[k])
            except TimeoutError:
                continue
            except (EOFError, OSError):
                return  # the client hung up

    def join(self):
        """Wait until the client has hung up and every request it sent is counted."""
        self._thread.join(5.0)
        assert not self._thread.is_alive(), "scripted peer is still connected"

    def close(self):
        self._stop.set()
        self.join()
        self._listener.close()


@pytest.fixture()
def scripted_peer():
    """Start a :class:`ScriptedPeer` from a list of replies; each one started
    is stopped, joined and closed at teardown."""
    peers = []

    def start(replies):
        peers.append(ScriptedPeer(replies))
        return peers[-1]

    yield start
    for peer in peers:
        peer.close()
