"""Live server over loopback TCP: semantics, exceptions, concurrency."""

import json
import random
import socket
import struct
import threading
import time

import pytest

from gridbed.feeder import load_feeder
from gridbed.modbus import frames
from gridbed.modbus.client import ModbusClient, ModbusExceptionError
from gridbed.modbus.server import FeederServer
from gridbed.regmap import (
    FLOAT_BLOCK_START,
    SETPOINT_BLOCK_START,
    STATUS_REGISTER,
    MeterMap,
    RegisterMapError,
    build_image,
    decode_float_pair,
    decode_voltage_word,
)

from conftest import mbap_frame, three_bus_switch_doc, two_bus_doc
from oracles import demand_with, modbus_address_sets, modbus_address_verdict


def _client(server):
    return ModbusClient(*server.address)


def _write_register(client, register, value):
    """FC06: write one holding register, by its 1-based number."""
    client.request(frames.Pdu(frames.FC_WRITE_REGISTER, register - 1, 1, (value,)))


def _setpoint_write(kw):
    """An FC06 request for the first setpoint register."""
    return frames.Pdu(frames.FC_WRITE_REGISTER, SETPOINT_BLOCK_START - 1, 1, (kw,))


# ---------------------------------------------------------------------------
# read/write semantics
# ---------------------------------------------------------------------------


def _bits(values):
    return [struct.pack(">d", v) for v in values]


@pytest.mark.parametrize("high_word_first", [True, False])
def test_read_all_voltages_decodes_as_the_word_helpers(fixture_meter_map, high_word_first):
    """Both sources decode bit for bit as the per-word codec helpers do,
    NaN and infinity patterns included, on random register contents."""
    rng = random.Random(15)
    n = len(fixture_meter_map.meters)
    holding = {r: rng.randrange(0x10000) for r in range(1, FLOAT_BLOCK_START + 2 * n)}
    specials = [(0x7F80, 0x0001), (0xFF80, 0x0000), (0x7FC0, 0x1234), (0x7F80, 0x0000), (0, 1)]
    for k, pair in enumerate(specials):
        pair = pair if high_word_first else pair[::-1]
        holding[FLOAT_BLOCK_START + 2 * k], holding[FLOAT_BLOCK_START + 2 * k + 1] = pair
    client = ModbusClient.__new__(ModbusClient)
    client.read_holding = lambda first, count: [holding[first + i] for i in range(count)]

    scaled = client.read_all_voltages(fixture_meter_map, "scaled", high_word_first)
    exact = client.read_all_voltages(fixture_meter_map, "float", high_word_first)
    assert type(scaled) is type(exact) is tuple
    assert _bits(scaled) == _bits(decode_voltage_word(holding[1 + k]) for k in range(n))
    pairs = [[holding[FLOAT_BLOCK_START + 2 * k + i] for i in (0, 1)] for k in range(n)]
    assert _bits(exact) == _bits(decode_float_pair(p, high_word_first) for p in pairs)


def test_read_all_voltages_baseline(live_server, fixture_meter_map):
    with _client(live_server) as client:
        mags = client.read_all_voltages(fixture_meter_map)
    assert len(mags) == 206
    assert all(0.9 < m <= 1.0001 for m in mags)


def test_float_mirror_agrees_with_scaled(live_server, fixture_meter_map):
    with _client(live_server) as client:
        scaled = client.read_all_voltages(fixture_meter_map, source="scaled")
        exact = client.read_all_voltages(fixture_meter_map, source="float")
    for s, e in zip(scaled, exact, strict=True):
        assert abs(s - e) <= 5e-5


def test_write_coil_read_your_writes(live_server, fixture_model, fixture_meter_map):
    with _client(live_server) as client:
        before = client.read_all_voltages(fixture_meter_map)
        client.write_switch(fixture_model.switch_names, "S7", True)
        coils = client.read_switches(fixture_model.switch_names)
        assert coils["S7"] is True
        after = client.read_all_voltages(fixture_meter_map)
        # topology changed, so the voltage image must have moved
        assert any(abs(b - a) > 1e-4 for b, a in zip(before, after))
        client.write_switch(fixture_model.switch_names, "S7", False)
        restored = client.read_all_voltages(fixture_meter_map)
    assert restored == before


def test_rewrite_same_coil_value_changes_nothing(live_server, fixture_model, fixture_meter_map):
    with _client(live_server) as client:
        before = client.read_all_voltages(fixture_meter_map)
        client.write_switch(fixture_model.switch_names, "S1", True)  # already closed
        after = client.read_all_voltages(fixture_meter_map)
    assert before == after


def test_setpoint_write_refreshes_voltages(live_server, fixture_meter_map):
    with _client(live_server) as client:
        before = client.read_all_voltages(fixture_meter_map)
        _write_register(client, SETPOINT_BLOCK_START, 160)  # N102 -> 160 kW
        reread = client.read_setpoints(fixture_meter_map)
        assert reread == (160,) + (40,) * (len(fixture_meter_map.setpoints) - 1)
        after = client.read_all_voltages(fixture_meter_map)
        k = fixture_meter_map.meters.index(("N102", "C"))
        assert after[k] < before[k]
        # restore
        _write_register(client, SETPOINT_BLOCK_START, 40)
    assert client is not None


def test_write_setpoints_pattern_reads_back(live_server, fixture_meter_map):
    pattern = (80, 80, 80, 1, 1, 1, 1, 1, 1)  # N102..N104 on C at 80 kW, the rest at 1
    with _client(live_server) as client:
        client.write_setpoints(fixture_meter_map, pattern)
        assert client.read_setpoints(fixture_meter_map) == pattern
        mags = client.read_all_voltages(fixture_meter_map)
        assert min(mags) < 0.95  # the overload bites
        client.write_setpoints(fixture_meter_map, (40,) * len(pattern))


def test_setpoint_write_loopback_matches_direct_solve(
    live_server, fixture_model, fixture_meter_map
):
    """Register 207 = 80 kW, then the full chunked voltage read must agree
    with an independent solve of the same state to register resolution."""
    from gridbed.feeder import SwitchConfig, apply_switch_config
    from gridbed.powerflow import solve

    with _client(live_server) as client:
        _write_register(client, SETPOINT_BLOCK_START, 80)  # N102 -> 80 kW
        calls = []
        original = client.request
        client.request = lambda req: calls.append(req) or original(req)
        mags = client.read_all_voltages(fixture_meter_map)
        client.request = original
        _write_register(client, SETPOINT_BLOCK_START, 40)
    assert len(calls) == 2  # 206 registers in two chunks

    demand = demand_with(fixture_model, {"N102": {"C": (80.0, 0.0)}})
    # remaining controllable nodes sit at their base 40 kW
    view = apply_switch_config(fixture_model, SwitchConfig.normal(fixture_model))
    direct = solve(fixture_model, view, demand).magnitudes()
    for d, read in zip(direct, mags, strict=True):
        assert abs(d - read) <= 5e-5


def test_write_setpoints_full_map_is_one_fc16_request(live_server, fixture_meter_map):
    pattern = tuple(30 + k for k in range(len(fixture_meter_map.setpoints)))
    with _client(live_server) as client:
        sent = []
        original = client.request
        client.request = lambda req: sent.append(req) or original(req)
        client.write_setpoints(fixture_meter_map, pattern)
        assert [req.function for req in sent] == [frames.FC_WRITE_REGISTERS]
        assert client.read_setpoints(fixture_meter_map) == pattern


def test_write_setpoints_validates_nodes_and_range(live_server, fixture_meter_map):
    # a vector must cover every setpoint register with a 16-bit whole kW, an
    # int the client neither truncates nor parses, and a bad one is refused
    # before anything is sent
    k = len(fixture_meter_map.setpoints)
    with _client(live_server) as client:
        before = client.read_setpoints(fixture_meter_map)
        sent = []
        original = client.request
        client.request = lambda req: sent.append(req) or original(req)
        for short_or_long in ((99,), (40,) * (k - 1), (40,) * (k + 1)):
            with pytest.raises(ValueError, match=f"setpoints for a map of {k}"):
                client.write_setpoints(fixture_meter_map, short_or_long)
        for bad in (70000, -1, 40.7, "41", True):
            with pytest.raises(RegisterMapError, match="kW for N103.C not a 16-bit value"):
                client.write_setpoints(fixture_meter_map, (40, bad) + (40,) * (k - 2))
        assert sent == []
        client.request = original
        assert client.read_setpoints(fixture_meter_map) == before


def test_setpoints_on_several_phases_of_one_bus_stay_apart(fixture_model):
    # one register per (bus, phase): three phases of N8 are three setpoints
    meter_map = MeterMap.for_model(fixture_model, [("N8", "A"), ("N8", "B"), ("N8", "C")])
    with FeederServer(fixture_model, meter_map, bind=("127.0.0.1", 0)).start() as server:
        with _client(server) as client:
            client.write_registers(SETPOINT_BLOCK_START, [1, 2, 3])
            assert client.read_setpoints(meter_map) == (1, 2, 3)
            assert client.read_holding(SETPOINT_BLOCK_START, 3) == [1, 2, 3]
            _write_register(client, SETPOINT_BLOCK_START + 1, 7)
            assert client.read_setpoints(meter_map) == (1, 7, 3)
        assert server.state.setpoints_kw == (1, 7, 3)


def test_write_switch_unmapped_name(live_server, fixture_model):
    with _client(live_server) as client:
        with pytest.raises(ValueError, match="S99"):
            client.write_switch(fixture_model.switch_names, "S99", True)


# ---------------------------------------------------------------------------
# exception taxonomy
# ---------------------------------------------------------------------------


def test_read_quantity_126_is_illegal_value(live_server):
    with _client(live_server) as client:
        with pytest.raises(ModbusExceptionError) as exc:
            client.read_holding(1, 126)
    assert exc.value.code == frames.EXC_ILLEGAL_VALUE


def test_read_unmapped_start_is_illegal_address(live_server):
    with _client(live_server) as client:
        with pytest.raises(ModbusExceptionError) as exc:
            client.read_holding(700, 2)
    assert exc.value.code == frames.EXC_ILLEGAL_ADDRESS


def test_read_overrunning_block_is_illegal_value(live_server):
    with _client(live_server) as client:
        with pytest.raises(ModbusExceptionError) as exc:
            client.read_holding(210, 10)  # runs past register 215
    assert exc.value.code == frames.EXC_ILLEGAL_VALUE


def test_write_to_voltage_register_is_illegal_address(live_server):
    with _client(live_server) as client:
        with pytest.raises(ModbusExceptionError) as exc:
            _write_register(client, 5, 1234)
    assert exc.value.code == frames.EXC_ILLEGAL_ADDRESS


def test_write_coil_bad_value_is_illegal_value(live_server):
    raw = frames.encode_frame(frames.MbapHeader(9, 1), bytes.fromhex("0500001234"))
    with socket.create_connection(live_server.address, timeout=5.0) as sock:
        sock.sendall(raw)
        _, _, length, _ = struct.unpack(">HHHB", _recv_exact(sock, 7))
        pdu = _recv_exact(sock, length - 1)
    assert pdu == bytes([0x05 | 0x80, frames.EXC_ILLEGAL_VALUE])


def test_unknown_function_code_is_illegal_function(live_server):
    raw = frames.encode_frame(frames.MbapHeader(9, 1), bytes([0x2B, 0x0E, 0x01, 0x00]))
    with socket.create_connection(live_server.address, timeout=5.0) as sock:
        sock.sendall(raw)
        head = sock.recv(7)
        txn, proto, length, unit = struct.unpack(">HHHB", head)
        pdu = sock.recv(length - 1)
    assert txn == 9
    assert pdu[0] == 0x2B | 0x80
    assert pdu[1] == frames.EXC_ILLEGAL_FUNCTION


def test_malformed_requests_always_get_one_of_three_codes(live_server):
    rng = random.Random(42)
    with socket.create_connection(live_server.address, timeout=5.0) as sock:
        for txn in range(200):
            fc = rng.choice([0x01, 0x03, 0x05, 0x06, 0x0F, 0x10, 0x07, 0x2B, 0x55])
            body = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 12)))
            pdu = bytes([fc]) + body
            sock.sendall(frames.encode_frame(frames.MbapHeader(txn, 1), pdu))
            head = _recv_exact(sock, 7)
            rtxn, proto, length, _ = struct.unpack(">HHHB", head)
            rpdu = _recv_exact(sock, length - 1)
            assert rtxn == txn
            if rpdu[0] & 0x80:
                assert rpdu[1] in (0x01, 0x02, 0x03)
            else:
                assert rpdu[0] == fc  # well-formed by luck: normal response


def _recv_exact(sock, n):
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        assert chunk, "server closed mid-frame"
        buf += chunk
    return buf


def _probe_request(function, first, count):
    """A request for ``count`` registers from ``first`` and the values it
    writes, or None when its PDU cannot carry that count."""
    start = first - 1
    if function == 0x01:
        return frames.Pdu(frames.FC_READ_COILS, start, count), None
    if function == 0x03:
        return frames.Pdu(frames.FC_READ_HOLDING, start, count), None
    if function == 0x05:
        values = (first % 2 == 1,)
    elif function == 0x06:
        values = (40 + first % 7,)
    elif function == 0x0F and 1 <= count <= 1968:
        values = tuple(k % 3 != 0 for k in range(count))
    elif function == 0x10 and 1 <= count <= 123:
        values = tuple(40 + k for k in range(count))
    else:
        return None
    return frames.Pdu(function, start, len(values), values), values


def _read_back(server, function, first, count):
    """What a read of the span a write of ``function`` touched returns."""
    read = frames.FC_READ_COILS if function in (0x05, 0x0F) else frames.FC_READ_HOLDING
    return server._dispatch(frames.encode_pdu(frames.Pdu(read, first - 1, count))).values


@pytest.mark.parametrize("model_name", ["bundled", "three_bus_switch"])
def test_address_rule_matches_reference(model_name, fixture_model, fixture_meter_map):
    # On the bundled feeder the voltage and setpoint blocks touch (1..215 is
    # one run); on the three-bus model no two blocks touch.
    if model_name == "bundled":
        model, meter_map = fixture_model, fixture_meter_map
    else:
        model = load_feeder(json.dumps(three_bus_switch_doc()))
        meter_map = MeterMap.for_model(model, setpoint_nodes=[("B1", "A"), ("B2", "A")])
    mapped = modbus_address_sets(
        len(meter_map.meters), len(meter_map.setpoints), len(model.switch_names)
    )
    # every run's edges and their neighbours, the ends of the address space,
    # and 200 (200..215 crosses two touching blocks)
    firsts = {1, 200, 0x10000}
    for registers in mapped.values():
        for r in registers:
            if r - 1 not in registers or r + 1 not in registers:
                firsts |= {r - 1, r, r + 1}
    probes = [
        (function, first, count)
        for function in sorted(mapped)
        for first in sorted(r for r in firsts if 1 <= r <= 0x10000)
        for count in (
            (0, 1, 2, 3, 16, 17, 124, 125, 126, 0xFFFF) if function in (1, 3, 15, 16) else (1,)
        )
    ]

    server = FeederServer(model, meter_map)
    try:
        served = 0
        for function, first, count in probes:
            probe = _probe_request(function, first, count)
            if probe is None:
                continue
            request, written = probe
            response = server._dispatch(frames.encode_pdu(request))
            code = modbus_address_verdict(mapped, function, first, count)
            if code is not None:
                assert response == frames.ExceptionResponse(function, code), probe
                continue
            assert not isinstance(response, frames.ExceptionResponse), probe
            served += 1
            if written is not None:
                assert _read_back(server, function, first, count) == written
        assert served > 0
    finally:
        server.close()


# ---------------------------------------------------------------------------
# invariants: purity of reads, txn ids, atomicity
# ---------------------------------------------------------------------------


def test_reads_do_not_mutate_state(live_server, fixture_meter_map):
    # the state is immutable throughout, so readers share it without a copy
    assert not live_server.state.solution.voltages.flags.writeable
    first = live_server.state.image
    with _client(live_server) as client:
        client.read_all_voltages(fixture_meter_map)
        client.read_all_voltages(fixture_meter_map, source="float")
        client.read_coils(1, 8)
        client.read_holding(STATUS_REGISTER, 1)
    assert live_server.state.image == first


def test_transaction_ids_echoed(live_server):
    with socket.create_connection(live_server.address, timeout=5.0) as sock:
        rng = random.Random(3)
        for _ in range(50):
            txn = rng.randrange(0, 0x10000)
            pdu = frames.encode_pdu(frames.Pdu(frames.FC_READ_HOLDING, 0, 1))
            sock.sendall(frames.encode_frame(frames.MbapHeader(txn, 17), pdu))
            head = _recv_exact(sock, 7)
            rtxn, _, length, unit = struct.unpack(">HHHB", head)
            _recv_exact(sock, length - 1)
            assert rtxn == txn
            assert unit == 17  # unit id echoed


def test_concurrent_reads_never_see_torn_writes(fixture_model, fixture_meter_map):
    """A single read response must be consistent with exactly one write epoch."""
    server = FeederServer(fixture_model, fixture_meter_map, bind=("127.0.0.1", 0)).start()
    try:
        patterns = [
            (40,) * len(fixture_meter_map.setpoints),
            (160, 160, 160, 1, 1, 1, 1, 1, 1),  # N102..N104 on C at 160 kW
        ]
        legal_images = []
        with _client(server) as probe:
            for pat in patterns:
                probe.write_setpoints(fixture_meter_map, pat)
                legal_images.append(tuple(probe.read_holding(1, 125)))

        stop = threading.Event()
        torn = []

        def writer():
            with _client(server) as client:
                k = 0
                while not stop.is_set():
                    client.write_setpoints(fixture_meter_map, patterns[k % 2])
                    k += 1

        def reader():
            with _client(server) as client:
                while not stop.is_set():
                    words = tuple(client.read_holding(1, 125))
                    if words not in legal_images:
                        torn.append(words)
                        return

        threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
        for t in threads:
            t.start()
        import time

        time.sleep(1.5)
        stop.set()
        for t in threads:
            t.join(timeout=5)
        assert not torn
    finally:
        server.close()


# ---------------------------------------------------------------------------
# solver failure handling
# ---------------------------------------------------------------------------


def test_non_converging_write_sets_stale_flag():
    model = load_feeder(json.dumps(two_bus_doc(load_kw=100.0)))
    meter_map = MeterMap.for_model(model, setpoint_nodes=[("B1", "A")])
    server = FeederServer(model, meter_map, bind=("127.0.0.1", 0)).start()
    try:
        with _client(server) as client:
            good = client.read_holding(1, 2)
            assert client.read_holding(STATUS_REGISTER, 1) == [0]
            _write_register(client, SETPOINT_BLOCK_START, 60000)  # undeliverable
            assert client.read_holding(STATUS_REGISTER, 1) == [1]
            # voltage registers hold the last converged values
            assert client.read_holding(1, 2) == good
            # the commanded setpoint is still visible
            assert client.read_holding(SETPOINT_BLOCK_START, 1) == [60000]
            _write_register(client, SETPOINT_BLOCK_START, 100)
            assert client.read_holding(STATUS_REGISTER, 1) == [0]
    finally:
        server.close()


def test_setpoint_on_dead_bus_is_stored_not_applied():
    # B0 --line-- B1 --SW1-- B2, tie SW2 (B0-B2) open; setpoints drive B2
    model = load_feeder(json.dumps(three_bus_switch_doc()))
    meter_map = MeterMap.for_model(model, setpoint_nodes=[("B2", "A")])
    server = FeederServer(model, meter_map, bind=("127.0.0.1", 0)).start()
    try:
        with _client(server) as client:
            client.write_switch(model.switch_names, "SW1", False)  # B2 goes dark
            b2 = meter_map.meters.index(("B2", "A"))
            assert client.read_all_voltages(meter_map)[b2] == 0.0
            _write_register(client, SETPOINT_BLOCK_START, 500)  # stored, dead bus
            assert client.read_setpoints(meter_map) == (500,)
            client.write_switch(model.switch_names, "SW1", True)
            mags = client.read_all_voltages(meter_map)
            assert 0 < mags[b2] < 1.0  # now the load applies
    finally:
        server.close()


def test_internal_failure_answers_0x04_and_keeps_state(
    monkeypatch, live_server, fixture_meter_map
):
    from gridbed.modbus import server as server_module

    def broken_build_image(*args, **kwargs):
        raise RuntimeError("image rendering failed")

    with _client(live_server) as client:
        setpoints = client.read_setpoints(fixture_meter_map)
        voltages = client.read_all_voltages(fixture_meter_map)
        status = client.read_holding(STATUS_REGISTER, 1)
        monkeypatch.setattr(server_module, "build_image", broken_build_image)
        with pytest.raises(ModbusExceptionError) as exc:
            _write_register(client, SETPOINT_BLOCK_START, 160)
        monkeypatch.undo()
        assert exc.value.code == frames.EXC_SERVER_FAILURE
        # the same connection still serves, and nothing of the write landed
        assert client.read_setpoints(fixture_meter_map) == setpoints
        assert client.read_all_voltages(fixture_meter_map) == voltages
        assert client.read_holding(STATUS_REGISTER, 1) == status
    state = live_server.state
    assert state.image == build_image(
        state.solution, state.setpoints_kw, state.config, fixture_meter_map, state.stale
    )


def test_close_of_unstarted_server_returns(fixture_model, fixture_meter_map):
    server = FeederServer(fixture_model, fixture_meter_map, bind=("127.0.0.1", 0))
    closer = threading.Thread(target=server.close, daemon=True)
    closer.start()
    closer.join(timeout=2.0)
    assert not closer.is_alive()


def _server_threads():
    return {t for t in threading.enumerate() if t.name == "gridbed-server"}


def test_close_is_prompt_and_releases_port_connections_and_threads(
    fixture_model, fixture_meter_map
):
    server = FeederServer(fixture_model, fixture_meter_map, bind=("127.0.0.1", 0))
    already_running = _server_threads()
    server.start()
    with _client(server) as idle, _client(server) as second, _client(server) as third:
        for client in (idle, second, third):
            assert client.read_holding(STATUS_REGISTER, 1) == [0]
        started = _server_threads() - already_running
        assert len(started) == 1  # one thread serves every connection

        t0 = time.perf_counter()
        server.close()
        assert time.perf_counter() - t0 < 0.1  # no poll interval to wait out

        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(server.address, timeout=1.0)
        with pytest.raises(ConnectionError):
            idle.read_holding(STATUS_REGISTER, 1)
    assert not [t for t in started if t.is_alive()]
    server.close()  # idempotent


def test_connection_failure_is_logged_and_closes_only_that_socket(
    monkeypatch, caplog, live_server
):
    def broken_dispatch(pdu):
        raise KeyError("dispatch bug")

    with _client(live_server) as bystander, _client(live_server) as victim:
        assert bystander.read_holding(STATUS_REGISTER, 1) == [0]
        monkeypatch.setattr(live_server, "_dispatch", broken_dispatch)
        with pytest.raises(ConnectionError):
            victim.read_holding(STATUS_REGISTER, 1)
        monkeypatch.undo()
        assert bystander.read_holding(STATUS_REGISTER, 1) == [0]
    # the server logs before it closes the socket the victim saw close
    [record] = caplog.records
    assert record.getMessage() == "connection failed"
    assert record.exc_info[0] is KeyError


# ---------------------------------------------------------------------------
# framing, fairness and backpressure on the one server thread
# ---------------------------------------------------------------------------


def _read_reply(sock):
    txn, _, length, _ = struct.unpack(">HHHB", _recv_exact(sock, 7))
    return txn, _recv_exact(sock, length - 1)


def _connect(server):
    sock = socket.create_connection(server.address, timeout=10.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def test_request_sent_a_byte_at_a_time_is_answered(live_server):
    request = frames.Pdu(frames.FC_READ_HOLDING, SETPOINT_BLOCK_START - 1, 3)
    raw = mbap_frame(7, request)
    with _connect(live_server) as sock:
        for k in range(len(raw)):
            sock.sendall(raw[k : k + 1])
            time.sleep(0.002)
        txn, pdu = _read_reply(sock)
    assert txn == 7
    assert frames.decode_response(pdu, request).values == (40, 40, 40)


def test_pipelined_requests_are_answered_in_order(live_server):
    requests = []
    for k in range(25):  # each read must see the write just before it
        requests.append(_setpoint_write(10 + k))
        requests.append(frames.Pdu(frames.FC_READ_HOLDING, SETPOINT_BLOCK_START - 1, 1))
    with _connect(live_server) as sock:
        sock.sendall(b"".join(mbap_frame(100 + k, r) for k, r in enumerate(requests)))
        replies = [_read_reply(sock) for _ in requests]
    assert [txn for txn, _ in replies] == list(range(100, 150))
    for k, (request, (_, pdu)) in enumerate(zip(requests, replies)):
        response = frames.decode_response(pdu, request)
        if k % 2:
            assert response.values == (10 + k // 2,)
        else:
            assert response == request


def test_random_stream_cut_anywhere_gets_one_answer_per_frame(live_server):
    rng = random.Random(7)
    pdus = [
        bytes([rng.choice([0x01, 0x03, 0x05, 0x06, 0x0F, 0x10, 0x07, 0x2B, 0x55])])
        + bytes(rng.randrange(256) for _ in range(rng.randrange(0, 12)))
        for _ in range(120)
    ]
    stream = b"".join(
        frames.encode_frame(frames.MbapHeader(txn, 1), pdu) for txn, pdu in enumerate(pdus)
    )
    cuts = sorted(rng.sample(range(1, len(stream)), 80))
    with _connect(live_server) as sock:
        for lo, hi in zip([0] + cuts, cuts + [len(stream)]):
            sock.sendall(stream[lo:hi])
            time.sleep(0.001)
        for txn, pdu in enumerate(pdus):
            rtxn, rpdu = _read_reply(sock)
            assert rtxn == txn
            if rpdu[0] & 0x80:
                assert rpdu[0] == pdu[0] | 0x80
                assert rpdu[1] in (0x01, 0x02, 0x03)
            else:
                assert rpdu[0] == pdu[0]  # well-formed by luck: normal response
        # the connection still serves after the stream
        sock.sendall(mbap_frame(999, frames.Pdu(frames.FC_READ_HOLDING, STATUS_REGISTER - 1, 1)))
        assert _read_reply(sock)[0] == 999


def test_bad_protocol_id_drops_only_that_connection(live_server, caplog):
    request = frames.encode_pdu(frames.Pdu(frames.FC_READ_HOLDING, 0, 1))
    with _connect(live_server) as bad, _client(live_server) as good:
        assert good.read_holding(STATUS_REGISTER, 1) == [0]
        bad.sendall(struct.pack(">HHHB", 1, 1, len(request) + 1, 1) + request)
        try:
            dropped = bad.recv(16) == b""
        except ConnectionResetError:  # closed with the PDU still unread
            dropped = True
        assert dropped
        assert good.read_holding(STATUS_REGISTER, 1) == [0]
    assert "bad MBAP (proto=1" in caplog.text


def test_pipelined_burst_does_not_starve_another_peer(monkeypatch, live_server):
    request = frames.Pdu(frames.FC_READ_HOLDING, SETPOINT_BLOCK_START - 1, 1)
    with _connect(live_server) as burst, _connect(live_server) as reader:
        # both connections are accepted before the burst
        for sock in (burst, reader):
            sock.sendall(mbap_frame(0, request))
            assert frames.decode_response(_read_reply(sock)[1], request).values == (40,)
        # the first write is held until the read is sent, so the server's
        # next select finds both peers' frames pending
        sent, dispatch = threading.Event(), live_server._dispatch

        def held_dispatch(pdu):
            sent.wait(10.0)
            return dispatch(pdu)

        monkeypatch.setattr(live_server, "_dispatch", held_dispatch)
        burst.sendall(b"".join(mbap_frame(1 + k, _setpoint_write(41 + k)) for k in range(40)))
        reader.sendall(mbap_frame(0, request))
        sent.set()
        [kw] = frames.decode_response(_read_reply(reader)[1], request).values
        assert [_read_reply(burst)[0] for _ in range(40)] == list(range(1, 41))
    assert kw < 50  # fewer than 10 of the 40 writes ran before the read


def test_peer_that_never_reads_is_not_read_and_does_not_stall_others(live_server):
    # 125-register reads whose answers overflow the socket buffers long
    # before the stream ends, unless the server buffers them without bound
    stream = memoryview(mbap_frame(1, frames.Pdu(frames.FC_READ_HOLDING, 0, 125)) * 100_000)
    with socket.socket() as hog:
        hog.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        hog.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        hog.connect(live_server.address)
        hog.setblocking(False)
        sent, since = 0, time.monotonic()
        while sent < len(stream) and time.monotonic() - since < 0.5:
            try:
                sent += hog.send(stream[sent : sent + 65536])
                since = time.monotonic()
            except BlockingIOError:
                time.sleep(0.01)
        assert sent < len(stream)  # the server stopped reading the hog
        with _client(live_server) as client:
            assert client.read_holding(STATUS_REGISTER, 1) == [0]


def test_half_sent_header_does_not_stall_others(live_server):
    with _connect(live_server) as stalled:
        stalled.sendall(b"\x00\x01\x00")
        with _client(live_server) as client:
            assert client.read_holding(STATUS_REGISTER, 1) == [0]


def test_interleaved_writes_from_two_connections_keep_image_consistent(
    live_server, fixture_model, fixture_meter_map
):
    from gridbed.feeder import apply_switch_config
    from gridbed.powerflow import solve

    names = fixture_model.switch_names
    count = len(fixture_meter_map.setpoints)
    last_closed, last_kw = {}, {}

    def writer(seed, switches, registers):
        rng = random.Random(seed)
        with _client(live_server) as client:
            for _ in range(40):
                if rng.random() < 0.5:
                    name, closed = rng.choice(switches), rng.random() < 0.5
                    client.write_coil(names.index(name) + 1, closed)
                    last_closed[name] = closed
                else:
                    k, kw = rng.choice(registers), rng.randrange(200)
                    _write_register(client, SETPOINT_BLOCK_START + k, kw)
                    last_kw[k] = kw

    # each connection owns every other switch and setpoint, so the last write
    # to each is known while the two streams interleave at the server
    threads = [
        threading.Thread(target=writer, args=(seed, names[seed::2], range(seed, count, 2)))
        for seed in (0, 1)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)

    state = live_server.state
    assert state.image == build_image(
        state.solution, state.setpoints_kw, state.config, fixture_meter_map, state.stale
    )
    if not state.stale:
        view = apply_switch_config(fixture_model, state.config)
        demand = fixture_meter_map.demand(fixture_model, state.setpoints_kw)
        direct = solve(fixture_model, view, demand)
        assert (direct.voltages == state.solution.voltages).all()
    with _client(live_server) as client:
        coils = client.read_switches(names)
        setpoints = client.read_setpoints(fixture_meter_map)
    assert last_closed and last_kw
    assert {name: coils[name] for name in last_closed} == last_closed
    assert {k: setpoints[k] for k in last_kw} == last_kw


# ---------------------------------------------------------------------------
# the client's failure rule: a bad reply closes the connection
# ---------------------------------------------------------------------------

READ = frames.Pdu(frames.FC_READ_HOLDING, STATUS_REGISTER - 1, 1)
WRITE = _setpoint_write(80)


def _mbap(proto, length, rest=b""):
    return struct.pack(">HHHB", 1, proto, length, 1) + rest


MALFORMED_REPLIES = {
    "length-0": (READ, _mbap(0, 0)),
    "length-1": (READ, _mbap(0, 1)),
    "length-255": (READ, _mbap(0, 255, bytes([0x03, 2]) + bytes(252))),
    "length-300": (READ, _mbap(0, 300)),
    "protocol-id-1": (READ, _mbap(1, 5, bytes([0x03, 2, 0, 0]))),
    "transaction-id-mismatch": (READ, mbap_frame(2, READ._replace(values=(0,)))),
    "wrong-function": (READ, mbap_frame(1, frames.Pdu(frames.FC_READ_COILS, 0, 1, (False,)))),
    "read-byte-count-mismatch": (READ, _mbap(0, 5, bytes([0x03, 4, 0, 0]))),
    "echo-mismatch": (WRITE, mbap_frame(1, WRITE._replace(values=(81,)))),
}


@pytest.mark.parametrize(
    "request_, reply", MALFORMED_REPLIES.values(), ids=MALFORMED_REPLIES.keys()
)
def test_malformed_reply_is_connection_error_and_closes_client(
    scripted_peer, request_, reply
):
    peer = scripted_peer([reply])
    with ModbusClient(*peer.address, timeout=5.0) as client:
        t0 = time.perf_counter()
        with pytest.raises(ConnectionError):
            client.request(request_)
        assert time.perf_counter() - t0 < 1.0
        with pytest.raises(ConnectionError):
            client.request(READ)
    peer.join()
    assert len(peer.requests) == 1


def test_timed_out_request_is_not_followed_by_another(scripted_peer):
    peer = scripted_peer([None])
    with ModbusClient(*peer.address, timeout=0.2) as client:
        with pytest.raises(ConnectionError, match="timed out"):
            client.request(READ)
        with pytest.raises(ConnectionError):
            client.request(READ)
    peer.join()
    assert len(peer.requests) == 1


def test_oversized_write_is_refused_before_sending(live_server):
    with _client(live_server) as client:
        with pytest.raises(frames.FrameError, match="does not fit"):
            client.write_registers(SETPOINT_BLOCK_START, [40] * 124)
        # the largest FC16 that fits a frame goes out, and the server answers it
        with pytest.raises(ModbusExceptionError) as exc:
            client.write_registers(SETPOINT_BLOCK_START, [40] * 123)
        assert exc.value.code == frames.EXC_ILLEGAL_VALUE
        assert client.read_holding(STATUS_REGISTER, 1) == [0]


def test_server_down_raises_connection_error():
    with pytest.raises((ConnectionError, OSError)):
        ModbusClient("127.0.0.1", 1, timeout=0.5)
