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
    build_image,
    decode_voltage_word,
)

from conftest import three_bus_switch_doc, two_bus_doc


def _client(server):
    return ModbusClient(*server.address)


# ---------------------------------------------------------------------------
# read/write semantics
# ---------------------------------------------------------------------------


def test_read_all_voltages_baseline(live_server, fixture_meter_map):
    with _client(live_server) as client:
        mags = client.read_all_voltages(fixture_meter_map)
    assert len(mags) == 206
    assert all(0.9 < m <= 1.0001 for m in mags.values())


def test_float_mirror_agrees_with_scaled(live_server, fixture_meter_map):
    with _client(live_server) as client:
        scaled = client.read_all_voltages(fixture_meter_map, source="scaled")
        exact = client.read_all_voltages(fixture_meter_map, source="float")
    for point in scaled:
        assert abs(scaled[point] - exact[point]) <= 5e-5


def test_write_coil_read_your_writes(live_server, fixture_model, fixture_meter_map):
    with _client(live_server) as client:
        before = client.read_all_voltages(fixture_meter_map)
        client.write_switch(fixture_model.switch_names, "S7", True)
        coils = client.read_switches(fixture_model.switch_names)
        assert coils["S7"] is True
        after = client.read_all_voltages(fixture_meter_map)
        # topology changed, so the voltage image must have moved
        assert any(abs(before[p] - after[p]) > 1e-4 for p in before)
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
        client.write_register(SETPOINT_BLOCK_START, 160)  # N102 -> 160 kW
        reread = client.read_setpoints(fixture_meter_map)
        assert reread["N102"] == 160
        after = client.read_all_voltages(fixture_meter_map)
        assert after[("N102", "C")] < before[("N102", "C")]
        # restore
        client.write_register(SETPOINT_BLOCK_START, 40)
    assert client is not None


def test_write_setpoints_pattern_reads_back(live_server, fixture_meter_map):
    pattern = {"N102": 80, "N103": 80, "N104": 80,
               "N106": 1, "N107": 1, "N99": 1, "N109": 1, "N111": 1, "N114": 1}
    with _client(live_server) as client:
        client.write_setpoints(fixture_meter_map, pattern)
        assert client.read_setpoints(fixture_meter_map) == pattern
        mags = client.read_all_voltages(fixture_meter_map)
        assert min(mags.values()) < 0.95  # the overload bites
        client.write_setpoints(fixture_meter_map, {n: 40 for n in pattern})


def test_setpoint_write_loopback_matches_direct_solve(
    live_server, fixture_model, fixture_meter_map
):
    """Register 207 = 80 kW, then the full chunked voltage read must agree
    with an independent solve of the same state to register resolution."""
    from gridbed.feeder import SwitchConfig, apply_switch_config
    from gridbed.powerflow import solve

    with _client(live_server) as client:
        client.write_register(SETPOINT_BLOCK_START, 80)  # N102 -> 80 kW
        calls = []
        original = client.request
        client.request = lambda req: calls.append(req) or original(req)
        mags = client.read_all_voltages(fixture_meter_map)
        client.request = original
        client.write_register(SETPOINT_BLOCK_START, 40)
    assert len(calls) == 2  # 206 registers in two chunks

    overrides = {"N102": {"C": (80.0, 0.0)}}
    # remaining controllable nodes sit at their base 40 kW
    view = apply_switch_config(fixture_model, SwitchConfig.normal(fixture_model))
    direct = solve(fixture_model, view, overrides)
    for (bus, phase), read in mags.items():
        assert abs(direct.magnitude(bus, phase) - read) <= 5e-5


def test_write_setpoints_full_map_is_one_fc16_request(live_server, fixture_meter_map):
    pattern = {node: 30 + k for k, (node, _) in enumerate(fixture_meter_map.setpoints)}
    with _client(live_server) as client:
        sent = []
        original = client.request
        client.request = lambda req: sent.append(req) or original(req)
        client.write_setpoints(fixture_meter_map, pattern)
        assert [req.function for req in sent] == [frames.FC_WRITE_REGISTERS]
        assert client.read_setpoints(fixture_meter_map) == pattern


def test_write_setpoints_empty_map_is_noop(live_server, fixture_meter_map):
    with _client(live_server) as client:
        before = client.read_setpoints(fixture_meter_map)
        client.write_setpoints(fixture_meter_map, {})
        assert client.read_setpoints(fixture_meter_map) == before


def test_write_setpoints_validates_nodes_and_range(live_server, fixture_meter_map):
    with _client(live_server) as client:
        with pytest.raises(Exception, match="N999"):
            client.write_setpoints(fixture_meter_map, {"N999": 5})
        with pytest.raises(ValueError, match="16-bit"):
            client.write_setpoints(fixture_meter_map, {"N102": 70000})
        before = client.read_setpoints(fixture_meter_map)
        with pytest.raises(ValueError, match="does not name N103"):
            client.write_setpoints(fixture_meter_map, {"N102": 99})
        assert client.read_setpoints(fixture_meter_map) == before


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
            client.write_register(5, 1234)
    assert exc.value.code == frames.EXC_ILLEGAL_ADDRESS


def test_write_coil_bad_value_is_illegal_value(live_server):
    with _client(live_server) as client:
        with pytest.raises(ModbusExceptionError) as exc:
            client.request(frames.WriteCoilRequest(0, 0x1234))
    assert exc.value.code == frames.EXC_ILLEGAL_VALUE


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


# ---------------------------------------------------------------------------
# invariants: purity of reads, txn ids, atomicity
# ---------------------------------------------------------------------------


def test_reads_do_not_mutate_state(live_server, fixture_meter_map):
    first = live_server.snapshot().image
    with _client(live_server) as client:
        client.read_all_voltages(fixture_meter_map)
        client.read_all_voltages(fixture_meter_map, source="float")
        client.read_coils(1, 8)
        client.read_holding(STATUS_REGISTER, 1)
    assert live_server.snapshot().image == first


def test_transaction_ids_echoed(live_server):
    with socket.create_connection(live_server.address, timeout=5.0) as sock:
        rng = random.Random(3)
        for _ in range(50):
            txn = rng.randrange(0, 0x10000)
            pdu = frames.encode_pdu(frames.ReadHoldingRequest(0, 1))
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
            {n: 40 for n, _ in fixture_meter_map.setpoints},
            {"N102": 160, "N103": 160, "N104": 160,
             "N106": 1, "N107": 1, "N99": 1, "N109": 1, "N111": 1, "N114": 1},
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
            client.write_register(SETPOINT_BLOCK_START, 60000)  # undeliverable
            assert client.read_holding(STATUS_REGISTER, 1) == [1]
            # voltage registers hold the last converged values
            assert client.read_holding(1, 2) == good
            # the commanded setpoint is still visible
            assert client.read_holding(SETPOINT_BLOCK_START, 1) == [60000]
            client.write_register(SETPOINT_BLOCK_START, 100)
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
            assert client.read_all_voltages(meter_map)[("B2", "A")] == 0.0
            client.write_register(SETPOINT_BLOCK_START, 500)  # stored, dead bus
            assert client.read_setpoints(meter_map) == {"B2": 500}
            client.write_switch(model.switch_names, "SW1", True)
            mags = client.read_all_voltages(meter_map)
            assert 0 < mags[("B2", "A")] < 1.0  # now the load applies
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
            client.write_register(SETPOINT_BLOCK_START, 160)
        monkeypatch.undo()
        assert exc.value.code == frames.EXC_SERVER_FAILURE
        # the same connection still serves, and nothing of the write landed
        assert client.read_setpoints(fixture_meter_map) == setpoints
        assert client.read_all_voltages(fixture_meter_map) == voltages
        assert client.read_holding(STATUS_REGISTER, 1) == status
    state = live_server.snapshot()
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
    return {t for t in threading.enumerate() if t.name.startswith("gridbed-server-")}


def test_close_is_prompt_and_releases_port_connections_and_threads(
    fixture_model, fixture_meter_map
):
    server = FeederServer(fixture_model, fixture_meter_map, bind=("127.0.0.1", 0))
    already_running = _server_threads()
    server.start()
    with _client(server) as idle:
        assert idle.read_holding(STATUS_REGISTER, 1) == [0]
        started = _server_threads() - already_running
        assert {t.name.split("-")[2] for t in started} == {"accept", "conn"}

        t0 = time.perf_counter()
        server.close()
        assert time.perf_counter() - t0 < 0.1  # no poll interval to wait out

        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(server.address, timeout=1.0)
        with pytest.raises(ConnectionError):
            idle.read_holding(STATUS_REGISTER, 1)
    assert not [t for t in started if t.is_alive()]
    server.close()  # idempotent


def test_connection_thread_failure_is_logged_and_closes_the_socket(
    monkeypatch, caplog, live_server
):
    def broken_dispatch(pdu):
        raise KeyError("dispatch bug")

    monkeypatch.setattr(live_server, "_dispatch", broken_dispatch)
    with _client(live_server) as client:
        with pytest.raises(ConnectionError):
            client.read_holding(STATUS_REGISTER, 1)
    # the thread logs before it closes the socket the client saw close
    [record] = caplog.records
    assert record.getMessage() == "connection thread failed"
    assert record.exc_info[0] is KeyError


def test_server_down_raises_connection_error():
    with pytest.raises((ConnectionError, OSError)):
        ModbusClient("127.0.0.1", 1, timeout=0.5)
