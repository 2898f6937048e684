"""Set-up time of one fresh process: import gridbed, load the bundled feeder,
build the meter map, construct and start a loopback server (base solve
included), and answer the first read. Prints ``{"setup_s": ...}``.

    PYTHONPATH=src python3 perfbench/setup_probe.py
"""

import json
import time

started = time.perf_counter()

from gridbed.feeder import load_default_feeder  # noqa: E402
from gridbed.modbus.client import ModbusClient  # noqa: E402
from gridbed.modbus.server import FeederServer  # noqa: E402
from gridbed.regmap import MeterMap  # noqa: E402

model = load_default_feeder()
meter_map = MeterMap.for_model(model)
server = FeederServer(model, meter_map, bind=("127.0.0.1", 0)).start()
try:
    with ModbusClient(*server.address) as client:
        client.read_holding(1, 1)
        setup_s = time.perf_counter() - started
finally:
    server.close()
print(json.dumps({"setup_s": setup_s}))
