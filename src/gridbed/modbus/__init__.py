"""Modbus/TCP transport: frame codec, register server, and client."""
