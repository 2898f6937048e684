"""Modbus/TCP transport: frame codec, register server, and client."""


def parse_address(text: str) -> tuple[str, int]:
    """An ``addr:port`` option as a (host, port) pair; no addr means 127.0.0.1."""
    host, _, port = text.rpartition(":")
    if not (port.isascii() and port.isdigit()) or int(port) > 0xFFFF:
        raise ValueError(f"{text!r} is not addr:port")
    return host or "127.0.0.1", int(port)
