"""Length-prefixed TCP framing for the distributed sweep protocol.

The coordinator and its workers speak *messages*: a ``(kind, data)``
pair where ``kind`` is a short ASCII tag and ``data`` a dict of
primitives plus (for tasks and results) pickled sweep payloads.  On the
wire each message is one *frame*::

    +----------+----------------------------+
    | 4 bytes  |  ``length`` bytes          |
    | length   |  pickle((kind, data))      |
    | (``!I``) |                            |
    +----------+----------------------------+

Length-prefix framing is what makes host loss a *clean* event: a frame
either arrives whole or the connection dies, so the coordinator never
has to guess where a half-written message ends — exactly the torn-line
discipline the run journal applies to files, applied to sockets.

Two consumption styles share the same decoder:

* **blocking** (`send_message` / `recv_message`) — the worker daemon's
  simple request loop;
* **buffered** (:class:`FrameDecoder`) — the coordinator feeds whatever
  ``recv`` returned into the decoder and gets back every *complete*
  frame, keeping partial tails buffered; built for a ``selectors`` loop
  over non-blocking sockets.

Pickle is the payload codec because tasks carry real objects
(:class:`~repro.experiments.harness.EvaluationOptions`, fault plans,
simulation results) that already cross process boundaries pickled in
the single-host pool.  The protocol therefore trusts its peers — it is
a cluster-internal fabric like the multicluster paper's inter-cluster
buses, not an authentication boundary; bind to loopback or a private
network.
"""

from __future__ import annotations

import pickle
import socket
import struct
from typing import Any, Optional

from repro.errors import ConfigError

#: Bump when the wire format changes incompatibly; checked at register.
PROTOCOL_VERSION = 1

#: Frames above this are a protocol violation, not a big result: a
#: corrupt or hostile length prefix must not make the peer allocate
#: gigabytes.  Sweep artifacts are megabytes at the very most.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_HEADER = struct.Struct("!I")


class ProtocolError(ConfigError):
    """A malformed frame or out-of-contract message.

    A :class:`~repro.errors.ConfigError` subclass so the CLI's typed
    exit-code discipline applies: a protocol violation is a deployment
    mistake (version skew, a stranger on the port), not a simulation
    failure.
    """


def encode_frame(kind: str, data: dict) -> bytes:
    """One wire-ready frame for ``(kind, data)``."""
    payload = pickle.dumps((kind, data), protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"message {kind!r} encodes to {len(payload)} bytes, above the "
            f"frame ceiling of {MAX_FRAME_BYTES}",
            kind=kind,
            size=len(payload),
        )
    return _HEADER.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> tuple[str, dict]:
    """Decode one frame body back into ``(kind, data)``."""
    try:
        message = pickle.loads(payload)
    except Exception as error:  # noqa: BLE001 - any unpickling damage
        raise ProtocolError(
            f"undecodable frame ({type(error).__name__}: {error})"
        ) from None
    if (
        not isinstance(message, tuple)
        or len(message) != 2
        or not isinstance(message[0], str)
        or not isinstance(message[1], dict)
    ):
        raise ProtocolError(
            "frame did not decode to a (kind, data) message",
            got=type(message).__name__,
        )
    return message


class FrameDecoder:
    """Incremental decoder: feed bytes, harvest complete messages.

    The coordinator owns one per connection.  ``feed`` never blocks and
    never raises on a *partial* frame — partial input stays buffered
    until the rest arrives; only a length prefix above
    :data:`MAX_FRAME_BYTES` or an undecodable body raises
    :class:`ProtocolError` (the caller drops the connection, exactly as
    it would a dead one).
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[tuple[str, dict]]:
        self._buffer.extend(data)
        messages = []
        while True:
            if len(self._buffer) < _HEADER.size:
                return messages
            (length,) = _HEADER.unpack_from(self._buffer)
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"frame length {length} exceeds the ceiling of "
                    f"{MAX_FRAME_BYTES}",
                    length=length,
                )
            end = _HEADER.size + length
            if len(self._buffer) < end:
                return messages
            payload = bytes(self._buffer[_HEADER.size:end])
            del self._buffer[:end]
            messages.append(decode_payload(payload))


def send_message(sock: socket.socket, kind: str, **data: Any) -> None:
    """Blocking send of one message (the worker side)."""
    sock.sendall(encode_frame(kind, data))


def recv_message(sock: socket.socket) -> Optional[tuple[str, dict]]:
    """Blocking receive of one message; ``None`` on orderly EOF.

    EOF *inside* a frame raises :class:`ProtocolError` — the peer died
    mid-send, which callers must treat as a lost connection, not a
    clean shutdown.  Honors the socket's timeout (``socket.timeout``
    propagates so the worker's idle loop can heartbeat).
    """
    header = _recv_exact(sock, _HEADER.size, mid_frame=False)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds the ceiling of {MAX_FRAME_BYTES}",
            length=length,
        )
    payload = _recv_exact(sock, length, mid_frame=True)
    if payload is None:  # pragma: no cover - mid_frame raises instead
        return None
    return decode_payload(payload)


def _recv_exact(
    sock: socket.socket, count: int, mid_frame: bool
) -> Optional[bytes]:
    chunks = bytearray()
    while len(chunks) < count:
        chunk = sock.recv(count - len(chunks))
        if not chunk:
            if chunks or mid_frame:
                raise ProtocolError(
                    "connection closed mid-frame (peer died while sending)",
                    received=len(chunks),
                    expected=count,
                )
            return None
        chunks.extend(chunk)
    return bytes(chunks)


def parse_address(address: str) -> tuple[str, int]:
    """``HOST:PORT`` -> ``(host, port)`` with a typed error on typos."""
    host, sep, port_text = address.rpartition(":")
    if not sep or not host:
        raise ConfigError(
            f"worker address must be HOST:PORT, got {address!r}",
            address=address,
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigError(
            f"worker address port must be an integer, got {port_text!r}",
            address=address,
        ) from None
    if not 0 < port < 65536:
        raise ConfigError(
            f"worker address port must be in 1..65535, got {port}",
            address=address,
            port=port,
        )
    return host, port


__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "FrameDecoder",
    "ProtocolError",
    "decode_payload",
    "encode_frame",
    "parse_address",
    "recv_message",
    "send_message",
]
