"""Wire protocol of the remote execution backend.

The :class:`~repro.graph.remote.RemoteScheduler` talks to its worker
processes over plain TCP sockets; this module defines the framing both
sides speak.  It deliberately knows nothing about tasks or schedulers —
only bytes — so the protocol can be unit-tested against a socketpair and
reused by any future transport.

Frame layout (all integers big-endian)::

    +-------+------+----------------+----------------+-----------------+
    | magic | type | payload length | CRC32(payload) | payload bytes   |
    | 4 B   | 1 B  | 4 B            | 4 B            | length B        |
    +-------+------+----------------+----------------+-----------------+

* ``magic`` (``b"RWP2"``) names the protocol and its version; a frame
  with any other magic is rejected immediately, which is what keeps a
  stray client (or a corrupted stream) from being misread as task
  traffic.
* ``type`` is one of the ``MSG_*`` constants below.
* the CRC32 checksum covers the payload only; a mismatch raises
  :class:`WireError` — the receiving side treats the connection as
  poisoned and closes it rather than guessing at intent.

Trust model
-----------
Pickle can execute arbitrary code when loaded, so **nothing pickled is
deserialized before the peer has authenticated**.  Both sides prove
knowledge of a shared secret with an HMAC-SHA256 challenge-response
(the scheme of :mod:`multiprocessing.connection`): the coordinator sends
a random ``CHALLENGE`` nonce, the worker answers inside its ``HELLO``,
and the coordinator's ``WELCOME`` answers the worker's counter-nonce —
so a rogue client can neither become a worker (and receive task data)
nor crash the coordinator with a crafted payload, and a worker refuses
task frames from a coordinator that cannot prove the key.  Handshake
payloads (``HELLO``/``WELCOME``, plus the tiny ``STARTED`` control
frame) are UTF-8 JSON (:func:`dump_json` / :func:`load_json`), never
pickle.

Authentication is a *secret* check, not transport encryption: task
payloads still travel in the clear, so bind routable addresses only on
networks you trust (or tunnel the port).

Post-auth payloads are pickled python objects (:func:`dump_payload` /
:func:`load_payload`): the remote backend only ever ships values that
already satisfy the process backend's picklability contract
(``Task.shippable``), so pickle is both sufficient and the same
serialization the in-process pool uses.
"""

from __future__ import annotations

import hmac
import io
import json
import pickle
import socket
import struct
import zlib
from typing import Any, Tuple

from repro.errors import GraphError

#: Protocol name + version.  Bump the digit when the frame layout changes.
MAGIC = b"RWP2"

_HEADER = struct.Struct("!4sBII")

#: Frames larger than this are rejected without being read: a genuine
#: result (sketch states, small chunk frames) is megabytes at most, so a
#: larger announced length is a corrupted or hostile stream.
MAX_FRAME_BYTES = 256 * 1024 * 1024

# Message types.
MSG_HELLO = 1      # worker -> coordinator: JSON {"id", "pid", "host",
#                    "digest" (answer to CHALLENGE), "nonce" (counter-nonce)}
MSG_TASK = 2       # coordinator -> worker: (task_id, func, args)
MSG_RESULT = 3     # worker -> coordinator: (task_id, ok, value_or_error)
MSG_PING = 4       # coordinator -> worker: b"" (liveness probe)
MSG_PONG = 5       # worker -> coordinator: b""
MSG_SHUTDOWN = 6   # coordinator -> worker: b"" (graceful drain)
MSG_CHALLENGE = 7  # coordinator -> worker: random nonce bytes (first frame)
MSG_WELCOME = 8    # coordinator -> worker: JSON {"digest"} answering HELLO's
#                    counter-nonce; admission to the pool
MSG_STARTED = 9    # worker -> coordinator: JSON {"task"}: execution has begun

_KNOWN_TYPES = frozenset({MSG_HELLO, MSG_TASK, MSG_RESULT, MSG_PING,
                          MSG_PONG, MSG_SHUTDOWN, MSG_CHALLENGE,
                          MSG_WELCOME, MSG_STARTED})

#: Size of a challenge nonce.
NONCE_BYTES = 32


class WireError(GraphError):
    """A malformed, corrupted or oversized frame was received."""


class ConnectionClosed(WireError):
    """The peer closed the connection (possibly mid-frame)."""


def dump_payload(value: Any) -> bytes:
    """Serialize a message payload (pickle, highest protocol)."""
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def load_payload(blob: bytes) -> Any:
    """Deserialize a message payload, wrapping failures as WireError.

    Pickle loading can run arbitrary code, so callers must only pass
    bytes received *after* the peer authenticated (see the trust model in
    the module docstring); handshake payloads go through
    :func:`load_json` instead.
    """
    try:
        return pickle.loads(blob)
    except Exception as error:  # noqa: BLE001 - any unpickling failure
        raise WireError(f"undecodable payload: {error}") from error


def dump_json(value: Any) -> bytes:
    """Serialize a control payload as UTF-8 JSON (pre-auth safe)."""
    return json.dumps(value, separators=(",", ":")).encode("utf-8")


def load_json(blob: bytes) -> Any:
    """Deserialize a JSON control payload, wrapping failures as WireError.

    Unlike :func:`load_payload` this cannot execute code, which is why
    the handshake frames — the only frames read from a peer that has not
    yet proven the shared key — use it exclusively.
    """
    try:
        return json.loads(blob.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise WireError(f"undecodable JSON payload: {error}") from error


def compute_digest(authkey: str, nonce: bytes) -> str:
    """HMAC-SHA256 proof of *authkey* over a challenge *nonce* (hex)."""
    return hmac.new(authkey.encode("utf-8"), nonce, "sha256").hexdigest()


def verify_digest(authkey: str, nonce: bytes, digest: Any) -> bool:
    """Constant-time check of a peer's answer to a challenge nonce."""
    if not isinstance(digest, str):
        return False
    return hmac.compare_digest(compute_digest(authkey, nonce), digest)


def pack_frame(msg_type: int, payload: bytes = b"") -> bytes:
    """Build one wire frame (header + checksummed payload)."""
    if len(payload) > MAX_FRAME_BYTES:
        raise WireError(f"payload of {len(payload)} bytes exceeds the "
                        f"{MAX_FRAME_BYTES}-byte frame limit")
    header = _HEADER.pack(MAGIC, msg_type, len(payload),
                          zlib.crc32(payload) & 0xFFFFFFFF)
    return header + payload


def send_frame(sock: socket.socket, msg_type: int, payload: bytes = b"") -> int:
    """Send one frame over *sock*; returns the bytes put on the wire."""
    frame = pack_frame(msg_type, payload)
    sock.sendall(frame)
    return len(frame)


def _recv_exact(sock: socket.socket, n_bytes: int) -> bytes:
    """Read exactly *n_bytes* from *sock* or raise ConnectionClosed."""
    buffer = io.BytesIO()
    remaining = n_bytes
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionClosed(
                "connection closed" if buffer.tell() == 0
                else "connection closed mid-frame")
        buffer.write(chunk)
        remaining -= len(chunk)
    return buffer.getvalue()


def recv_frame(sock: socket.socket) -> Tuple[int, bytes]:
    """Read one complete frame, validating magic, type and checksum.

    Raises :class:`ConnectionClosed` on a clean EOF before the header and
    :class:`WireError` on any malformation — the caller must treat the
    connection as unusable after a WireError, because the stream position
    is no longer trustworthy.
    """
    header = _recv_exact(sock, _HEADER.size)
    magic, msg_type, length, checksum = _HEADER.unpack(header)
    if magic != MAGIC:
        raise WireError(f"bad magic {magic!r} (expected {MAGIC!r})")
    if msg_type not in _KNOWN_TYPES:
        raise WireError(f"unknown message type {msg_type}")
    if length > MAX_FRAME_BYTES:
        raise WireError(f"announced payload of {length} bytes exceeds the "
                        f"{MAX_FRAME_BYTES}-byte frame limit")
    payload = _recv_exact(sock, length)
    if zlib.crc32(payload) & 0xFFFFFFFF != checksum:
        raise WireError("payload checksum mismatch")
    return msg_type, payload


def parse_address(address: str) -> Tuple[str, int]:
    """Parse a ``host:port`` string, validating the port range."""
    host, colon, port_text = address.rpartition(":")
    if not colon or not host:
        raise WireError(f"address {address!r} is not of the form host:port")
    try:
        port = int(port_text)
    except ValueError:
        raise WireError(f"address {address!r} has a non-integer port") from None
    if not 0 <= port <= 65535:
        raise WireError(f"address {address!r} has an out-of-range port")
    return host, port


__all__ = [
    "MAGIC",
    "MAX_FRAME_BYTES",
    "MSG_CHALLENGE",
    "MSG_HELLO",
    "MSG_PING",
    "MSG_PONG",
    "MSG_RESULT",
    "MSG_SHUTDOWN",
    "MSG_STARTED",
    "MSG_TASK",
    "MSG_WELCOME",
    "NONCE_BYTES",
    "ConnectionClosed",
    "WireError",
    "compute_digest",
    "dump_json",
    "dump_payload",
    "load_json",
    "load_payload",
    "pack_frame",
    "parse_address",
    "recv_frame",
    "send_frame",
    "verify_digest",
]
