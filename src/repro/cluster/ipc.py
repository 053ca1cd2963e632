"""Framed length-prefixed IPC for process-parallel cluster shards.

The cluster's process mode ships :class:`~repro.serving.request.FrameRequest`
payloads to spawned replica workers and per-frame results / telemetry
snapshots back.  ``multiprocessing``'s own ``Connection`` framing is an
implementation detail of CPython, so this module owns an explicit wire
protocol with the failure modes a network transport would have — and makes
them testable without a process boundary:

* every message is one **frame**: a fixed 12-byte header (magic, protocol
  version, payload length, CRC-32 of the payload) followed by the pickled
  payload;
* **oversized frames are rejected on both sides** — the sender refuses to
  encode them and the receiver refuses to allocate for a hostile/corrupt
  length field before reading the payload;
* **corruption is detected** (bad magic, version mismatch, CRC mismatch →
  :class:`FrameCorrupt`) and **truncation is detected** (EOF mid-frame →
  :class:`FrameTruncated`), so a crashed peer surfaces as a typed error the
  supervisor can act on, never as a hang or a half-parsed message;
* partial reads are handled by an explicit read loop — the byte-stream
  abstraction may return any prefix of the requested range, exactly like a
  socket.

:class:`FramedChannel` works over any :class:`ByteStream`; tests drive it
with in-memory buffers, the real :class:`~repro.cluster.procpool.ProcessReplica`
drives it over a spawn-safe :class:`PipeStream`
(:func:`multiprocessing.Pipe` as the raw byte transport).
"""

from __future__ import annotations

import pickle
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Protocol

import numpy as np

__all__ = [
    "CLOCK_PROBES",
    "ChannelClosed",
    "DEFAULT_MAX_FRAME_BYTES",
    "FrameCorrupt",
    "FrameError",
    "FrameTooLarge",
    "FrameTruncated",
    "FramedChannel",
    "HEADER",
    "MAGIC",
    "PROTOCOL_VERSION",
    "SPANS_PER_MESSAGE",
    "BufferStream",
    "PipeStream",
    "decode_frame",
    "encode_frame",
    # message vocabulary
    "ClockPing",
    "ClockPong",
    "CloseStream",
    "Done",
    "Hello",
    "OpenStream",
    "SetMaxBatchSize",
    "SetScaleCap",
    "Shutdown",
    "Spans",
    "Submit",
    "Telemetry",
]

#: 2-byte frame marker ("AdaScale Cluster") — the first corruption tripwire.
MAGIC = 0xAD5C
PROTOCOL_VERSION = 1
#: magic (u16) | version (u8) | pad | payload length (u32) | payload crc32 (u32)
HEADER = struct.Struct(">HBxII")
#: Upper bound on one frame's payload.  Generous for pickled video frames of
#: this repo's synthetic datasets, small enough that a corrupt length field
#: can never trigger a multi-GiB allocation.
DEFAULT_MAX_FRAME_BYTES = 64 * 1024 * 1024


class FrameError(Exception):
    """Base class of every wire-protocol failure."""


class FrameCorrupt(FrameError):
    """Bad magic, unknown protocol version, or CRC mismatch."""


class FrameTooLarge(FrameError):
    """Payload exceeds the configured frame-size bound (either side)."""


class FrameTruncated(FrameError):
    """The stream ended in the middle of a frame."""


class ChannelClosed(FrameError):
    """The peer is gone (EOF at a frame boundary, or a closed transport)."""


def encode_frame(payload: bytes, max_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> bytes:
    """Wrap ``payload`` in the framed wire format (header + body)."""
    if len(payload) > max_bytes:
        raise FrameTooLarge(
            f"refusing to send a {len(payload)}-byte frame (bound {max_bytes})"
        )
    header = HEADER.pack(
        MAGIC, PROTOCOL_VERSION, len(payload), zlib.crc32(payload) & 0xFFFFFFFF
    )
    return header + payload


def decode_frame(buffer: bytes, max_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> bytes:
    """Parse one complete frame from ``buffer``; returns the payload.

    Raises :class:`FrameTruncated` when the buffer holds less than one whole
    frame, :class:`FrameCorrupt` on marker/version/CRC mismatch and
    :class:`FrameTooLarge` on a hostile length field — checked *before* the
    payload is touched.
    """
    if len(buffer) < HEADER.size:
        raise FrameTruncated(
            f"{len(buffer)} byte(s) is shorter than the {HEADER.size}-byte header"
        )
    magic, version, length, crc = HEADER.unpack_from(buffer)
    if magic != MAGIC:
        raise FrameCorrupt(f"bad frame magic 0x{magic:04X} (expected 0x{MAGIC:04X})")
    if version != PROTOCOL_VERSION:
        raise FrameCorrupt(
            f"protocol version {version} (this side speaks {PROTOCOL_VERSION})"
        )
    if length > max_bytes:
        raise FrameTooLarge(
            f"refusing a {length}-byte frame (bound {max_bytes})"
        )
    if len(buffer) < HEADER.size + length:
        raise FrameTruncated(
            f"frame announces {length} payload byte(s) but only "
            f"{len(buffer) - HEADER.size} arrived"
        )
    payload = bytes(buffer[HEADER.size:HEADER.size + length])
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise FrameCorrupt("payload CRC mismatch")
    return payload


class ByteStream(Protocol):
    """Minimal byte transport under a :class:`FramedChannel`.

    ``read`` may return *any* non-empty prefix of the requested size (like a
    socket) and must return ``b""`` at EOF; ``write`` must accept the whole
    buffer.
    """

    def write(self, data: bytes) -> None: ...  # pragma: no cover - protocol

    def read(self, max_bytes: int) -> bytes: ...  # pragma: no cover - protocol

    def poll(self, timeout: float) -> bool: ...  # pragma: no cover - protocol

    def close(self) -> None: ...  # pragma: no cover - protocol


class BufferStream:
    """In-memory :class:`ByteStream` (tests; loopback).

    ``chunk`` caps every ``read`` to simulate a transport that returns
    partial reads — the framing layer must reassemble.
    """

    def __init__(self, data: bytes = b"", chunk: int | None = None) -> None:
        self._buffer = bytearray(data)
        self._chunk = chunk
        self.closed = False

    def write(self, data: bytes) -> None:
        if self.closed:
            raise ChannelClosed("write on a closed BufferStream")
        self._buffer.extend(data)

    def read(self, max_bytes: int) -> bytes:
        if not self._buffer:
            return b""
        take = max_bytes if self._chunk is None else min(max_bytes, self._chunk)
        data = bytes(self._buffer[:take])
        del self._buffer[:take]
        return data

    def poll(self, timeout: float) -> bool:
        return bool(self._buffer)

    def close(self) -> None:
        self.closed = True


class PipeStream:
    """Byte-stream adapter over a ``multiprocessing`` ``Connection``.

    ``multiprocessing.Pipe`` connections are the one transport the ``spawn``
    start method ships to a child portably, so the framed protocol rides on
    top of them: one ``write`` maps to one ``send_bytes`` chunk, and ``read``
    reassembles arbitrary byte ranges from the received chunks — the chunk
    boundaries are *not* frame boundaries, exactly like TCP segmentation.
    """

    def __init__(self, connection: Any) -> None:
        self._connection = connection
        self._buffer = bytearray()

    def write(self, data: bytes) -> None:
        try:
            self._connection.send_bytes(data)
        except (BrokenPipeError, ConnectionResetError, EOFError, OSError) as exc:
            raise ChannelClosed(f"peer is gone: {exc}") from exc

    def read(self, max_bytes: int) -> bytes:
        if not self._buffer:
            try:
                self._buffer.extend(self._connection.recv_bytes())
            except EOFError:
                return b""
            except (BrokenPipeError, ConnectionResetError, OSError):
                return b""
        data = bytes(self._buffer[:max_bytes])
        del self._buffer[:max_bytes]
        return data

    def poll(self, timeout: float) -> bool:
        if self._buffer:
            return True
        try:
            return bool(self._connection.poll(timeout))
        except (BrokenPipeError, EOFError, OSError):
            # A dead peer is "readable": the next read reports EOF.
            return True

    def close(self) -> None:
        try:
            self._connection.close()
        except OSError:
            pass


class FramedChannel:
    """Typed message channel: pickle ⇆ framed wire format over a byte stream."""

    def __init__(
        self,
        stream: ByteStream,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self.stream = stream
        self.max_frame_bytes = int(max_frame_bytes)

    def send(self, message: Any) -> None:
        """Pickle and frame one message (raises :class:`FrameTooLarge`)."""
        payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        self.stream.write(encode_frame(payload, self.max_frame_bytes))

    def _read_exact(self, n: int, *, at_boundary: bool) -> bytes:
        chunks: list[bytes] = []
        remaining = n
        while remaining > 0:
            chunk = self.stream.read(remaining)
            if not chunk:
                if at_boundary and not chunks:
                    raise ChannelClosed("peer closed the channel")
                raise FrameTruncated(
                    f"stream ended {remaining} byte(s) short of a complete frame"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def recv(self) -> Any:
        """Read and decode exactly one message (blocking).

        EOF *between* frames raises :class:`ChannelClosed` (orderly peer
        exit); EOF *inside* a frame raises :class:`FrameTruncated` (the peer
        died mid-send).
        """
        header = self._read_exact(HEADER.size, at_boundary=True)
        magic, version, length, crc = HEADER.unpack(header)
        if magic != MAGIC:
            raise FrameCorrupt(f"bad frame magic 0x{magic:04X} (expected 0x{MAGIC:04X})")
        if version != PROTOCOL_VERSION:
            raise FrameCorrupt(
                f"protocol version {version} (this side speaks {PROTOCOL_VERSION})"
            )
        if length > self.max_frame_bytes:
            raise FrameTooLarge(
                f"refusing a {length}-byte frame (bound {self.max_frame_bytes})"
            )
        payload = self._read_exact(length, at_boundary=False) if length else b""
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            raise FrameCorrupt("payload CRC mismatch")
        return pickle.loads(payload)

    def poll(self, timeout: float) -> bool:
        """Whether at least one byte is ready (a read will not block long)."""
        return self.stream.poll(timeout)

    def close(self) -> None:
        self.stream.close()


# -- message vocabulary --------------------------------------------------------
# Parent → child control/data-plane messages and child → parent responses.
# Plain frozen dataclasses of plain data (ndarrays pickle fine), so the wire
# format stays inspectable and version drift fails loudly at unpickling.


@dataclass(frozen=True)
class Hello:
    """Child → parent: the replica is built, started and serving."""

    shard_id: int
    pid: int


@dataclass(frozen=True)
class OpenStream:
    """Parent → child: register a stream (optionally re-seeded post-migration)."""

    stream_id: int
    #: AdaScale scale the stream's first frame executes at — carries the last
    #: committed scale across a migration; None = serving-config default
    initial_scale: int | None = None


@dataclass(frozen=True)
class CloseStream:
    stream_id: int


@dataclass(frozen=True)
class Submit:
    """Parent → child: one frame of one stream."""

    stream_id: int
    frame_index: int
    image: np.ndarray


@dataclass(frozen=True)
class SetScaleCap:
    scale_cap: int | None


@dataclass(frozen=True)
class SetMaxBatchSize:
    max_batch_size: int


@dataclass(frozen=True)
class Shutdown:
    """Parent → child: stop serving and exit 0."""

    cancel_pending: bool = False


@dataclass(frozen=True)
class Done:
    """Child → parent: one frame reached a terminal state."""

    stream_id: int
    frame_index: int
    status: str  # RequestStatus value
    scale_used: int | None = None
    next_scale: int | None = None
    #: the session's post-``advance`` scale — the migration re-seed value
    current_scale: int | None = None
    is_key_frame: bool = True
    queue_wait_s: float = 0.0
    service_s: float = 0.0
    latency_s: float = 0.0
    boxes: np.ndarray | None = None
    scores: np.ndarray | None = None
    class_ids: np.ndarray | None = None
    error: str | None = None


@dataclass(frozen=True)
class Telemetry:
    """Child → parent: periodic control-plane snapshot (deltas, not totals).

    ``queue_depth``, ``scale_cap`` and ``max_batch_size`` are the child's
    current levels.  ``batch_sizes`` / ``queue_depths`` carry only the
    observations since the previous snapshot; the parent replays them into
    its shard-local :class:`~repro.serving.metrics.ServerMetrics`, the one
    metrics accumulator the governor and the cluster report read.  Frame
    counters and latencies need no field here: the parent counts them from
    ``Done`` messages.
    """

    queue_depth: int = 0
    scale_cap: int | None = None
    max_batch_size: int = 0
    batch_sizes: tuple[int, ...] = field(default=())
    queue_depths: tuple[int, ...] = field(default=())


#: Number of clock probes the parent fires at handshake.  The offset estimate
#: keeps the minimum-RTT sample (NTP style), so a few probes suffice to dodge
#: a single scheduling hiccup.
CLOCK_PROBES = 5

#: Upper bound on span-event dicts per :class:`Spans` message.  Events are
#: small dicts, so this keeps each frame far under ``DEFAULT_MAX_FRAME_BYTES``
#: while amortising the framing/pickling cost across a batch.
SPANS_PER_MESSAGE = 512


@dataclass(frozen=True)
class ClockPing:
    """Parent → child: one monotonic-clock probe (``sent_s`` = parent clock)."""

    sent_s: float


@dataclass(frozen=True)
class ClockPong:
    """Child → parent: probe echo with the child's own monotonic reading.

    The parent estimates ``offset = child_s - (sent_s + recv_s) / 2`` with
    uncertainty ``rtt / 2`` and rebases every child span timestamp by
    subtracting the offset — one timeline for the whole fleet.
    """

    sent_s: float
    child_s: float


@dataclass(frozen=True)
class Spans:
    """Child → parent: a batch of span events from the child's tracer.

    ``events`` are :meth:`~repro.observability.trace.SpanEvent.to_dict`
    payloads (plain dicts keep the wire inspectable); timestamps and ids are
    still in the *child's* clock/id space — the parent rebases both on
    receipt.  ``dropped`` is the child buffer's cumulative overflow count:
    span shipping never blocks the serving hot path, it sheds and counts.
    """

    events: tuple[dict, ...] = field(default=())
    dropped: int = 0
