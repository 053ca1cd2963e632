"""Wire-protocol tests for the framed cluster IPC layer.

Everything here runs without a process boundary: :class:`BufferStream`
plays the transport, including the adversarial cases (bit flips, truncated
frames, hostile length fields, single-byte partial reads).  One test rides
the real :class:`PipeStream` over a ``multiprocessing.Pipe`` to prove the
chunk-reassembly path against the actual transport.
"""

from __future__ import annotations

import multiprocessing
import pickle

import numpy as np
import pytest

from repro.cluster.ipc import (
    DEFAULT_MAX_FRAME_BYTES,
    HEADER,
    MAGIC,
    PROTOCOL_VERSION,
    BufferStream,
    ChannelClosed,
    Done,
    FrameCorrupt,
    FramedChannel,
    FrameTooLarge,
    FrameTruncated,
    Hello,
    OpenStream,
    PipeStream,
    SetScaleCap,
    Shutdown,
    Submit,
    Telemetry,
    decode_frame,
    encode_frame,
)


def _sample_messages():
    image = np.arange(2 * 3 * 4, dtype=np.float32).reshape(3, 4, 2)
    boxes = np.array([[1.0, 2.0, 10.0, 12.0]], dtype=np.float64)
    return [
        Hello(shard_id=3, pid=4242),
        OpenStream(stream_id=7, initial_scale=48),
        Submit(stream_id=7, frame_index=0, image=image),
        SetScaleCap(scale_cap=None),
        Done(
            stream_id=7,
            frame_index=0,
            status="completed",
            scale_used=48,
            next_scale=32,
            current_scale=32,
            is_key_frame=False,
            queue_wait_s=0.01,
            service_s=0.02,
            latency_s=0.03,
            boxes=boxes,
            scores=np.array([0.9]),
            class_ids=np.array([2]),
        ),
        Telemetry(queue_depth=2, max_batch_size=4,
                  batch_sizes=(1, 2), queue_depths=(0, 3)),
        Shutdown(cancel_pending=True),
    ]


class TestFrameCodec:
    def test_round_trip(self):
        payload = b"adascale cluster payload"
        assert decode_frame(encode_frame(payload)) == payload

    def test_empty_payload_round_trips(self):
        assert decode_frame(encode_frame(b"")) == b""

    def test_single_bit_flip_anywhere_is_detected(self):
        frame = bytearray(encode_frame(b"detect me"))
        for position in range(len(frame)):
            if position == 3:
                # The header's alignment pad byte carries no information and
                # is (by design) not covered by any check.
                continue
            corrupted = bytearray(frame)
            corrupted[position] ^= 0x40
            with pytest.raises((FrameCorrupt, FrameTooLarge, FrameTruncated)):
                decode_frame(bytes(corrupted))

    def test_truncated_header_and_truncated_payload(self):
        frame = encode_frame(b"0123456789")
        with pytest.raises(FrameTruncated):
            decode_frame(frame[: HEADER.size - 1])
        with pytest.raises(FrameTruncated):
            decode_frame(frame[:-1])

    def test_sender_refuses_oversized_payload(self):
        with pytest.raises(FrameTooLarge):
            encode_frame(b"x" * 100, max_bytes=99)

    def test_receiver_rejects_hostile_length_before_reading_payload(self):
        # A corrupt length field must be bounced by the header check alone —
        # long before any multi-GiB allocation could happen.
        header = HEADER.pack(MAGIC, PROTOCOL_VERSION, 2**31, 0)
        with pytest.raises(FrameTooLarge):
            decode_frame(header)

    def test_wrong_magic_and_wrong_version(self):
        payload = b"hi"
        import zlib

        bad_magic = HEADER.pack(0xBEEF, PROTOCOL_VERSION, len(payload),
                                zlib.crc32(payload)) + payload
        with pytest.raises(FrameCorrupt, match="magic"):
            decode_frame(bad_magic)
        bad_version = HEADER.pack(MAGIC, PROTOCOL_VERSION + 1, len(payload),
                                  zlib.crc32(payload)) + payload
        with pytest.raises(FrameCorrupt, match="version"):
            decode_frame(bad_version)


class TestFramedChannel:
    @pytest.mark.parametrize("chunk", [None, 1, 3])
    def test_message_round_trip_with_partial_reads(self, chunk):
        # chunk=1 forces the worst-case transport: every read returns one
        # byte, so the channel's reassembly loop does all the work.
        stream = BufferStream(chunk=chunk)
        channel = FramedChannel(stream)
        for message in _sample_messages():
            channel.send(message)
        for expected in _sample_messages():
            received = channel.recv()
            assert type(received) is type(expected)
            if isinstance(expected, Submit):
                np.testing.assert_array_equal(received.image, expected.image)
            elif isinstance(expected, Done):
                np.testing.assert_array_equal(received.boxes, expected.boxes)
                assert received.current_scale == expected.current_scale
            else:
                assert received == expected

    def test_eof_at_boundary_is_channel_closed(self):
        channel = FramedChannel(BufferStream())
        with pytest.raises(ChannelClosed):
            channel.recv()

    def test_eof_mid_frame_is_truncation(self):
        sender = FramedChannel(BufferStream())
        sender.send(Hello(shard_id=0, pid=1))
        wire = bytes(sender.stream._buffer)
        # Peer died mid-send: deliver all but the last byte.
        channel = FramedChannel(BufferStream(wire[:-1]))
        with pytest.raises(FrameTruncated):
            channel.recv()

    def test_corrupt_payload_crc_detected_end_to_end(self):
        sender = FramedChannel(BufferStream())
        sender.send(Telemetry(queue_depth=5))
        wire = bytearray(sender.stream._buffer)
        wire[-1] ^= 0xFF
        channel = FramedChannel(BufferStream(bytes(wire)))
        with pytest.raises(FrameCorrupt):
            channel.recv()

    def test_send_refuses_oversized_message(self):
        channel = FramedChannel(BufferStream(), max_frame_bytes=128)
        with pytest.raises(FrameTooLarge):
            channel.send(Submit(stream_id=0, frame_index=0,
                                image=np.zeros((64, 64), dtype=np.float64)))

    def test_recv_refuses_oversized_frame(self):
        # The sender's bound is generous, the receiver's is tight: the
        # receiver must reject from the header without touching the payload.
        sender = FramedChannel(BufferStream())
        sender.send(Submit(stream_id=0, frame_index=0,
                           image=np.zeros((64, 64), dtype=np.float64)))
        receiver = FramedChannel(
            BufferStream(bytes(sender.stream._buffer)), max_frame_bytes=128
        )
        with pytest.raises(FrameTooLarge):
            receiver.recv()

    def test_back_to_back_frames_with_chunked_reads(self):
        stream = BufferStream(chunk=5)
        channel = FramedChannel(stream)
        for index in range(20):
            channel.send(Done(stream_id=index, frame_index=index, status="completed"))
        for index in range(20):
            message = channel.recv()
            assert (message.stream_id, message.frame_index) == (index, index)
        with pytest.raises(ChannelClosed):
            channel.recv()

    def test_default_bound_matches_module_constant(self):
        assert FramedChannel(BufferStream()).max_frame_bytes == DEFAULT_MAX_FRAME_BYTES


class TestPipeStream:
    def test_multi_message_buffering_over_real_pipe(self):
        # One send_bytes chunk != one frame: write several frames, then read
        # them back through PipeStream's chunk reassembly.
        parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
        try:
            sender = FramedChannel(PipeStream(child_conn))
            receiver = FramedChannel(PipeStream(parent_conn))
            messages = _sample_messages()
            for message in messages:
                sender.send(message)
            assert receiver.poll(0.5)
            received = [receiver.recv() for _ in messages]
            assert [type(m) for m in received] == [type(m) for m in messages]
            np.testing.assert_array_equal(received[2].image, messages[2].image)
        finally:
            parent_conn.close()
            child_conn.close()

    def test_closed_peer_surfaces_as_channel_closed(self):
        parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
        child_conn.close()
        channel = FramedChannel(PipeStream(parent_conn))
        try:
            assert channel.poll(0.1)  # dead peer is "readable"
            with pytest.raises(ChannelClosed):
                channel.recv()
        finally:
            parent_conn.close()

    def test_write_to_closed_peer_raises_channel_closed(self):
        parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
        child_conn.close()
        stream = PipeStream(parent_conn)
        try:
            with pytest.raises(ChannelClosed):
                # The first write may land in the OS buffer; keep writing
                # until the broken pipe surfaces.
                for _ in range(1024):
                    stream.write(b"x" * 4096)
        finally:
            parent_conn.close()


def test_messages_pickle_stably():
    """The vocabulary must survive pickling — it IS the wire format."""
    for message in _sample_messages():
        clone = pickle.loads(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
        assert type(clone) is type(message)
