"""Wire-protocol framing: the sync and asyncio endpoints must agree."""

import socket
import struct

import pytest

from repro.cluster.protocol import (
    MAX_FRAME,
    PROTOCOL_VERSION,
    UNSUPPORTED,
    ProtocolError,
    outcome_from_wire,
    outcome_to_wire,
    pack_frame,
    parse_address,
    recv_frame,
    send_frame,
    unsupported_frame,
)
from repro.search.results import EvalOutcome


def _pair():
    return socket.socketpair()


class TestFraming:
    def test_round_trip(self):
        a, b = _pair()
        with a, b:
            message = {"type": "task", "flags": {"INSN01": "s"}, "task": 7}
            send_frame(a, message)
            assert recv_frame(b) == message

    def test_multiple_frames_in_order(self):
        a, b = _pair()
        with a, b:
            for i in range(5):
                send_frame(a, {"type": "lease", "n": i})
            for i in range(5):
                assert recv_frame(b)["n"] == i

    def test_clean_eof_returns_none(self):
        a, b = _pair()
        with b:
            a.close()
            assert recv_frame(b) is None

    def test_eof_mid_frame_raises(self):
        a, b = _pair()
        with b:
            frame = pack_frame({"type": "lease"})
            a.sendall(frame[: len(frame) - 2])  # header + partial payload
            a.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_frame(b)

    def test_oversized_header_rejected(self):
        a, b = _pair()
        with a, b:
            a.sendall(struct.pack(">I", MAX_FRAME + 1))
            with pytest.raises(ProtocolError, match="MAX_FRAME"):
                recv_frame(b)

    def test_oversized_message_rejected_at_send(self):
        with pytest.raises(ProtocolError, match="MAX_FRAME"):
            pack_frame({"type": "task", "blob": "x" * (MAX_FRAME + 1)})

    def test_untyped_frame_rejected(self):
        a, b = _pair()
        with a, b:
            payload = b'{"no_type": 1}'
            a.sendall(struct.pack(">I", len(payload)) + payload)
            with pytest.raises(ProtocolError, match="not a typed message"):
                recv_frame(b)

    def test_garbage_payload_rejected(self):
        a, b = _pair()
        with a, b:
            payload = b"\xff\xfe not json"
            a.sendall(struct.pack(">I", len(payload)) + payload)
            with pytest.raises(ProtocolError, match="undecodable"):
                recv_frame(b)


class TestHelpers:
    def test_parse_address(self):
        assert parse_address("127.0.0.1:80") == ("127.0.0.1", 80)
        assert parse_address("[::1]:0") == ("[::1]", 0)

    def test_parse_address_rejects_bare_host(self):
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_address("localhost")

    def test_outcome_wire_round_trip(self):
        for outcome in (
            EvalOutcome(True, 1234, "", ""),
            EvalOutcome(False, 0, "fp overflow", "trap"),
            EvalOutcome(False, 99, "", "verify"),
        ):
            assert outcome_from_wire(outcome_to_wire(outcome)) == outcome

    @pytest.mark.parametrize("wire", [
        [True, 5],
        [True, 5, "", "", ""],
        (True, 5, "", ""),
        [1, 5, "", ""],
        [True, 5.0, "", ""],
        [True, False, "", ""],
        [True, 5, None, ""],
        [True, 5, "", 0],
        None,
    ])
    def test_malformed_outcome_is_a_protocol_error(self, wire):
        with pytest.raises(ProtocolError, match="malformed outcome"):
            outcome_from_wire(wire)


class TestNegotiation:
    def test_unsupported_frame_names_both_sides(self):
        frame = unsupported_frame({"version": 1})
        assert frame["type"] == UNSUPPORTED
        assert frame["supported"] == [PROTOCOL_VERSION]
        assert "1" in frame["message"]
        assert str(PROTOCOL_VERSION) in frame["message"]

    def test_defaults_track_the_module_constants(self):
        # One version, no negotiation: the refusal offers exactly it.
        assert unsupported_frame({})["supported"] == [PROTOCOL_VERSION]
