"""Two-party pairing handshake over independently measured gait fingerprints.

Sequence: the initiator opens with its reliability ordering and a nonce; both
ends reduce their own fingerprint by that one ordering and decode the reduced
bits to a key; the responder answers with its nonce and a key confirmation
MAC, and the initiator confirms back.  The secret hashes the key with the
transcript.  There is no PAKE yet: a passive listener can still search the
22-bit keys of the default code offline against a captured confirmation MAC.
Fingerprint bits and reliability magnitudes never cross the wire: only an
index permutation, nonces, and MACs do.

One end of a session is a ``Session``: a state machine that does no I/O.
``start()`` and ``receive(frame)`` return the frames to send, and ``result``
is set once the session has ended.  ``run_pair_in_memory`` drives both ends.

Wire format (documented bit-exactly in docs/wire-format.md):
  frame   = [1B version=0x01][1B type][2B big-endian payload length][payload]
  reliability order payload = [2B M][M x 1B indices]
  nonce payload = [16B random]
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
import struct
from dataclasses import dataclass, field

import numpy as np

from .config import Config
from .errors import (
    ConfigError,
    ConfirmMismatch,
    DecodeFailure,
    MalformedMessage,
)
from .fingerprint import compute_fingerprint, reduce
from .fuzzy_ecc import CodeParams, FuzzyKey, choose_params, decode
from .gait import GaitSequence

PROTOCOL_VERSION = 0x01

MSG_RELIABILITY_ORDER = 0x02  # 0x01 is unassigned
MSG_NONCE = 0x03
MSG_CONFIRM = 0x04
MSG_ABORT = 0x05

NONCE_SIZE = 16

# the reasons a Session itself sends in an Abort; any other reason a peer
# sends is reported by its length alone, so peer text never reaches the result
ABORT_REASONS = frozenset({"decode failure", "malformed message",
                           "fingerprint length mismatch", "key confirmation failed"})


# -- framing ------------------------------------------------------------------------

def encode_frame(msg_type: int, payload: bytes = b"") -> bytes:
    if len(payload) > 0xFFFF:
        raise MalformedMessage(f"payload too long: {len(payload)}")
    return struct.pack(">BBH", PROTOCOL_VERSION, msg_type, len(payload)) + payload


def decode_frame(frame: bytes) -> tuple[int, bytes]:
    if len(frame) < 4:
        raise MalformedMessage(f"short frame ({len(frame)} bytes)")
    version, msg_type, length = struct.unpack(">BBH", frame[:4])
    if version != PROTOCOL_VERSION:
        raise MalformedMessage(f"unsupported version 0x{version:02x}")
    if len(frame) != 4 + length:
        raise MalformedMessage(
            f"frame length {len(frame)} != 4 + {length}")
    return msg_type, frame[4:]


def encode_reliability_payload(order: np.ndarray) -> bytes:
    m = order.shape[0]
    if m > 256:
        raise MalformedMessage(f"M={m} exceeds 8-bit index encoding")
    return struct.pack(">H", m) + order.astype(np.uint8).tobytes()


def decode_reliability_payload(payload: bytes) -> np.ndarray:
    if len(payload) < 2:
        raise MalformedMessage("reliability payload too short")
    (m,) = struct.unpack(">H", payload[:2])
    if len(payload) != 2 + m:
        raise MalformedMessage(f"reliability payload length {len(payload)} != {2 + m}")
    order = np.frombuffer(payload[2:], dtype=np.uint8).astype(int)
    if not np.array_equal(np.sort(order), np.arange(m)):
        raise MalformedMessage("reliability indices are not a permutation")
    return order


# -- key confirmation ------------------------------------------------------------------

def confirm_key(secret: bytes, transcript: bytes, role: str = "") -> bytes:
    """256-bit confirmation MAC over the transcript under a key derived from s."""
    mac_key = hashlib.sha256(b"gaitpair-confirm-v1" + secret).digest()
    return hmac.new(mac_key, role.encode() + transcript, hashlib.sha256).digest()


def verify_confirm(secret: bytes, transcript: bytes, role: str, mac: bytes) -> None:
    expected = confirm_key(secret, transcript, role)
    if not hmac.compare_digest(expected, mac):
        raise ConfirmMismatch("key confirmation MAC mismatch")


# -- session ---------------------------------------------------------------------------

@dataclass
class SessionResult:
    established: bool
    secret: bytes | None = None
    failure: str | None = None
    key: FuzzyKey | None = None
    applied_order: np.ndarray | None = field(default=None, repr=False)
    corrected_errors: int | None = None


def session_code_params(cfg: Config) -> CodeParams:
    """Code used at the decode step for a given configuration."""
    return choose_params(cfg.cutoff, 1.0 - cfg.threshold)


class Session:
    """One end of a pairing session, as a state machine that does no I/O.

    ``start()``, called once, and then ``receive(frame)`` for each peer frame
    return the frames to send, in order.  ``result`` is set once the session
    has ended; frames received after that are ignored.  The initiator's
    ``start()`` sends its reliability order, reduces its own fingerprint by it
    and decodes, then sends its nonce, or the decode-failure Abort.  The
    responder sends no order: it reduces by the one it receives and decodes,
    and answers the initiator's nonce with its own nonce and its confirmation;
    the initiator confirms back once that has verified.  Decode failures and
    dissimilar fingerprints are expected outcomes that simply end the attempt
    (fresh gait data is required for the next one).  A wrong or malformed
    frame ends the session; the frame types expected in turn are reliability
    order (responder only), nonce and confirmation.
    """

    def __init__(self, local_gait: GaitSequence, cfg: Config, *, initiator: bool,
                 nonce_rng: np.random.Generator | None = None):
        self._cfg = cfg
        self._params = session_code_params(cfg)
        self._fp, self._local_order = compute_fingerprint(local_gait, cfg.bits_per_cycle)
        m = self._fp.bits.size
        if m > 256:
            raise ConfigError(f"M={m} exceeds the wire encoding limit of 256")
        if m < cfg.cutoff:  # the code, chosen for the cutoff, has n <= cutoff
            raise ConfigError(f"need M >= cutoff, got M={m}, cutoff={cfg.cutoff}")
        self._initiator = initiator
        self._role = "A" if initiator else "B"
        self._nonce_rng = nonce_rng
        self._transcript = hashlib.sha256()  # fed each entry as it is added
        # an initiator expects nothing but an Abort until it has started
        self._expect(None if initiator else MSG_RELIABILITY_ORDER, self._on_order)
        self._applied: np.ndarray | None = None
        self.result: SessionResult | None = None

    def start(self) -> list[bytes]:
        if not self._initiator:
            return []
        frame = encode_frame(MSG_RELIABILITY_ORDER,
                             encode_reliability_payload(self._local_order))
        return [frame] + self._apply(frame, self._local_order)

    def receive(self, frame: bytes) -> list[bytes]:
        if self.result is not None:
            return []
        try:
            msg_type, payload = decode_frame(frame)
            if msg_type == MSG_ABORT:
                reason = payload.decode(errors="replace")
                if reason not in ABORT_REASONS:
                    reason = f"unrecognised reason ({len(payload)} bytes)"
                return self._end(f"peer abort: {reason}")
            if msg_type != self._expected:
                raise MalformedMessage(
                    f"expected message type {self._expected}, got {msg_type}")
            return self._handler(frame, payload)
        except ConfirmMismatch as exc:
            return self._end(f"ConfirmMismatch: {exc}", abort="key confirmation failed")
        except MalformedMessage as exc:
            return self._end(f"malformed message: {exc}", abort="malformed message")

    def _end(self, failure: str, abort: str | None = None) -> list[bytes]:
        self.result = SessionResult(established=False, failure=failure,
                                    applied_order=self._applied_order())
        return [] if abort is None else [encode_frame(MSG_ABORT, abort.encode())]

    def _applied_order(self) -> np.ndarray | None:
        """The initiator's order once this end has applied it, else None."""
        return None if self._applied is None else self._applied.copy()

    def _expect(self, msg_type: int | None, handler) -> None:
        self._expected, self._handler = msg_type, handler

    def _add(self, label: str, value: bytes) -> None:
        """Feed one entry, len16(label) || label || len32(value) || value, to
        the transcript digest."""
        tag = label.encode()
        self._transcript.update(struct.pack(">H", len(tag)) + tag
                                + struct.pack(">I", len(value)) + value)

    def _new_nonce(self) -> bytes:
        rng = self._nonce_rng
        return secrets.token_bytes(NONCE_SIZE) if rng is None else rng.bytes(NONCE_SIZE)

    def _confirm(self) -> bytes:
        return encode_frame(MSG_CONFIRM, confirm_key(self._secret, self._digest, self._role))

    # -- states, one per expected frame --

    def _on_order(self, frame: bytes, payload: bytes) -> list[bytes]:
        order = decode_reliability_payload(payload)
        m = self._fp.bits.size
        if order.shape[0] != m:
            return self._end(f"peer M={order.shape[0]} != local M={m}",
                             abort="fingerprint length mismatch")
        return self._apply(frame, order)

    def _apply(self, frame: bytes, order: np.ndarray) -> list[bytes]:
        """Reduce the local fingerprint by the initiator's order and decode."""
        self._add("order", frame)
        self._applied = order
        reduced = reduce(self._fp, order, self._cfg.cutoff)
        try:
            self._key = decode(reduced.bits[: self._params.n], self._params)
        except DecodeFailure:
            return self._end("decode failure: fingerprint too far from the codespace",
                             abort="decode failure")
        self._expect(MSG_NONCE, self._on_nonce)
        if not self._initiator:
            return []
        self._nonce = self._new_nonce()
        return [encode_frame(MSG_NONCE, self._nonce)]

    def _on_nonce(self, frame: bytes, payload: bytes) -> list[bytes]:
        """Derive the secret from the key and both nonces; the responder then
        sends its own nonce and confirms first."""
        if len(payload) != NONCE_SIZE:
            raise MalformedMessage(f"nonce of {len(payload)} bytes, not {NONCE_SIZE}")
        if not self._initiator:
            self._nonce = self._new_nonce()
        nonce_a, nonce_b = ((self._nonce, payload) if self._initiator
                            else (payload, self._nonce))
        self._add("nonce-A", nonce_a)
        self._add("nonce-B", nonce_b)
        self._digest = self._transcript.digest()
        self._secret = hashlib.sha256(
            b"gaitpair-secret-v1" + self._key.to_bytes() + self._digest).digest()
        self._expect(MSG_CONFIRM, self._on_confirm)
        if self._initiator:
            return []
        return [encode_frame(MSG_NONCE, self._nonce), self._confirm()]

    def _on_confirm(self, frame: bytes, payload: bytes) -> list[bytes]:
        peer_role = "B" if self._initiator else "A"
        verify_confirm(self._secret, self._digest, peer_role, payload)
        self.result = SessionResult(
            established=True,
            secret=self._secret,
            key=self._key,
            applied_order=self._applied_order(),
            corrected_errors=self._key.corrected_errors,
        )
        return [self._confirm()] if self._initiator else []


def run_pair_in_memory(seq_a: GaitSequence, seq_b: GaitSequence, cfg: Config, *,
                       seed: int | None = None,
                       capture: list[bytes] | None = None
                       ) -> tuple[SessionResult, SessionResult]:
    """Run both ends of one session in this thread, handing each end's frames
    to the other until neither has a frame left to send.

    With ``seed`` set, both ends draw their nonces from one generator seeded
    with it, initiator first; this is for tests and evaluation only and is
    insecure for real pairing.  ``capture``, if given, receives every frame
    sent.
    """
    rng = None if seed is None else np.random.default_rng(seed)
    a = Session(seq_a, cfg, initiator=True, nonce_rng=rng)
    b = Session(seq_b, cfg, initiator=False, nonce_rng=rng)
    a_out, b_out = a.start(), b.start()
    while a_out or b_out:
        if capture is not None:
            capture += a_out + b_out
        a_out, b_out = ([out for frame in b_out for out in a.receive(frame)],
                        [out for frame in a_out for out in b.receive(frame)])
    for session in (a, b):  # a peer that stopped sending leaves this end waiting
        if session.result is None:
            session._end("peer stopped sending")
    return a.result, b.result
