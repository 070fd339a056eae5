"""Two-party pairing handshake over independently measured gait fingerprints.

Reconciliation is systematic code-offset (Juels & Wattenberg, CCS 1999;
Dodis, Reyzin & Smith, EUROCRYPT 2004): the initiator reduces its fingerprint
by its own order to n bits w, keeps w[:k] as its key, and opens with the N
order indices, the helper h = encode(w[:k])[k:] xor w[k:] and a nonce.  The
responder reduces by those indices, XORs h into bits k..n-1 and decodes to
w[:k] exactly when its word is within t bits of w; it answers with its nonce
and a confirmation MAC, and the initiator confirms back.  The secret hashes
the key with the transcript.  There is no PAKE yet, so a passive listener can
still search the 22-bit keys offline against a captured MAC.  Fingerprint bit
values never cross the wire, but h, derived from w, reveals up to n - k bits,
and the indices say which bits share a cycle: from the opening frame alone,
``eval_harness.key_guesswork``'s attacker finds the key within two guesses in
132/132, 131/132 and 99/150 windows of seeds 7, 11 and 1001 (4 subjects x 300
cycles).

One end of a session is a ``Session``: a state machine that does no I/O.
``start()`` and ``receive(frame)`` return the frames to send, and ``result``
is set once the session has ended.  ``run_pair_in_memory`` drives both ends.

Wire format (documented bit-exactly in docs/wire-format.md):
  frame   = [1B version=0x01][1B type][2B big-endian payload length][payload]
  reliability order payload = [2B N][N x 1B indices][h, MSB-first, zero-padded]
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
from .fingerprint import compute_fingerprint
from .fuzzy_ecc import CodeParams, FuzzyKey, choose_params, decode, encode
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
                           "key confirmation failed"})


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


def encode_reliability_payload(indices: np.ndarray, helper: bytes) -> bytes:
    # bytes() refuses an index above 255 rather than wrapping it
    return struct.pack(">H", len(indices)) + bytes(indices.tolist()) + helper


def decode_reliability_payload(payload: bytes, m: int, N: int, helper_size: int
                               ) -> tuple[np.ndarray, bytes]:
    """The N distinct indices below M and the ``helper_size``-byte helper of
    an opening payload; anything else is a ``MalformedMessage``."""
    count = int.from_bytes(payload[:2], "big")  # a shorter payload fails a check
    if count != N:
        raise MalformedMessage(f"{count} reliability indices, not N={N}")
    if len(payload) != 2 + N + helper_size:
        raise MalformedMessage(
            f"reliability payload length {len(payload)} != {2 + N + helper_size}")
    indices = np.frombuffer(payload, dtype=np.uint8, count=N, offset=2).astype(np.intp)
    counts = np.bincount(indices, minlength=m)
    if counts.size > m:
        raise MalformedMessage(f"reliability index {counts.size - 1} >= M={m}")
    if counts.max(initial=0) > 1:
        raise MalformedMessage("repeated reliability index")
    return indices, payload[2 + N:]


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


def session_code_params(cfg: Config) -> CodeParams:
    """Code used at the decode step for a given configuration."""
    return choose_params(cfg.cutoff, 1.0 - cfg.threshold)


class Session:
    """One end of a pairing session, as a state machine that does no I/O.

    ``start()``, called once, and then ``receive(frame)`` for each peer frame
    return the frames to send, in order.  ``result`` is set once the session
    has ended; frames received after that are ignored.  The initiator's
    ``start()`` keeps its own reduced bits as the key and sends its order
    indices with the code-offset helper, then its nonce.  The responder sends
    no order: it applies the one it receives and the helper and decodes, and
    answers the initiator's nonce with its own nonce and its confirmation;
    the initiator confirms back once that has verified.  A decode failure
    (dissimilar fingerprints) is an expected outcome that simply ends the
    attempt; fresh gait data is required for the next one.  A wrong or
    malformed frame ends the session; the frame types expected in turn are
    reliability order (responder only), nonce and confirmation.
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
        self._applied: np.ndarray | None = None  # the initiator's N order indices
        self.result: SessionResult | None = None

    def start(self) -> list[bytes]:
        if not self._initiator:
            return []
        indices = self._local_order[: self._cfg.cutoff]
        word = self._fp.bits[indices[: self._params.n]]
        k = self._params.k
        self._key = FuzzyKey(key_bits=word[:k], corrected_errors=0)
        helper = np.packbits(encode(word[:k], self._params)[k:] ^ word[k:]).tobytes()
        frame = encode_frame(MSG_RELIABILITY_ORDER,
                             encode_reliability_payload(indices, helper))
        self._opened(frame, indices)
        self._nonce = self._new_nonce()
        return [frame, encode_frame(MSG_NONCE, self._nonce)]

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
                                    applied_order=self._applied)
        return [] if abort is None else [encode_frame(MSG_ABORT, abort.encode())]

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

    def _opened(self, frame: bytes, indices: np.ndarray) -> None:
        """Enter the order frame in the transcript and await the nonce."""
        self._add("order", frame)
        self._applied = indices
        self._expect(MSG_NONCE, self._on_nonce)

    # -- states, one per expected frame --

    def _on_order(self, frame: bytes, payload: bytes) -> list[bytes]:
        """Reduce by the initiator's indices, add its helper and decode."""
        n, k = self._params.n, self._params.k
        indices, helper = decode_reliability_payload(
            payload, self._fp.bits.size, self._cfg.cutoff, (n - k + 7) // 8)
        self._opened(frame, indices)
        word = self._fp.bits[indices[:n]]
        word[k:] ^= np.unpackbits(np.frombuffer(helper, dtype=np.uint8), count=n - k)
        try:
            self._key = decode(word, self._params)
        except DecodeFailure:
            return self._end("decode failure: fingerprint too far from the initiator's",
                             abort="decode failure")
        return []

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
            applied_order=self._applied,
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
