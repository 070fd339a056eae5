"""Fuzzy key extraction: map a bit vector to the nearest codeword's message.

Binary BCH codes over GF(2) carry the session's code-offset reconciliation:
a responder's reduced fingerprint, offset by the initiator's helper (the
systematic parity of the initiator's key bits XOR its other bits), decodes to
the initiator's key exactly when the two lie within Hamming distance t.
Decoding is strict bounded-distance; an input farther than t from every
codeword raises DecodeFailure rather than returning an unvetted key.  Its
steps, with tables built once per code:

- the t odd syndromes S_1, S_3, .., S_2t-1, as the XOR of one per-byte table
  row per byte of the packed word; the even ones are squares, S_2i = S_i^2;
- the t-step binary Berlekamp-Massey iteration (Lin & Costello, *Error
  Control Coding*, ch. 6), which accepts the locator only if its degree
  equals its register length L <= t;
- a Chien search that evaluates the locator at every position's root
  candidate from a degree-by-position table of powers of alpha, and accepts
  only as many roots as the degree;
- re-verification that the corrected word is a codeword.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import repeat
from operator import xor

import numpy as np

from .errors import DecodeFailure, LengthMismatch, NoSuitableCode

# primitive polynomials for GF(2^m), LSB = constant term
_PRIMITIVE_POLY = {
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
}


@dataclass(frozen=True)
class CodeParams:
    """Parameters of one binary BCH code.

    n          code length, 2^m - 1
    k          message length
    t          guaranteed correctable errors (designed)
    m          field extension degree
    generator  generator polynomial over GF(2) as an int, LSB = x^0
    """

    n: int
    k: int
    t: int
    m: int
    generator: int


@dataclass
class FuzzyKey:
    """Error-corrected key recovered from a fingerprint."""

    key_bits: np.ndarray
    corrected_errors: int

    def to_bytes(self) -> bytes:
        """Serialize MSB-first, zero-padded at the tail."""
        return np.packbits(self.key_bits).tobytes()


# -- GF(2^m) arithmetic ----------------------------------------------------------

class _Field:
    """Antilog table for GF(2^m), and the decoder's product tables:
    ``scale[a]`` is a ``bytes.translate`` table taking each element b to
    a * b, and ``inverse[a]`` is 1 / a."""

    def __init__(self, m: int):
        if m not in _PRIMITIVE_POLY:
            raise NoSuitableCode(f"unsupported field degree m={m}")
        self.m = m
        self.n = (1 << m) - 1
        exp = [0] * (2 * self.n)
        log = [0] * (self.n + 1)
        x = 1
        for i in range(self.n):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & (1 << m):
                x ^= _PRIMITIVE_POLY[m]
        for i in range(self.n, 2 * self.n):
            exp[i] = exp[i - self.n]
        self.exp = exp
        nonzero = range(1, self.n + 1)
        self.scale = [bytes(256)] + [
            bytes([0] + [exp[log[a] + log[b]] for b in nonzero]).ljust(256, b"\0")
            for a in nonzero]
        self.inverse = [0] + [exp[self.n - log[a]] for a in nonzero]

    def mul(self, a: int, b: int) -> int:
        return self.scale[a][b]

    def alpha_pow(self, e: int) -> int:
        return self.exp[e % self.n]


@lru_cache(maxsize=None)
def _field(m: int) -> _Field:
    return _Field(m)


# -- generator polynomial construction --------------------------------------------

def _gf2_poly_mul(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials packed into ints."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _gf2_poly_mod(a: int, g: int) -> int:
    """Remainder of a(x) divided by g(x) over GF(2)."""
    dg = g.bit_length() - 1
    da = a.bit_length() - 1
    while da >= dg:
        a ^= g << (da - dg)
        da = a.bit_length() - 1
    return a


def _cyclotomic_coset(i: int, n: int) -> list[int]:
    coset = [i]
    j = (i * 2) % n
    while j != i:
        coset.append(j)
        j = (j * 2) % n
    return coset


def _minimal_polynomial(field: _Field, coset: list[int]) -> int:
    """Product of (x - alpha^j) over the coset; coefficients land in GF(2)."""
    poly = [1]  # poly[d] = coefficient of x^d, elements of GF(2^m)
    for j in coset:
        root = field.alpha_pow(j)
        nxt = [0] * (len(poly) + 1)
        for d, c in enumerate(poly):
            if c:
                nxt[d + 1] ^= c
                nxt[d] ^= field.mul(c, root)
        poly = nxt
    out = 0
    for d, c in enumerate(poly):
        if c not in (0, 1):
            raise AssertionError("minimal polynomial has non-binary coefficient")
        if c:
            out |= 1 << d
    return out


@lru_cache(maxsize=None)
def code_table(n: int) -> tuple[CodeParams, ...]:
    """All achievable (n, k, t) combinations at length n = 2^m - 1, in t order.

    One pass over the designed correction capacities: the generator for t is
    the LCM of the minimal polynomials of alpha^1 .. alpha^2t, so each step
    multiplies in the coset of alpha^(2t-1) unless an earlier one held it;
    alpha^2t = (alpha^t)^2 shares alpha^t's coset, already in.  Consecutive
    designed values that produce the same generator collapse into the
    larger t.
    """
    m = n.bit_length()
    if (1 << m) - 1 != n or m not in _PRIMITIVE_POLY:
        raise NoSuitableCode(f"n={n} is not 2^m - 1 for a supported m")
    field = _field(m)
    seen: set[int] = set()
    g = 1
    by_generator: dict[int, int] = {}
    for t in range(1, (n - 1) // 2 + 1):
        if 2 * t - 1 not in seen:
            coset = _cyclotomic_coset(2 * t - 1, n)
            seen.update(coset)
            g = _gf2_poly_mul(g, _minimal_polynomial(field, coset))
        if g.bit_length() - 1 >= n:  # k < 1
            break
        by_generator[g] = t
    return tuple(CodeParams(n=n, k=n - (g.bit_length() - 1), t=t, m=m, generator=g)
                 for g, t in by_generator.items())


@lru_cache(maxsize=64)
def choose_params(N: int, error_rate: float) -> CodeParams:
    """Pick the code for an N-bit fingerprint tolerating the given error rate.

    The code length is the largest 2^m - 1 not exceeding N.  Among achievable
    codes, the one with the largest t that still keeps t/n within the error
    budget is selected, so the similarity threshold implied by the code is
    never looser than requested; if even t=1 exceeds the budget, the closest
    achievable (t=1) is reported.
    """
    if not 0.0 < error_rate < 0.5:
        raise NoSuitableCode(f"error_rate must be in (0, 0.5), got {error_rate}")
    n = 0
    for m in sorted(_PRIMITIVE_POLY):
        if (1 << m) - 1 <= N:
            n = (1 << m) - 1
    if n == 0:
        raise NoSuitableCode(f"no supported code length <= N={N}")
    budget = int(np.floor(n * error_rate + 1e-12))
    table = code_table(n)
    fitting = [p for p in table if p.t <= budget]
    if fitting:
        return max(fitting, key=lambda p: p.t)
    return min(table, key=lambda p: p.t)


# -- encode / decode ---------------------------------------------------------------

def _bits_to_int(bits: np.ndarray) -> int:
    """bits[0] is the highest-degree coefficient."""
    if bits.size == 0:
        return 0
    packed = np.packbits(bits)
    return int.from_bytes(packed.tobytes(), "big") >> ((-bits.size) % 8)


def _int_to_bits(value: int, width: int) -> np.ndarray:
    raw = value.to_bytes((width + 7) // 8, "big")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[-width:]


def encode(message: np.ndarray, params: CodeParams) -> np.ndarray:
    """Systematic encoding: message bits first, parity appended."""
    message = np.asarray(message).astype(np.uint8).ravel()
    if message.shape[0] != params.k:
        raise LengthMismatch(
            f"message length {message.shape[0]} != k={params.k}")
    shifted = _bits_to_int(message) << (params.n - params.k)
    parity = _gf2_poly_mod(shifted, params.generator)
    return _int_to_bits(shifted | parity, params.n)


class _Decoder:
    """Tables for decoding one code, built once per ``CodeParams``.

    Bit position p of a word carries the coefficient of x^(n-1-p).
    ``rows[b][v]`` packs, one byte each, the t odd syndromes
    S_1, S_3, .., S_2t-1 that byte value v contributes at byte b of the packed
    word, so the XOR of one row per byte gives the word's odd syndromes.  An
    error at position p has locator root alpha^(p+1); ``powers[d][p]`` is
    alpha^(d(p+1)), the degree-d term of the locator at that root candidate.
    """

    def __init__(self, params: CodeParams):
        field = _field(params.m)
        n, t = params.n, params.t
        self.n = n
        self.t = t
        self.scale = field.scale
        self.inverse = field.inverse
        single = [sum(field.exp[(2 * i + 1) * (n - 1 - p) % n] << (8 * i)
                      for i in range(t)) for p in range(n)]
        single += [0] * (-n % 8)  # packbits pads the last byte with zero bits
        self.rows = []
        for b in range(0, len(single), 8):
            row = [0]
            for p in range(b + 7, b - 1, -1):  # least significant bit first
                bit = single[p]
                row += [v ^ bit for v in row]
            self.rows.append(row)
        self.powers = [bytes(field.exp[d * (p + 1) % n] for p in range(n))
                       for d in range(t + 1)]

    def syndromes(self, bits: np.ndarray) -> int:
        """The odd syndromes of a word, packed; 0 iff it is a codeword."""
        return reduce(xor, map(list.__getitem__, self.rows,
                               np.packbits(bits).tobytes()), 0)

    def locator(self, packed: int) -> bytes | None:
        """Error-locator coefficients (index = degree), or None.

        Binary Berlekamp-Massey: for a word over GF(2), S_2i = S_i^2 and the
        discrepancy of every even step is zero, so the t odd steps give the
        locator of the full 2t-step iteration.  The discrepancies of all steps
        ride along with the connection polynomial C as D = C * S(x), with
        S(x) = sum S_j x^j (Sarwate & Shanbhag's discrepancy polynomial): an
        update C += q x^s B is also D += q x^s (B * S), so the packed pair
        (C, D) changes by one translate of the packed (B, B * S), and step j
        reads its discrepancy as coefficient j of D.  C's degree never
        exceeds the register length L, and L never falls, so the locator is
        rejected once L passes t, and at the end unless C_L != 0.
        """
        scale, t = self.scale, self.t
        width = 2 * t  # bytes of C, then of D; every index read is < 2t
        syn = bytearray(width)  # syn[j] = S_j for j = 1..2t-1
        syn[1::2] = packed.to_bytes(t, "little")
        for j in range(2, width, 2):
            syn[j] = scale[syn[j >> 1]][syn[j >> 1]]
        pair = 1 | int.from_bytes(syn, "little") << (8 * width)
        keep = (1 << (16 * width)) - 1
        previous = pair.to_bytes(2 * width, "little")  # (B, B * S)
        length = 0
        shift = 1
        b_inv = 1
        for j in range(1, width, 2):
            d = pair >> (8 * (width + j)) & 0xFF
            if not d:
                shift += 2
                continue
            update = int.from_bytes(
                previous.translate(scale[scale[d][b_inv]]), "little") << (8 * shift)
            if 2 * length < j:
                previous = pair.to_bytes(2 * width, "little")
                length = j - length
                if length > t:
                    return None
                b_inv = self.inverse[d]
                shift = 2
            else:
                shift += 2
            pair = (pair ^ update) & keep
        coefficients = pair.to_bytes(2 * width, "little")[: length + 1]
        return coefficients if coefficients[length] else None

    def chien(self, locator: bytes) -> bytes:
        """The locator's value at the root candidate of every bit position."""
        value = reduce(xor, map(int.from_bytes,
                                map(bytes.translate, self.powers,
                                    map(self.scale.__getitem__, locator)),
                                repeat("little")))
        return value.to_bytes(self.n, "little")


@lru_cache(maxsize=None)
def _decoder(params: CodeParams) -> _Decoder:
    return _Decoder(params)


def decode(bits: np.ndarray, params: CodeParams) -> FuzzyKey:
    """Bounded-distance decode of a received bit vector of length ``params.n``.

    Returns the message of the unique codeword within Hamming distance t of
    the input.  If no such codeword exists the input is rejected; the caller
    treats that as a failed pairing attempt and starts over with fresh gait
    data.
    """
    bits = np.asarray(bits).astype(np.uint8).ravel()
    if bits.shape[0] != params.n:
        raise LengthMismatch(
            f"fingerprint length {bits.shape[0]} != code length n={params.n}")
    decoder = _decoder(params)
    packed = decoder.syndromes(bits)
    if not packed:
        return FuzzyKey(key_bits=bits[: params.k].copy(), corrected_errors=0)

    locator = decoder.locator(packed)
    if locator is None:
        raise DecodeFailure("no codeword within the correction radius")
    values = decoder.chien(locator)
    roots = values.count(0)
    if roots != len(locator) - 1:
        raise DecodeFailure("error locator does not split over the field")
    corrected = bits ^ (np.frombuffer(values, dtype=np.uint8) == 0)
    if decoder.syndromes(corrected):
        raise DecodeFailure("corrected word fails re-verification")
    return FuzzyKey(key_bits=corrected[: params.k].copy(), corrected_errors=roots)
