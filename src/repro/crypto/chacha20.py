"""ChaCha20 stream cipher (RFC 8439), pure Python.

Used as the symmetric cipher inside the AEAD construction that protects
onion layers and the hybrid payload of IBE-encrypted friend requests.

All blocks of a message are computed in one pass over four Python ints, one
per row of the 4x4 state.  A row int holds a 64-bit *lane* per (word, block):
the 32-bit word sits in the low half, the high half is headroom for the
carry of an add and the spill of a rotate, masked off after each.  A column
round is then a single quarter round on the four rows, a diagonal round the
same after rotating rows 1-3 by whole words, so the 80 quarter rounds of the
textbook form become 20 per *message* -- only shifts, XORs, adds and masks
on ints a few hundred bytes wide, no per-block Python loop.  A 640-byte
seal costs ~0.1 ms this way (``crypto.seal_us.pure`` on the benchmark
ladder; README "Choosing a crypto backend" has the table).
"""

from __future__ import annotations

import struct

from repro.errors import CryptoError
from repro.utils.bytes import xor_bytes

KEY_SIZE = 32
NONCE_SIZE = 12
BLOCK_SIZE = 64

_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)
_MASK32 = 0xFFFFFFFF
_LANE_BYTES = 8


def _row(words: tuple[int, ...], blocks: int) -> int:
    """Four state words, each repeated over ``blocks`` consecutive lanes."""
    return int.from_bytes(
        b"".join(word.to_bytes(_LANE_BYTES, "little") * blocks for word in words), "little"
    )


def _keystream_blocks(key: bytes, nonce: bytes, counter: int, blocks: int) -> bytes:
    """``blocks`` consecutive 64-byte keystream blocks, starting at ``counter``.

    Lane ``w * blocks + i`` of row ``r`` is state word ``4r + w`` of block
    ``counter + i`` (mod 2**32, as RFC 8439's 32-bit counter wraps).
    """
    key_words = struct.unpack("<8I", key)
    m = int.from_bytes(b"\xff\xff\xff\xff\x00\x00\x00\x00" * (4 * blocks), "little")
    a0 = _row(_CONSTANTS, blocks)
    b0 = _row(key_words[:4], blocks)
    c0 = _row(key_words[4:], blocks)
    d0 = _row((0,) + struct.unpack("<3I", nonce), blocks) | int.from_bytes(
        b"".join(((counter + i) & _MASK32).to_bytes(_LANE_BYTES, "little") for i in range(blocks)),
        "little",
    )
    a, b, c, d = a0, b0, c0, d0
    # Rotating a row by k words is rotating the int by k * blocks lanes; the
    # lanes pushed past the top are cut by the same mask as everything else.
    w1 = 8 * _LANE_BYTES * blocks
    w2 = 2 * w1
    w3 = 3 * w1
    for _ in range(10):
        # A column round, rows 1-3 rotated left by 1, 2, 3 words; then the
        # same quarter round is the diagonal round, and they rotate back.
        for s1, s3 in ((w1, w3), (w3, w1)):
            a = (a + b) & m; d ^= a; d = ((d << 16) | (d >> 16)) & m  # noqa: E702
            c = (c + d) & m; b ^= c; b = ((b << 12) | (b >> 20)) & m  # noqa: E702
            a = (a + b) & m; d ^= a; d = ((d << 8) | (d >> 24)) & m  # noqa: E702
            c = (c + d) & m; b ^= c; b = ((b << 7) | (b >> 25)) & m  # noqa: E702
            b = ((b >> s1) | (b << s3)) & m
            c = ((c >> w2) | (c << w2)) & m
            d = ((d >> s3) | (d << s1)) & m
    # Word-major lanes -> block-major bytes.  Output words 2k and 2k+1 fill
    # exactly one 8-byte lane, so OR each row with itself one word down and
    # 32 bits up (lane groups 0 and 2 then hold the pairs) and let a strided
    # 8-byte copy drop lane i of pair k at byte 64*i + 8*k.
    out = bytearray(BLOCK_SIZE * blocks)
    view = memoryview(out).cast("Q")
    size = _LANE_BYTES * blocks
    for r, row in enumerate(((a + a0) & m, (b + b0) & m, (c + c0) & m, (d + d0) & m)):
        pairs = memoryview((row | (row >> w1 << 32)).to_bytes(4 * size, "little"))
        view[2 * r :: 8] = pairs[:size].cast("Q")
        view[2 * r + 1 :: 8] = pairs[2 * size : 3 * size].cast("Q")
    return bytes(out)


def chacha20_stream(key: bytes, nonce: bytes, length: int, initial_counter: int = 0) -> bytes:
    """Return ``length`` bytes of ChaCha20 keystream."""
    if len(key) != KEY_SIZE:
        raise CryptoError(f"ChaCha20 key must be {KEY_SIZE} bytes, got {len(key)}")
    if len(nonce) != NONCE_SIZE:
        raise CryptoError(f"ChaCha20 nonce must be {NONCE_SIZE} bytes, got {len(nonce)}")
    if length <= 0:
        return b""
    blocks = -(-length // BLOCK_SIZE)
    return _keystream_blocks(key, nonce, initial_counter, blocks)[:length]


def chacha20_encrypt(key: bytes, nonce: bytes, plaintext: bytes, initial_counter: int = 0) -> bytes:
    """Encrypt (or decrypt) by XOR with the keystream."""
    return xor_bytes(plaintext, chacha20_stream(key, nonce, len(plaintext), initial_counter))


# Decryption is the same XOR operation.
chacha20_decrypt = chacha20_encrypt
