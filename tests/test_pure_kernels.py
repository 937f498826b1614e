"""The pure engine's fast kernels against the textbook code they replaced.

``textbook_crypto`` (this directory) is the per-block ChaCha20, the
bit-at-a-time Edwards ladder and the fully reduced Montgomery ladder that
``src/repro/crypto`` shipped up to commit 194c5e6.  Every fast kernel must
be byte-identical to it, and the Ed25519 vectors below were generated *at*
that commit, so a wire byte cannot have moved.  Cross-backend equality of
``seal``/``open``/``public_key`` stays in ``test_crypto_engine.py``.
"""

from __future__ import annotations

import functools
import hashlib

import pytest
from hypothesis import example, given, settings, strategies as st

import textbook_crypto as textbook
from conftest import engine_names
from repro.crypto import chacha20, ed25519, x25519
from repro.crypto.aead import pure_open_sealed, pure_seal
from repro.crypto.poly1305 import poly1305_mac
from repro.errors import CryptoError
from repro.utils.bytes import xor_bytes

P = textbook.P
L = textbook.L

keys32 = st.binary(min_size=32, max_size=32)
nonces12 = st.binary(min_size=12, max_size=12)
#: Whole-width integers: ``st.integers`` over a 256-bit range favours small values.
scalars256 = keys32.map(lambda data: int.from_bytes(data, "little"))
#: 0 and 1 are the AEAD's own counters; 2**32 - 2 makes the lane counters wrap.
counters = st.sampled_from([0, 1, 2**32 - 2])


def backend_params():
    """Each backend, bare and traced (the ``backend`` fixture in conftest)."""
    return pytest.mark.parametrize("backend", engine_names(), indirect=True)


# --------------------------------------------------------------------------- #
# ChaCha20: all blocks at once == one block at a time
# --------------------------------------------------------------------------- #
class TestLanePackedChaCha20:
    @pytest.mark.parametrize("length", [0, 1, 63, 64, 65, 640, 704])
    @pytest.mark.parametrize("counter", [0, 1, 2**32 - 2])
    def test_keystream_matches_textbook_at_block_edges(self, length, counter):
        key = bytes(range(32))
        nonce = bytes(range(100, 112))
        assert chacha20.chacha20_stream(key, nonce, length, counter) == textbook.chacha20_stream(
            key, nonce, length, counter
        )

    @settings(max_examples=40, deadline=None)
    @given(key=keys32, nonce=nonces12, length=st.integers(0, 2000), counter=counters)
    def test_keystream_matches_textbook(self, key, nonce, length, counter):
        assert chacha20.chacha20_stream(key, nonce, length, counter) == textbook.chacha20_stream(
            key, nonce, length, counter
        )

    def test_lane_counters_wrap_mod_2_32(self):
        key, nonce = b"\x07" * 32, b"\x09" * 12
        stream = chacha20.chacha20_stream(key, nonce, 4 * 64, 2**32 - 2)
        blocks = [stream[i : i + 64] for i in range(0, 256, 64)]
        expected = [textbook.chacha20_block(key, c, nonce) for c in (2**32 - 2, 2**32 - 1, 0, 1)]
        assert blocks == expected

    @settings(max_examples=25, deadline=None)
    @given(key=keys32, nonce=nonces12, plaintext=st.binary(max_size=700), counter=counters)
    def test_encrypt_matches_textbook_and_inverts(self, key, nonce, plaintext, counter):
        stream = chacha20.chacha20_stream(key, nonce, len(plaintext), counter)
        ciphertext = xor_bytes(plaintext, stream)
        assert ciphertext == textbook.chacha20_encrypt(key, nonce, plaintext, counter)
        assert xor_bytes(ciphertext, stream) == plaintext

    def test_zero_length_builds_no_lanes(self, monkeypatch):
        def boom(*args):
            raise AssertionError("keystream computed for an empty request")

        monkeypatch.setattr(chacha20, "_keystream_blocks", boom)
        assert chacha20.chacha20_stream(b"k" * 32, b"n" * 12, 0) == b""
        with pytest.raises(CryptoError):  # lengths are still checked first
            chacha20.chacha20_stream(b"short", b"n" * 12, 0)

    @settings(max_examples=25, deadline=None)
    @given(
        key=keys32,
        nonce=nonces12,
        plaintext=st.binary(max_size=700),
        associated_data=st.binary(max_size=40),
    )
    def test_fused_aead_keystream_is_block0_then_blocks_1_to_n(
        self, key, nonce, plaintext, associated_data
    ):
        """One cipher pass per seal: Poly1305 key from block 0, body from block 1 on."""
        box = pure_seal(key, plaintext, associated_data, nonce)
        ciphertext = textbook.chacha20_encrypt(key, nonce, plaintext, 1)
        pad = lambda data: b"\x00" * (-len(data) % 16)  # noqa: E731
        tag = poly1305_mac(
            textbook.chacha20_block(key, 0, nonce)[:32],
            associated_data
            + pad(associated_data)
            + ciphertext
            + pad(ciphertext)
            + len(associated_data).to_bytes(8, "little")
            + len(ciphertext).to_bytes(8, "little"),
        )
        assert box == nonce + ciphertext + tag
        assert pure_open_sealed(key, box, associated_data) == plaintext


# --------------------------------------------------------------------------- #
# Ed25519: fixed-base table and windowed multiply == double-and-add
# --------------------------------------------------------------------------- #
EDGE_SCALARS = [
    0,
    1,
    2,
    15,
    16,
    2**256 - 1,  # every window digit is 15
    0xA5 << 248,  # all-zero low windows
    1 << 255,
    L - 1,
    L,  # the identity
]


@functools.cache
def torsion_points():
    """Points of order 1, 2, 4 and 8 (``L * Q`` kills the prime-order part)."""
    points = [textbook.IDENTITY]
    y = 2
    while len({textbook.point_compress(p) for p in points}) < 4:
        x = textbook.recover_x(y, 0)
        if x is not None:
            points.append(textbook.point_mul(L, (x, y, 1, x * y % P)))
        y += 1
    return points


@functools.cache
def eight_torsion_points():
    """All 8 points of the torsion subgroup: ``k * T8`` for one T8 of order 8."""
    for point in torsion_points():
        multiples = [textbook.point_mul(k, point) for k in range(8)]
        if len({textbook.point_compress(p) for p in multiples}) == 8:
            return multiples
    raise AssertionError("no point of order 8 among the torsion points")


def drawn_point(kind: str, a: int, index: int):
    """A torsion point, ``a*B + T`` (mixed order) or ``a*B`` (prime order)."""
    torsion = eight_torsion_points()[index]
    if kind == "torsion":
        return torsion
    prime = textbook.point_mul(a, textbook.BASE)
    return prime if kind == "prime" else textbook.point_add(prime, torsion)


#: Scalars at the wNAF recoding's borders: a 5-bit window holding 17..31
#: becomes a negative digit and a carry (17 = 32 - 15), 2**k - 1 carries
#: through every bit, and 16 * odd puts the lowest digit at bit 4.
NAF_SCALARS = [0, 1, 15, 16, 17, 31, 32, 33, L - 1, L, 2**256 - 1, 16 * 3, 16 * 15, 16 * (2**247 + 1)] + [
    2**k + sign for k in (5, 6, 63, 252, 255) for sign in (-1, 1)
]


class TestEdwardsKernels:
    def test_constants_unchanged(self):
        assert (ed25519._P, ed25519._L, ed25519._D, ed25519._I) == (P, L, textbook.D, textbook.SQRT_M1)
        assert ed25519._BASE == textbook.BASE

    def test_table_is_64_windows_of_15_affine_entries(self):
        table = ed25519._BASE_TABLE
        assert len(table) == 64 and all(len(row) == 15 for row in table)
        assert sum(len(row) for row in table) <= 1024
        # Entry (w, j) is j * 16**w * B in affine (y-x, y+x, 2dxy) form.
        for w, j in [(0, 1), (0, 15), (1, 1), (31, 7), (63, 15)]:
            x, y, z, _ = textbook.point_mul(j * 16**w, textbook.BASE)
            z_inv = pow(z, P - 2, P)
            x, y = x * z_inv % P, y * z_inv % P
            assert table[w][j - 1] == ((y - x) % P, (y + x) % P, 2 * textbook.D * x * y % P)

    @pytest.mark.parametrize("scalar", EDGE_SCALARS)
    def test_base_mul_edge_scalars(self, scalar):
        expected = textbook.point_compress(textbook.point_mul(scalar, textbook.BASE))
        assert ed25519._point_compress(ed25519._base_mul(scalar)) == expected

    @settings(max_examples=25, deadline=None)
    @given(scalar=scalars256)
    def test_base_mul_matches_double_and_add(self, scalar):
        expected = textbook.point_compress(textbook.point_mul(scalar, textbook.BASE))
        assert ed25519._point_compress(ed25519._base_mul(scalar)) == expected

    def test_base_mul_rejects_out_of_range_scalars(self):
        for scalar in (-1, 2**256):
            with pytest.raises(CryptoError):
                ed25519._base_mul(scalar)

    def test_point_mul_zero_is_identity(self):
        assert ed25519._point_mul(0, ed25519._BASE) == ed25519._IDENTITY
        assert ed25519._point_compress(ed25519._point_mul(0, ed25519._BASE)) == (1).to_bytes(32, "little")

    @settings(max_examples=20, deadline=None)
    @given(scalar=scalars256, base_scalar=scalars256.map(lambda n: n % (L - 1) + 1))
    @example(scalar=2**256 - 1, base_scalar=1)
    @example(scalar=0xA5 << 248, base_scalar=2)
    def test_point_mul_matches_double_and_add(self, scalar, base_scalar):
        point = textbook.point_mul(base_scalar, textbook.BASE)
        expected = textbook.point_compress(textbook.point_mul(scalar, point))
        assert ed25519._point_compress(ed25519._point_mul(scalar, point)) == expected
        assert ed25519._point_compress(ed25519._point_double(point)) == textbook.point_compress(textbook.point_add(point, point))

    @pytest.mark.parametrize("kind,index", [("torsion", i) for i in range(8)] + [("mixed", 1), ("prime", 0)])
    def test_point_mul_edge_scalars_on_every_point_order(self, kind, index):
        point = drawn_point(kind, 0x1234567, index)
        for scalar in NAF_SCALARS:
            expected = textbook.point_compress(textbook.point_mul(scalar, point))
            assert ed25519._point_compress(ed25519._point_mul(scalar, point)) == expected, scalar

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["torsion", "mixed", "prime"]),
        a=scalars256.map(lambda n: n % (L - 1) + 1),
        index=st.integers(0, 7),
        scalar=st.one_of(
            st.sampled_from(NAF_SCALARS),
            st.builds(lambda k, sign: 2**k + sign, st.integers(1, 256), st.sampled_from([-1, 1])),
            st.builds(lambda n: 16 * (2 * n + 1), st.integers(0, 2**250)),
            scalars256,
        ),
    )
    def test_point_mul_matches_textbook_on_every_point_order(self, kind, a, index, scalar):
        """The wNAF chain against bit-at-a-time double-and-add, compared by
        encoding, with the T it returns consistent with X, Y, Z."""
        point = drawn_point(kind, a, index)
        x, y, z, t = result = ed25519._point_mul(scalar, point)
        assert ed25519._point_compress(result) == textbook.point_compress(textbook.point_mul(scalar, point))
        assert (x * y - z * t) % P == 0

    @settings(max_examples=60, deadline=None)
    @given(y=scalars256.map(lambda n: n >> 1), sign=st.integers(0, 1))
    @example(y=0, sign=0)
    @example(y=1, sign=0)
    @example(y=1, sign=1)  # x = 0 with the sign bit set
    @example(y=P - 1, sign=1)
    @example(y=P, sign=0)  # non-canonical encodings of y = 0, 1
    @example(y=P + 1, sign=0)
    def test_recover_x_single_power_matches_two_power_form(self, y, sign):
        expected = textbook.recover_x(y, sign)
        if expected is None:
            with pytest.raises(CryptoError):
                ed25519._recover_x(y, sign)
        else:
            assert ed25519._recover_x(y, sign) == expected

    @settings(max_examples=20, deadline=None)
    @given(s=scalars256.map(lambda n: n % L), h=scalars256.map(lambda n: n % L), which=st.integers(0, 3))
    def test_z_is_never_zero_so_compress_never_inverts_zero(self, s, h, which):
        """``pow(0, -1, p)`` raises where the Fermat power returned 0; the
        complete addition law keeps Z != 0 for every on-curve input, the
        small-order points a hostile public key can decode to included."""
        low_order = torsion_points()[which]
        for point in (
            ed25519._base_mul(s),
            ed25519._point_mul(h, low_order),
            ed25519._point_add(ed25519._base_mul(s), ed25519._point_mul(h, low_order)),
        ):
            assert point[2] % P != 0
            assert ed25519._point_compress(point) == textbook.point_compress(point)


# Generated at commit 194c5e6 (the textbook code): seed_i =
# sha256("alpenhorn-ed25519-vector-<i>"), message_i = the first n bytes of
# shake256("alpenhorn-ed25519-message-<i>"); columns: i, n, public key, signature.
SIGN_VECTORS = [
    (0, 0, "f6b8e3b86c2d7ae899d23931f824cc1a660412092008dc25976e6b9585cacbd3",
     "7b3cc9370885094757b19d683362fb3ba4d0b63cb8773431f025b94a154e1fb8"
     "b07af217ec38530f26dce893d4b472132131cf9b3470dd144af95e7fe447740f"),
    (1, 1, "013b2057b5e82e0707bbc037b542ab6488c22a6463a756747fbb5705fbd4b784",
     "b0b75ca84addcd7b63ca6f0a4721034b9f3d07f44d0c50ab007312364d39c3db"
     "29fd68f7e067d0fbfaf81a21a13f6e2ab369cc7a90f2cf6bd97305aa25634d0d"),
    (2, 64, "52c2aa3d645e254887d7a6e8a0ee99eceefaebd537fb34fb31da3d04c22bd0e0",
     "2325df37e58de57f1152fc388f0bfe0ab5c960761e4a29ab1a80cd39826cd398"
     "2d0162b816619d62b05f23080fc2a063357f69ce15f4f231a3ab992244f8490a"),
    (3, 640, "baefffd5cdd552f4eefbf62eb05eb798b0a7a1164325a416cae1259035359686",
     "93574f58669b36de9a3558bb0f3d40d2780088f47044c5f3329a33f66303d829"
     "95f688421172bff8e151ae06f007ed681f259bcbc765747f54ac28a9a6a8fa0d"),
]  # fmt: skip


def vector_inputs(index: int, length: int) -> tuple[bytes, bytes]:
    seed = hashlib.sha256(b"alpenhorn-ed25519-vector-%d" % index).digest()
    message = hashlib.shake_256(b"alpenhorn-ed25519-message-%d" % index).digest(length)
    return seed, message


class TestEd25519PinnedAtParent:
    @backend_params()
    @pytest.mark.parametrize("index,length,public_hex,signature_hex", SIGN_VECTORS)
    def test_sign_is_byte_identical(self, backend, index, length, public_hex, signature_hex):
        seed, message = vector_inputs(index, length)
        assert backend.ed25519_public_key(seed).hex() == public_hex
        assert backend.ed25519_sign(seed, message).hex() == signature_hex
        assert backend.ed25519_verify(bytes.fromhex(public_hex), message, bytes.fromhex(signature_hex))

    @backend_params()
    def test_verify_rejects_what_the_parent_rejected(self, backend):
        _, length, public_hex, signature_hex = SIGN_VECTORS[2]
        _, message = vector_inputs(2, length)
        public, signature = bytes.fromhex(public_hex), bytes.fromhex(signature_hex)
        big_r, s = signature[:32], int.from_bytes(signature[32:], "little")
        flip = lambda data, i: data[:i] + bytes([data[i] ^ 1]) + data[i + 1 :]  # noqa: E731
        rejected = {
            "tampered R": (public, message, flip(signature, 0)),
            "tampered s": (public, message, flip(signature, 32)),
            "s + L (malleable)": (public, message, big_r + (s + L).to_bytes(32, "little")),
            "s = L": (public, message, big_r + L.to_bytes(32, "little")),
            "tampered message": (public, message + b"x", signature),
            "R with y = p + 1": (public, message, (P + 1).to_bytes(32, "little") + signature[32:]),
            "A with y = p + 1": ((P + 1).to_bytes(32, "little"), message, signature),
            "A = identity": ((1).to_bytes(32, "little"), message, signature),
            "A with x = 0, sign 1": ((1 | 1 << 255).to_bytes(32, "little"), message, signature),
            "A off the curve": ((2).to_bytes(32, "little"), message, signature),
        }
        assert backend.ed25519_verify(public, message, signature)
        for name, (key, msg, sig) in rejected.items():
            assert not backend.ed25519_verify(key, msg, sig), name

    @backend_params()
    def test_identity_key_is_judged_alike_on_every_backend(self, backend):
        """RFC 8032 §5.1.3: decoding fails for y >= p and for x = 0 with the
        sign bit set.  The canonical identity verifies R = r*B, s = r for
        any message on every backend; its non-canonical spellings, and a
        non-canonical R, are refused by every backend."""
        big_r = textbook.point_compress(textbook.point_mul(5, textbook.BASE))
        forged = big_r + (5).to_bytes(32, "little")
        identity = (1).to_bytes(32, "little")
        assert backend.ed25519_verify(identity, b"anything", forged)
        for name, key in {
            "y = p + 1": (P + 1).to_bytes(32, "little"),
            "y = 1, sign 1": (1 | 1 << 255).to_bytes(32, "little"),
            "y = p - 1, sign 1": (P - 1 | 1 << 255).to_bytes(32, "little"),
        }.items():
            assert not backend.ed25519_verify(key, b"anything", forged), name
        # R = identity and s = 0 satisfy s*B = R + h*A for A = identity, so
        # only R's encoding decides.
        assert backend.ed25519_verify(identity, b"m", identity + bytes(32))
        non_canonical_r = (P + 1).to_bytes(32, "little")
        assert not backend.ed25519_verify(identity, b"m", non_canonical_r + bytes(32))

    def test_pure_verify_keeps_the_cofactorless_equation(self):
        """``s*B == R + h*A`` with A the identity holds for R = s*B and any
        message: the parent accepted it, so the pure path still does, while
        the same key spelt non-canonically (y = p + 1) is still refused."""
        forged = textbook.point_compress(textbook.point_mul(5, textbook.BASE)) + (5).to_bytes(32, "little")
        assert ed25519.verify((1).to_bytes(32, "little"), b"anything", forged)
        assert not ed25519.verify((P + 1).to_bytes(32, "little"), b"anything", forged)


# --------------------------------------------------------------------------- #
# Ed25519: small- and mixed-order keys and nonces
# --------------------------------------------------------------------------- #
def challenge(big_r: bytes, public: bytes, message: bytes) -> int:
    return int.from_bytes(hashlib.sha512(big_r + public + message).digest(), "little") % L


def message_with(big_r: bytes, public: bytes, residues: set[int]) -> bytes:
    """The first ``b"taming-<i>"`` whose challenge mod 8 is in ``residues``."""
    i = 0
    while challenge(big_r, public, b"taming-%d" % i) % 8 not in residues:
        i += 1
    return b"taming-%d" % i


@functools.cache
def taming_corpus() -> dict[str, tuple[bytes, bytes, bytes, bool]]:
    """The small- and mixed-order shapes of Chalkias, Garillot and
    Nikolaenko, "Taming the many EdDSAs" (SSR 2020), built from fixed scalars:
    name -> (public, message, signature, verdict of the cofactorless
    equation s*B == R + h*A)."""
    t8, minus_t8 = eight_torsion_points()[1], eight_torsion_points()[7]
    encode = textbook.point_compress
    a, r = 0x5EED, 0xC0FFEE
    corpus = {}

    # Small-order A and R, s = 0: R = -h*A holds for h = 1 mod 8 with R = -T8.
    public, big_r = encode(t8), encode(minus_t8)
    message = message_with(big_r, public, {1})
    corpus["small-order A and R, s = 0"] = (public, message, big_r + bytes(32), True)

    # Mixed-order A = a*B + T8, R = r*B, s = r + h*a: s*B - h*A = R - h*T8,
    # so only the cofactored equation holds when h != 0 mod 8.
    mixed_a = textbook.point_add(textbook.point_mul(a, textbook.BASE), t8)
    public, big_r = encode(mixed_a), encode(textbook.point_mul(r, textbook.BASE))
    message = message_with(big_r, public, set(range(1, 8)))
    s = (r + challenge(big_r, public, message) * a) % L
    corpus["mixed-order A, R = r*B (cofactored only)"] = (public, message, big_r + s.to_bytes(32, "little"), False)

    # The same A with R = r*B - T8 and h = 1 mod 8: the cofactorless equation holds.
    big_r = encode(textbook.point_add(textbook.point_mul(r, textbook.BASE), minus_t8))
    message = message_with(big_r, public, {1})
    s = (r + challenge(big_r, public, message) * a) % L
    corpus["mixed-order A and R, cofactorless"] = (public, message, big_r + s.to_bytes(32, "little"), True)

    # Prime-order A = a*B with R = r*B + T8: s*B - h*A = r*B != R.
    public = encode(textbook.point_mul(a, textbook.BASE))
    big_r = encode(textbook.point_add(textbook.point_mul(r, textbook.BASE), t8))
    message = b"taming"
    s = (r + challenge(big_r, public, message) * a) % L
    corpus["prime-order A, mixed-order R"] = (public, message, big_r + s.to_bytes(32, "little"), False)
    return corpus


def textbook_decode(data: bytes):
    encoded = int.from_bytes(data, "little")
    y = encoded & ((1 << 255) - 1)
    x = textbook.recover_x(y, encoded >> 255)
    return (x, y, 1, x * y % P)


class TestEd25519SmallOrderCorpus:
    @backend_params()
    @pytest.mark.parametrize("name", list(taming_corpus()))
    def test_verdict_is_pinned_on_every_backend(self, backend, name):
        public, message, signature, verdict = taming_corpus()[name]
        assert backend.ed25519_verify(public, message, signature) is verdict

    @pytest.mark.parametrize("name", list(taming_corpus()))
    def test_verdict_is_the_cofactorless_equation(self, name):
        """Each pinned verdict is s*B == R + h*A evaluated on the textbook
        points, and the cofactored equation accepts all four."""
        public, message, signature, verdict = taming_corpus()[name]
        big_a, big_r = (textbook_decode(data) for data in (public, signature[:32]))
        s, h = int.from_bytes(signature[32:], "little"), challenge(signature[:32], public, message)
        left = textbook.point_mul(s, textbook.BASE)
        right = textbook.point_add(big_r, textbook.point_mul(h, big_a))
        assert (textbook.point_compress(left) == textbook.point_compress(right)) is verdict
        assert textbook.point_compress(textbook.point_mul(8, left)) == textbook.point_compress(textbook.point_mul(8, right))


# --------------------------------------------------------------------------- #
# X25519: lazily reduced ladder, Edwards-table keygen, small-order inputs
# --------------------------------------------------------------------------- #
SMALL_ORDER_U = textbook.SMALL_ORDER_U


class TestX25519Kernels:
    @settings(max_examples=25, deadline=None)
    @given(k=scalars256.map(lambda n: n >> 1), u=scalars256.map(lambda n: n % P))
    @example(k=2**254, u=9)
    @example(k=2**255 - 8, u=P - 1)
    def test_ladder_matches_fully_reduced_ladder(self, k, u):
        assert x25519._montgomery_ladder(k, u) == textbook.montgomery_ladder(k, u)

    @settings(max_examples=25, deadline=None)
    @given(scalar=keys32)
    @example(scalar=bytes(32))
    @example(scalar=b"\xff" * 32)
    def test_base_mult_on_the_edwards_table_matches_the_ladder_at_u_9(self, scalar):
        nine = (9).to_bytes(32, "little")
        assert x25519.scalar_base_mult(scalar) == textbook.x25519(scalar, nine)
        assert x25519.public_key(scalar) == x25519.scalar_mult(scalar, nine)

    @settings(max_examples=15, deadline=None)
    @given(scalar=keys32, point=keys32)
    def test_scalar_mult_matches_textbook(self, scalar, point):
        assert x25519.scalar_mult(scalar, point) == textbook.x25519(scalar, point)

    @pytest.mark.parametrize("u", SMALL_ORDER_U)
    def test_small_order_inputs_still_map_to_zero(self, u):
        """z2 == 0 at the end of the ladder: Fermat gave 0, ``pow(0, -1, p)``
        would raise ValueError -- the result must stay the all-zero string."""
        point = u.to_bytes(32, "little")
        for scalar in (bytes(32), b"\xff" * 32, hashlib.sha256(point).digest()):
            assert x25519.scalar_mult(scalar, point) == textbook.x25519(scalar, point) == bytes(32)

    @backend_params()
    @pytest.mark.parametrize("u", SMALL_ORDER_U)
    def test_shared_secret_rejects_small_order_peers(self, backend, u):
        private = hashlib.sha256(b"small-order").digest()
        with pytest.raises(CryptoError):
            backend.shared_secret(private, u.to_bytes(32, "little"))
        assert backend.shared_secret_many([(private, u.to_bytes(32, "little"))]) == [None]
