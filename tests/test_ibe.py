"""Tests for the IBE backends: Boneh-Franklin, Anytrust-IBE, and the
simulated oracle backend."""

from __future__ import annotations

import hashlib

import pytest

from repro.crypto.aead import open_sealed, seal
from repro.crypto.bn254.curve import g2_generator
from repro.crypto.bn254.field import CURVE_ORDER, FIELD_MODULUS
from repro.crypto.bn254.pairing import pairing
from repro.crypto.ibe import (
    AnytrustIbe,
    BonehFranklinIbe,
    IbeCiphertext,
    SimulatedIbe,
    SimulatedPkgOracle,
    boneh_franklin,
)
from repro.errors import CryptoError


class TestIbeCiphertext:
    def test_roundtrip(self):
        ct = IbeCiphertext(header=b"\x01" * 10, body=b"\x02" * 20)
        assert IbeCiphertext.from_bytes(ct.to_bytes()) == ct
        assert len(ct) == len(ct.to_bytes())

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            IbeCiphertext.from_bytes(b"\x00")
        with pytest.raises(ValueError):
            IbeCiphertext.from_bytes(b"\x00\x10abc")


class TestBonehFranklin:
    def test_encrypt_decrypt_roundtrip(self):
        ibe = BonehFranklinIbe()
        master = ibe.generate_master_keypair()
        ciphertext = ibe.encrypt(master.public, "bob@example.org", b"hello bob")
        private = ibe.extract(master.secret, "bob@example.org")
        assert ibe.decrypt(private, ciphertext) == b"hello bob"

    def test_wrong_identity_cannot_decrypt(self):
        ibe = BonehFranklinIbe()
        master = ibe.generate_master_keypair()
        ciphertext = ibe.encrypt(master.public, "bob@example.org", b"hello bob")
        eve = ibe.extract(master.secret, "eve@example.org")
        assert ibe.decrypt(eve, ciphertext) is None

    def test_wrong_master_cannot_decrypt(self):
        ibe = BonehFranklinIbe()
        master1 = ibe.generate_master_keypair()
        master2 = ibe.generate_master_keypair()
        ciphertext = ibe.encrypt(master1.public, "bob@example.org", b"hello bob")
        private = ibe.extract(master2.secret, "bob@example.org")
        assert ibe.decrypt(private, ciphertext) is None

    def test_deterministic_keygen_from_seed(self):
        ibe = BonehFranklinIbe()
        a = ibe.generate_master_keypair(seed=b"\x05" * 32)
        b = ibe.generate_master_keypair(seed=b"\x05" * 32)
        assert a.secret == b.secret
        assert a.public == b.public

    def test_ciphertext_overhead_matches_constant(self):
        ibe = BonehFranklinIbe()
        master = ibe.generate_master_keypair()
        message = b"x" * 100
        ciphertext = ibe.encrypt(master.public, "bob@example.org", message)
        assert len(ciphertext) == len(message) + ibe.ciphertext_overhead()

    def test_ciphertext_anonymity_header_is_recipient_independent(self):
        """The public header is a random G2 point: same distribution for any
        recipient, and never equal across encryptions (fresh randomness)."""
        ibe = BonehFranklinIbe()
        master = ibe.generate_master_keypair()
        ct_bob = ibe.encrypt(master.public, "bob@example.org", b"m")
        ct_carol = ibe.encrypt(master.public, "carol@example.org", b"m")
        assert ct_bob.header != ct_carol.header
        assert len(ct_bob.header) == len(ct_carol.header)
        ct_bob2 = ibe.encrypt(master.public, "bob@example.org", b"m")
        assert ct_bob.header != ct_bob2.header

    def test_tampered_ciphertext_fails(self):
        ibe = BonehFranklinIbe()
        master = ibe.generate_master_keypair()
        ciphertext = ibe.encrypt(master.public, "bob@example.org", b"hello")
        private = ibe.extract(master.secret, "bob@example.org")
        tampered = IbeCiphertext(
            header=ciphertext.header,
            body=bytes([ciphertext.body[0] ^ 1]) + ciphertext.body[1:],
        )
        assert ibe.decrypt(private, tampered) is None

    def test_garbage_header_returns_none(self):
        ibe = BonehFranklinIbe()
        master = ibe.generate_master_keypair()
        private = ibe.extract(master.secret, "bob@example.org")
        garbage = IbeCiphertext(header=b"\xff" * 128, body=b"\x00" * 64)
        assert ibe.decrypt(private, garbage) is None

    def test_non_canonical_header_returns_none(self, monkeypatch):
        """A header coordinate shifted by p names the same point.  The KDF
        binds the header bytes, so the seal would fail anyway; the decoder
        now rejects it up front, before any pairing work is spent on it."""
        ibe = BonehFranklinIbe()
        master = ibe.generate_master_keypair()
        ciphertext = ibe.encrypt(master.public, "bob@example.org", b"hello")
        private = ibe.extract(master.secret, "bob@example.org")
        header = ciphertext.header
        # 2p < 2^256, so the shifted coordinate always fits its 32 bytes.
        shifted = int.from_bytes(header[:32], "big") + FIELD_MODULUS
        forged = shifted.to_bytes(32, "big") + header[32:]
        assert ibe.decrypt(private, ciphertext) == b"hello"

        def no_pairing(*_):
            raise AssertionError("pairing computed on a non-canonical header")

        monkeypatch.setattr(boneh_franklin, "pairing", no_pairing)
        assert ibe.decrypt(private, IbeCiphertext(header=forged, body=ciphertext.body)) is None

    def test_pinned_shared_secret_with_fixed_randomness(self, monkeypatch):
        """Vectors recorded at the commit that still computed
        ``e(H1(id), P_pub)^r`` in GT: moving r to the G1 side must not change
        a single byte of the shared secret or the seal key."""
        ibe = BonehFranklinIbe()
        master = ibe.generate_master_keypair(seed=b"\x07" * 32)
        r_bytes = bytes(range(1, 33))
        r = int.from_bytes(r_bytes, "big") % CURVE_ORDER
        shared = pairing(
            boneh_franklin._hash_identity("bob@example.org").scalar_mul(r), master.public
        ).to_bytes()
        assert hashlib.sha256(shared).hexdigest() == (
            "8a1672fa3091c1476aae32ad3ce0fc13eff633629a5c5fe130eb429dc835a798"
        )
        monkeypatch.setattr(boneh_franklin, "random_bytes", lambda n: r_bytes[:n])
        ciphertext = ibe.encrypt(master.public, "bob@example.org", b"pinned")
        assert ciphertext.header == g2_generator().scalar_mul(r).to_bytes()
        seal_key = bytes.fromhex("701276977bfa9769f13f4f1ec8161f0f6774f28360684a34af7d6d2e6efc5d69")
        assert open_sealed(seal_key, ciphertext.body, associated_data=ciphertext.header) == b"pinned"

    def test_ciphertext_from_gt_side_formula_still_decrypts(self):
        """Ciphertexts made by the previous encrypt (scalar applied in GT)
        remain readable: both formulas name the same group element."""
        ibe = BonehFranklinIbe()
        master = ibe.generate_master_keypair(seed=b"\x09" * 32)
        r = 0x1234567890ABCDEF1234567890ABCDEF
        header = g2_generator().scalar_mul(r).to_bytes()
        shared = pairing(boneh_franklin._hash_identity("bob@example.org"), master.public).pow(r).to_bytes()
        body = seal(boneh_franklin._derive_seal_key(shared, header), b"old format", associated_data=header)
        private = ibe.extract(master.secret, "bob@example.org")
        assert ibe.decrypt(private, IbeCiphertext(header=header, body=body)) == b"old format"

    def test_combine_rejects_mismatched_identities(self):
        ibe = BonehFranklinIbe()
        master = ibe.generate_master_keypair()
        a = ibe.extract(master.secret, "a@example.org")
        b = ibe.extract(master.secret, "b@example.org")
        with pytest.raises(CryptoError):
            ibe.combine_private_keys([a, b])

    def test_combine_rejects_empty(self):
        ibe = BonehFranklinIbe()
        with pytest.raises(CryptoError):
            ibe.combine_master_publics([])
        with pytest.raises(CryptoError):
            ibe.combine_private_keys([])


class TestAnytrustIbe:
    def test_roundtrip_with_three_pkgs(self):
        scheme = AnytrustIbe()
        keypairs = scheme.generate_pkg_keypairs(3)
        publics = [kp.public for kp in keypairs]
        ciphertext = scheme.encrypt(publics, "bob@example.org", b"anytrust hello")
        shares = [scheme.extract_share(kp, "bob@example.org") for kp in keypairs]
        assert scheme.decrypt(shares, ciphertext) == b"anytrust hello"

    def test_missing_share_cannot_decrypt(self):
        """Decryption must fail unless *all* per-PKG shares are combined --
        this is exactly why one honest PKG protects the user."""
        scheme = AnytrustIbe()
        keypairs = scheme.generate_pkg_keypairs(3)
        publics = [kp.public for kp in keypairs]
        ciphertext = scheme.encrypt(publics, "bob@example.org", b"secret")
        partial_shares = [scheme.extract_share(kp, "bob@example.org") for kp in keypairs[:2]]
        assert scheme.decrypt(partial_shares, ciphertext) is None

    def test_single_pkg_matches_plain_boneh_franklin(self):
        scheme = AnytrustIbe()
        [keypair] = scheme.generate_pkg_keypairs(1)
        ciphertext = scheme.encrypt([keypair.public], "bob@example.org", b"one pkg")
        share = scheme.extract_share(keypair, "bob@example.org")
        assert scheme.decrypt([share], ciphertext) == b"one pkg"

    def test_ciphertext_size_independent_of_pkg_count(self):
        """The efficiency property of Anytrust-IBE over onion encryption."""
        scheme = AnytrustIbe()
        message = b"y" * 64
        sizes = []
        for count in (1, 3, 5):
            keypairs = scheme.generate_pkg_keypairs(count)
            ciphertext = scheme.encrypt([kp.public for kp in keypairs], "bob@x.org", message)
            sizes.append(len(ciphertext))
        assert len(set(sizes)) == 1

    def test_deterministic_seeded_pkgs(self):
        scheme = AnytrustIbe()
        seeds = [bytes([i]) * 32 for i in range(1, 4)]
        a = scheme.generate_pkg_keypairs(3, seeds=seeds)
        b = scheme.generate_pkg_keypairs(3, seeds=seeds)
        assert [kp.secret for kp in a] == [kp.secret for kp in b]

    def test_rejects_bad_parameters(self):
        scheme = AnytrustIbe()
        with pytest.raises(CryptoError):
            scheme.generate_pkg_keypairs(0)
        with pytest.raises(CryptoError):
            scheme.generate_pkg_keypairs(2, seeds=[b"\x00" * 32])


class TestSimulatedIbe:
    def test_roundtrip(self):
        scheme = SimulatedIbe()
        keypairs = [scheme.generate_master_keypair() for _ in range(3)]
        aggregate = scheme.combine_master_publics([kp.public for kp in keypairs])
        ciphertext = scheme.encrypt(aggregate, "bob@example.org", b"sim hello")
        shares = [scheme.extract(kp.secret, "bob@example.org") for kp in keypairs]
        private = scheme.combine_private_keys(shares)
        assert scheme.decrypt(private, ciphertext) == b"sim hello"

    def test_wrong_identity_cannot_decrypt(self):
        scheme = SimulatedIbe()
        keypair = scheme.generate_master_keypair()
        ciphertext = scheme.encrypt(keypair.public, "bob@example.org", b"m")
        eve = scheme.extract(keypair.secret, "eve@example.org")
        assert scheme.decrypt(eve, ciphertext) is None

    def test_oracle_shared_between_instances(self):
        oracle = SimulatedPkgOracle()
        pkg_side = SimulatedIbe(oracle)
        client_side = SimulatedIbe(oracle)
        keypair = pkg_side.generate_master_keypair()
        ciphertext = client_side.encrypt(keypair.public, "bob@example.org", b"m")
        private = pkg_side.extract(keypair.secret, "bob@example.org")
        assert client_side.decrypt(private, ciphertext) == b"m"

    def test_unknown_handle_rejected(self):
        scheme = SimulatedIbe()
        with pytest.raises(CryptoError):
            scheme.encrypt(b"\xaa" * 32, "bob@example.org", b"m")

    def test_interface_parity_with_real_backend(self):
        """Both backends expose identical interface surface used by the client."""
        real, simulated = BonehFranklinIbe(), SimulatedIbe()
        for method in ("generate_master_keypair", "extract", "encrypt", "decrypt",
                       "combine_master_publics", "combine_private_keys",
                       "master_public_to_bytes", "ciphertext_overhead"):
            assert hasattr(real, method)
            assert hasattr(simulated, method)
