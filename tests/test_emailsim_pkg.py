"""Tests for the email substrate and PKG servers (registration, extraction,
lockout, round lifecycle, commit-reveal coordination)."""

from __future__ import annotations

import pytest

from conftest import keypair
from repro.crypto import bls, ed25519
from repro.crypto.ibe import BonehFranklinIbe, SimulatedIbe
from repro.emailsim.provider import EmailNetwork, EmailProvider
from repro.emailsim.provider import EmailDeliveryError
from repro.errors import ExtractionError, LockoutError, ProtocolError, RegistrationError, RoundError
from repro.pkg.coordinator import PkgCoordinator
from repro.pkg.registration import LOCKOUT_SECONDS, RegistrationManager
from repro.pkg.server import PkgServer, extraction_request_statement, pkg_statement

DAY = 24 * 3600


@pytest.fixture
def network() -> EmailNetwork:
    net = EmailNetwork()
    net.add_provider(EmailProvider(domain="example.org"))
    net.add_provider(EmailProvider(domain="mail.com"))
    return net


def make_pkg(network: EmailNetwork, name: str = "pkg0", backend=None) -> PkgServer:
    return PkgServer(
        name=name,
        ibe_backend=backend if backend is not None else SimulatedIbe(),
        email_network=network,
        bls_seed=name.encode().ljust(32, b"\x00"),
    )


def register(pkg: PkgServer, network: EmailNetwork, email: str, signing_pk: bytes, now: float = 0.0):
    pkg.begin_registration(email, signing_pk, now)
    token = network.read_inbox(email)[-1].body
    pkg.confirm_registration(email, token, now)


class TestEmailNetwork:
    def test_delivery_and_inbox(self, network):
        network.send("a@example.org", "b@example.org", "hi", "body")
        inbox = network.read_inbox("b@example.org")
        assert len(inbox) == 1
        assert inbox[0].body == "body"

    def test_unknown_domain_rejected(self, network):
        with pytest.raises(EmailDeliveryError):
            network.send("a@example.org", "b@nowhere.net", "hi", "body")

    def test_malformed_address_rejected(self, network):
        with pytest.raises(EmailDeliveryError):
            network.provider_for("not-an-email")

    def test_ensure_provider_creates_domain(self):
        net = EmailNetwork()
        net.ensure_provider("x@new-domain.io")
        net.send("a@new-domain.io", "x@new-domain.io", "s", "b")
        assert len(net.read_inbox("x@new-domain.io")) == 1

    def test_wrong_domain_delivery_rejected(self):
        provider = EmailProvider(domain="example.org")
        from repro.emailsim.provider import EmailMessage

        with pytest.raises(EmailDeliveryError):
            provider.deliver(EmailMessage("a@x.com", "b@other.net", "s", "b"))


class TestRegistration:
    def test_register_and_confirm(self, network):
        manager = RegistrationManager(pkg_name="pkg0", email_network=network)
        manager.begin_registration("alice@example.org", b"\x01" * 32, now=0.0)
        token = network.read_inbox("alice@example.org")[-1].body
        record = manager.confirm_registration("alice@example.org", token, now=0.0)
        assert record.signing_key == b"\x01" * 32
        assert manager.lookup("alice@example.org").deregistered_at is None

    def test_wrong_token_rejected(self, network):
        manager = RegistrationManager(pkg_name="pkg0", email_network=network)
        manager.begin_registration("alice@example.org", b"\x01" * 32, now=0.0)
        with pytest.raises(RegistrationError):
            manager.confirm_registration("alice@example.org", "bogus", now=0.0)

    def test_confirm_without_begin_rejected(self, network):
        manager = RegistrationManager(pkg_name="pkg0", email_network=network)
        with pytest.raises(RegistrationError):
            manager.confirm_registration("alice@example.org", "token", now=0.0)

    def test_malformed_email_rejected(self, network):
        manager = RegistrationManager(pkg_name="pkg0", email_network=network)
        with pytest.raises(RegistrationError):
            manager.begin_registration("not-an-email", b"\x01" * 32, now=0.0)

    def test_active_account_cannot_be_re_registered(self, network):
        """An attacker controlling the email account cannot steal an account
        that is in active use (§4.6)."""
        manager = RegistrationManager(pkg_name="pkg0", email_network=network)
        manager.begin_registration("alice@example.org", b"\x01" * 32, now=0.0)
        token = network.read_inbox("alice@example.org")[-1].body
        manager.confirm_registration("alice@example.org", token, now=0.0)
        with pytest.raises(LockoutError):
            manager.begin_registration("alice@example.org", b"\x02" * 32, now=10 * DAY)

    def test_lapsed_account_can_be_re_registered(self, network):
        """After 30 days with no key extraction, email confirmation suffices
        again (lost-device recovery)."""
        manager = RegistrationManager(pkg_name="pkg0", email_network=network)
        manager.begin_registration("alice@example.org", b"\x01" * 32, now=0.0)
        token = network.read_inbox("alice@example.org")[-1].body
        manager.confirm_registration("alice@example.org", token, now=0.0)
        manager.begin_registration("alice@example.org", b"\x02" * 32, now=LOCKOUT_SECONDS + 1)
        token = network.read_inbox("alice@example.org")[-1].body
        record = manager.confirm_registration("alice@example.org", token, now=LOCKOUT_SECONDS + 1)
        assert record.signing_key == b"\x02" * 32

    def test_extraction_refreshes_lockout(self, network):
        manager = RegistrationManager(pkg_name="pkg0", email_network=network)
        manager.begin_registration("alice@example.org", b"\x01" * 32, now=0.0)
        token = network.read_inbox("alice@example.org")[-1].body
        manager.confirm_registration("alice@example.org", token, now=0.0)
        manager.record_extraction("alice@example.org", now=20 * DAY)
        # 40 days after registration but only 20 after the last extraction.
        with pytest.raises(LockoutError):
            manager.begin_registration("alice@example.org", b"\x02" * 32, now=40 * DAY)

    def test_deregistration_starts_lockout(self, network):
        manager = RegistrationManager(pkg_name="pkg0", email_network=network)
        manager.begin_registration("alice@example.org", b"\x01" * 32, now=0.0)
        token = network.read_inbox("alice@example.org")[-1].body
        manager.confirm_registration("alice@example.org", token, now=0.0)
        manager.deregister("alice@example.org", now=DAY)
        with pytest.raises(LockoutError):
            manager.begin_registration("alice@example.org", b"\x02" * 32, now=2 * DAY)
        # After the lockout expires the (legitimate) user can re-register.
        manager.begin_registration("alice@example.org", b"\x02" * 32, now=DAY + LOCKOUT_SECONDS + 1)

    def test_idempotent_reregistration_same_key(self, network):
        manager = RegistrationManager(pkg_name="pkg0", email_network=network)
        manager.begin_registration("alice@example.org", b"\x01" * 32, now=0.0)
        token = network.read_inbox("alice@example.org")[-1].body
        manager.confirm_registration("alice@example.org", token, now=0.0)
        manager.begin_registration("alice@example.org", b"\x01" * 32, now=DAY)  # no error


class TestPkgServer:
    def test_extraction_flow(self, network):
        pkg = make_pkg(network)
        seed, signing_pk = keypair(ed25519)
        register(pkg, network, "alice@example.org", signing_pk)
        pkg.open_round(7)
        statement = extraction_request_statement("alice@example.org", 7)
        response = pkg.extract("alice@example.org", 7, ed25519.sign(seed, statement), now=1.0)
        assert response.round_number == 7
        assert response.private_key_share is not None
        assert bls.verify(
            pkg.bls_public_key,
            pkg_statement("alice@example.org", signing_pk, 7),
            response.attestation,
        )

    def test_extraction_requires_registration(self, network):
        pkg = make_pkg(network)
        pkg.open_round(1)
        with pytest.raises(ExtractionError):
            pkg.extract("ghost@example.org", 1, b"\x00" * 64, now=0.0)

    def test_extraction_requires_valid_signature(self, network):
        pkg = make_pkg(network)
        _, signing_pk = keypair(ed25519)
        register(pkg, network, "alice@example.org", signing_pk)
        pkg.open_round(1)
        wrong_seed, _ = keypair(ed25519)
        statement = extraction_request_statement("alice@example.org", 1)
        with pytest.raises(ExtractionError):
            pkg.extract("alice@example.org", 1, ed25519.sign(wrong_seed, statement), now=0.0)

    def test_extraction_requires_open_round(self, network):
        pkg = make_pkg(network)
        seed, signing_pk = keypair(ed25519)
        register(pkg, network, "alice@example.org", signing_pk)
        statement = extraction_request_statement("alice@example.org", 3)
        with pytest.raises(RoundError):
            pkg.extract("alice@example.org", 3, ed25519.sign(seed, statement), now=0.0)

    def test_closed_round_deletes_master_secret(self, network):
        """Forward secrecy: the PKG forgets round master secrets (§4.4)."""
        pkg = make_pkg(network)
        pkg.open_round(5)
        assert pkg.has_master_secret(5)
        pkg.close_round(5)
        assert not pkg.has_master_secret(5)
        with pytest.raises(RoundError):
            pkg.open_round(5)  # closed rounds cannot be reopened

    def test_deregister_requires_signature(self, network):
        pkg = make_pkg(network)
        seed, signing_pk = keypair(ed25519)
        register(pkg, network, "alice@example.org", signing_pk)
        with pytest.raises(ExtractionError):
            pkg.deregister("alice@example.org", b"\x00" * 64, now=0.0)
        signature = ed25519.sign(seed, PkgServer.deregistration_statement("alice@example.org"))
        pkg.deregister("alice@example.org", signature, now=0.0)
        pkg.open_round(1)
        statement = extraction_request_statement("alice@example.org", 1)
        with pytest.raises(ExtractionError):
            pkg.extract("alice@example.org", 1, ed25519.sign(seed, statement), now=1.0)

    def test_extraction_count_tracked(self, network):
        pkg = make_pkg(network)
        seed, signing_pk = keypair(ed25519)
        register(pkg, network, "alice@example.org", signing_pk)
        pkg.open_round(1)
        statement = extraction_request_statement("alice@example.org", 1)
        signature = ed25519.sign(seed, statement)
        pkg.extract("alice@example.org", 1, signature, now=0.0)
        pkg.extract("alice@example.org", 1, signature, now=0.0)
        assert pkg.extractions_served == 2


class TestPkgCoordinator:
    def test_commit_reveal_produces_keys_for_all_pkgs(self, network):
        pkgs = [make_pkg(network, f"pkg{i}") for i in range(3)]
        coordinator = PkgCoordinator(pkgs)
        keys = coordinator.open_round(1)
        assert len(keys.public_keys) == 3
        assert len(keys.commitments) == 3
        # Reopening returns the same keys.
        assert coordinator.open_round(1) is keys

    def test_round_keys_requires_open_round(self, network):
        coordinator = PkgCoordinator([make_pkg(network)])
        with pytest.raises(RoundError):
            coordinator.round_keys(9)

    def test_close_round_erases_all_masters(self, network):
        pkgs = [make_pkg(network, f"pkg{i}") for i in range(2)]
        coordinator = PkgCoordinator(pkgs)
        coordinator.open_round(2)
        coordinator.close_round(2)
        assert all(not pkg.has_master_secret(2) for pkg in pkgs)

    def test_empty_coordinator_rejected(self):
        with pytest.raises(ProtocolError):
            PkgCoordinator([])

    def test_real_ibe_backend_end_to_end(self, network):
        """With the pairing backend: keys from all PKGs decrypt an Anytrust
        ciphertext, matching §4.2."""
        from repro.crypto.ibe import AnytrustIbe

        backend = BonehFranklinIbe()
        pkgs = [make_pkg(network, f"pkg{i}", backend=backend) for i in range(2)]
        coordinator = PkgCoordinator(pkgs)
        keys = coordinator.open_round(1)

        scheme = AnytrustIbe(backend)
        ciphertext = scheme.encrypt(keys.public_keys, "bob@example.org", b"hi bob")

        seed, signing_pk = keypair(ed25519)
        for pkg in pkgs:
            register(pkg, network, "bob@example.org", signing_pk)
        statement = extraction_request_statement("bob@example.org", 1)
        shares = [
            pkg.extract("bob@example.org", 1, ed25519.sign(seed, statement), now=0.0).private_key_share
            for pkg in pkgs
        ]
        assert scheme.decrypt(shares, ciphertext) == b"hi bob"
