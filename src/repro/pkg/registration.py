"""Account registration and the lockout policy (§4.6 and §9 of the paper).

Registration is a two-step flow:

1. ``begin_registration(email, signing_key)`` -- the PKG emails a secret
   token to the address;
2. ``confirm_registration(email, token)`` -- presenting the token locks the
   address to the signing key.

Once locked, the binding can only change through:

* ``deregister(email, signature)`` -- signed with the currently registered
  key (used when recovering from a client compromise, §9); this starts a
  30-day lockout before the address can be registered again, or
* the lockout policy: if no legitimate key extraction happens for 30 days,
  the address may be re-registered via email confirmation (handles lost
  devices without letting an email-account attacker take over an account
  that is in active use).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.emailsim.provider import EmailNetwork
from repro.errors import LockoutError, RegistrationError
from repro.utils.rng import DeterministicRng, random_bytes

# The paper's lockout window.
LOCKOUT_SECONDS = 30 * 24 * 3600


def confirmation_sender(pkg_name: str) -> str:
    """The address a PKG's confirmation emails come from; a client matches it
    exactly (``pkg1`` must not take ``pkg10``'s token)."""
    return f"{pkg_name}@alpenhorn-pkg"


@dataclass
class AccountRecord:
    """State a PKG keeps for one registered email address."""

    email: str
    signing_key: bytes
    registered_at: float
    last_extraction: float
    deregistered_at: float | None = None

    def in_deregistration_lockout(self, now: float) -> bool:
        return (
            self.deregistered_at is not None
            and now < self.deregistered_at + LOCKOUT_SECONDS
        )

    def extraction_lapsed(self, now: float) -> bool:
        """True if no legitimate extraction happened within the lockout window."""
        return now >= self.last_extraction + LOCKOUT_SECONDS


@dataclass
class PendingRegistration:
    email: str
    signing_key: bytes
    token: str
    issued_at: float


@dataclass
class RegistrationManager:
    """Implements one PKG's registration state machine."""

    pkg_name: str
    email_network: EmailNetwork
    rng: DeterministicRng = field(default_factory=lambda: DeterministicRng(random_bytes(32)))
    accounts: dict[str, AccountRecord] = field(default_factory=dict)
    pending: dict[str, PendingRegistration] = field(default_factory=dict)

    # -- step 1: begin -------------------------------------------------
    def begin_registration(self, email: str, signing_key: bytes, now: float) -> None:
        email = email.lower()
        if "@" not in email:
            raise RegistrationError(f"malformed email address: {email!r}")
        existing = self.accounts.get(email)
        if existing is not None:
            if existing.signing_key == signing_key:
                # Idempotent re-registration with the same key is harmless.
                return
            if existing.in_deregistration_lockout(now):
                raise LockoutError(
                    f"{email} was deregistered recently; locked until "
                    f"{existing.deregistered_at + LOCKOUT_SECONDS:.0f}"
                )
            if not existing.extraction_lapsed(now) and existing.deregistered_at is None:
                raise LockoutError(
                    f"{email} is registered and in active use; cannot re-register"
                )
        token = self.rng.read(16).hex()
        self.pending[email] = PendingRegistration(
            email=email, signing_key=signing_key, token=token, issued_at=now
        )
        self.email_network.ensure_provider(email)
        self.email_network.send(
            sender=confirmation_sender(self.pkg_name),
            recipient=email,
            subject="Alpenhorn registration confirmation",
            body=token,
        )

    # -- step 2: confirm -----------------------------------------------
    def confirm_registration(self, email: str, token: str, now: float) -> AccountRecord:
        email = email.lower()
        pending = self.pending.get(email)
        if pending is None:
            raise RegistrationError(f"no pending registration for {email}")
        if pending.token != token:
            raise RegistrationError("incorrect confirmation token")
        record = AccountRecord(
            email=email,
            signing_key=pending.signing_key,
            registered_at=now,
            last_extraction=now,
            deregistered_at=None,
        )
        self.accounts[email] = record
        del self.pending[email]
        return record

    # -- queries ---------------------------------------------------------
    def lookup(self, email: str) -> AccountRecord | None:
        return self.accounts.get(email.lower())

    def is_registered(self, email: str) -> bool:
        record = self.lookup(email)
        return record is not None and record.deregistered_at is None

    # -- lifecycle -------------------------------------------------------
    def record_extraction(self, email: str, now: float) -> None:
        record = self.lookup(email)
        if record is not None:
            record.last_extraction = max(record.last_extraction, now)

    def deregister(self, email: str, now: float) -> None:
        record = self.lookup(email)
        if record is None:
            raise RegistrationError(f"{email} is not registered")
        record.deregistered_at = now
