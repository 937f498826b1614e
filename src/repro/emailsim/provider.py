"""In-process email providers for PKG registration confirmation.

Alpenhorn bootstraps user identity from email (§4.6): each PKG emails a
secret confirmation token to the address being registered, and only someone
who can read that inbox can complete registration.  The simulation models
normal delivery to per-address inboxes and delivery failure for unknown
domains/addresses.  An adversary that compromised a provider or account
(the paper's threat model) reads an inbox through :meth:`EmailProvider.read_inbox`
like its owner; the lockout tests do exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AlpenhornError


class EmailDeliveryError(AlpenhornError):
    """The simulated provider could not deliver a message."""


@dataclass(frozen=True)
class EmailMessage:
    """A delivered email: who sent it, to whom, and its body."""

    sender: str
    recipient: str
    subject: str
    body: str


@dataclass
class EmailProvider:
    """One email provider (e.g. ``example.org``) hosting many mailboxes."""

    domain: str
    _inboxes: dict[str, list[EmailMessage]] = field(default_factory=dict)

    def address_belongs_here(self, address: str) -> bool:
        return address.lower().endswith("@" + self.domain.lower())

    def ensure_mailbox(self, address: str) -> None:
        self._inboxes.setdefault(address.lower(), [])

    def deliver(self, message: EmailMessage) -> None:
        if not self.address_belongs_here(message.recipient):
            raise EmailDeliveryError(
                f"{message.recipient} is not hosted by {self.domain}"
            )
        self.ensure_mailbox(message.recipient)
        self._inboxes[message.recipient.lower()].append(message)

    def read_inbox(self, address: str) -> list[EmailMessage]:
        """Read messages as the legitimate mailbox owner."""
        return list(self._inboxes.get(address.lower(), []))


class EmailNetwork:
    """Routes messages to the provider responsible for each domain."""

    def __init__(self) -> None:
        self._providers: dict[str, EmailProvider] = {}

    def add_provider(self, provider: EmailProvider) -> EmailProvider:
        self._providers[provider.domain.lower()] = provider
        return provider

    def provider_for(self, address: str) -> EmailProvider:
        if "@" not in address:
            raise EmailDeliveryError(f"malformed email address: {address!r}")
        domain = address.rsplit("@", 1)[1].lower()
        if domain not in self._providers:
            raise EmailDeliveryError(f"no provider for domain {domain!r}")
        return self._providers[domain]

    def ensure_provider(self, address: str) -> EmailProvider:
        """Create a provider for the address's domain if none exists yet."""
        if "@" not in address:
            raise EmailDeliveryError(f"malformed email address: {address!r}")
        domain = address.rsplit("@", 1)[1].lower()
        if domain not in self._providers:
            self.add_provider(EmailProvider(domain=domain))
        return self._providers[domain]

    def send(self, sender: str, recipient: str, subject: str, body: str) -> None:
        provider = self.provider_for(recipient)
        provider.deliver(EmailMessage(sender=sender, recipient=recipient, subject=subject, body=body))

    def read_inbox(self, address: str) -> list[EmailMessage]:
        return self.provider_for(address).read_inbox(address)
