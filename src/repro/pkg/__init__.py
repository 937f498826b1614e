"""Private key generator (PKG) servers.

The PKGs are one of Alpenhorn's two sets of servers (§3.1).  Each PKG:

* registers users by emailing a confirmation token to their address and then
  locking the address to the user's long-term signing key (§4.6),
* generates a fresh IBE master key pair every add-friend round and deletes
  the master secret when the round closes (forward secrecy, §4.4),
* extracts the per-round identity private key for each registered user who
  presents a valid signature, together with a BLS signature attesting that
  the user's long-term key belongs to their email address (§4.5), and
* enforces the 30-day lockout policy that prevents an adversary who merely
  controls the email account from taking over an Alpenhorn account (§4.6,
  §9).

The entry server opens and closes every PKG's round
(:class:`~repro.entry.server.EntryServer`).  Appendix A's commit-reveal of
the per-round master public keys is not modelled: each PKG publishes its key
directly.
"""

from repro.pkg.server import PkgServer, ExtractionResponse, pkg_statement
from repro.pkg.registration import RegistrationManager, AccountRecord

__all__ = [
    "PkgServer",
    "ExtractionResponse",
    "pkg_statement",
    "RegistrationManager",
    "AccountRecord",
]
