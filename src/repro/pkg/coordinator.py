"""Commit-reveal coordination of per-round PKG master keys (Appendix A).

The Anytrust-IBE security argument needs the honest PKG's master public key
to be independent of the keys chosen by compromised PKGs.  Appendix A of the
paper fixes this with a commitment round: every PKG first publishes a
commitment to its fresh master public key, and only after seeing all
commitments do the PKGs reveal the keys.  The coordinator below drives that
exchange and verifies that each reveal matches its commitment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.hashing import hmac_sha256
from repro.errors import NetworkError, ProtocolError
from repro.pkg.server import PkgServer
from repro.utils.rng import random_bytes


def commit_to_public_key(public_key_bytes: bytes, blinding: bytes) -> bytes:
    """A hiding, binding commitment: HMAC(blinding, public key bytes)."""
    return hmac_sha256(blinding, public_key_bytes)


@dataclass
class RoundMasterKeys:
    """The verified set of master public keys for one add-friend round."""

    round_number: int
    public_keys: list
    commitments: list[bytes]


@dataclass
class PkgCoordinator:
    """Drives the commit-reveal protocol across a set of PKG servers."""

    pkgs: list[PkgServer]
    _rounds: dict[int, RoundMasterKeys] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.pkgs:
            raise ProtocolError("PkgCoordinator needs at least one PKG")

    def open_round(self, round_number: int) -> RoundMasterKeys:
        """Run commit-reveal for a round and return the verified public keys."""
        if round_number in self._rounds:
            return self._rounds[round_number]

        # Phase 1: every PKG generates its key and publishes a commitment.
        blindings: list[bytes] = []
        commitments: list[bytes] = []
        encoded_publics: list[bytes] = []
        publics: list = []
        for pkg in self.pkgs:
            public = pkg.open_round(round_number)
            encoded = pkg.ibe.master_public_to_bytes(public)
            blinding = random_bytes(32)
            blindings.append(blinding)
            encoded_publics.append(encoded)
            publics.append(public)
            commitments.append(commit_to_public_key(encoded, blinding))

        # Phase 2: reveals are checked against the commitments.  A mismatch
        # means a PKG tried to adapt its key to the others' choices.
        for index, (encoded, blinding, commitment) in enumerate(
            zip(encoded_publics, blindings, commitments)
        ):
            if commit_to_public_key(encoded, blinding) != commitment:
                raise ProtocolError(
                    f"PKG {self.pkgs[index].name} revealed a key that does not "
                    f"match its commitment for round {round_number}"
                )

        keys = RoundMasterKeys(
            round_number=round_number,
            public_keys=publics,
            commitments=commitments,
        )
        self._rounds[round_number] = keys
        return keys

    def close_round(self, round_number: int) -> None:
        """Ask every PKG to erase the round's master secret.

        Best-effort over the network: a PKG that cannot be reached (the very
        partition that may have aborted the round) keeps its secret until it
        heals; the reachable PKGs still erase theirs.
        """
        for pkg in self.pkgs:
            try:
                pkg.close_round(round_number)
            except NetworkError:
                continue
        self._rounds.pop(round_number, None)
