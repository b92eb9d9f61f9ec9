"""In-memory double checkpointing (the Charm++/ChaNGa buddy scheme).

Each rank keeps its own latest checkpoint blob in memory *and* mirrors it
to a buddy rank (the next rank, ring order).  A crashed rank therefore
recovers without touching the filesystem: its replacement pulls the replica
from the buddy — which is exactly the transfer the DES recovery model
charges for (wire latency + serialization + bandwidth + deserialize).  The
scheme tolerates any single-rank failure; losing a rank *and* its buddy
between commits loses the state, which :meth:`BuddyStore.recover` reports
as an error rather than silently restarting from nothing.
"""

from __future__ import annotations

from .checkpoint import CheckpointError

__all__ = ["BuddyStore"]


class BuddyStore:
    """Blob store with ring-buddy replication over ``n_ranks`` ranks."""

    def __init__(self, n_ranks: int) -> None:
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        self.n_ranks = int(n_ranks)
        #: rank -> its own latest checkpoint blob
        self._own: dict[int, bytes] = {}
        #: rank -> replica of its buddy's blob (held *for* buddy_of(rank)^-1)
        self._replica: dict[int, bytes] = {}

    def buddy_of(self, rank: int) -> int:
        """The rank holding ``rank``'s replica (ring neighbor)."""
        self._check(rank)
        return (rank + 1) % self.n_ranks

    def commit(self, rank: int, blob: bytes) -> int:
        """Store ``rank``'s new checkpoint locally and on its buddy;
        returns the buddy rank."""
        self._check(rank)
        blob = bytes(blob)
        buddy = (rank + 1) % self.n_ranks
        self._own[rank] = blob
        self._replica[buddy] = blob
        return buddy

    def lose_rank(self, rank: int) -> None:
        """Simulate a crash: everything in ``rank``'s memory is gone — its
        own checkpoint and any replica it held for its neighbor."""
        self._check(rank)
        self._own.pop(rank, None)
        self._replica.pop(rank, None)

    def recover(self, rank: int) -> tuple[bytes, bool]:
        """The blob to restart ``rank`` from, and whether it came from the
        buddy (True) or survived locally (False)."""
        self._check(rank)
        own = self._own.get(rank)
        if own is not None:
            return own, False
        buddy = (rank + 1) % self.n_ranks
        replica = self._replica.get(buddy)
        if replica is None:
            raise CheckpointError(
                f"rank {rank} lost its checkpoint and buddy rank {buddy} "
                f"holds no replica (double failure between commits)"
            )
        return replica, True

    def has_checkpoint(self, rank: int) -> bool:
        self._check(rank)
        return rank in self._own or (rank + 1) % self.n_ranks in self._replica

    def _check(self, rank: int) -> None:
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range [0, {self.n_ranks})")
