"""Durable cluster persistence: the on-disk dictionary-encoded store.

``repro.persist`` makes the in-memory reproduction restartable: a
:class:`ClusterStore` is a single SQLite file holding one cluster's term
dictionary, integer triple table, vertex→fragment assignment and a
write-ahead delta table, under a versioned manifest.  ``repro.open(path=...)`` builds-and-saves or reopens a cluster
from it, :meth:`~repro.distributed.Cluster.apply` journals mutations into
it, and ``repro store info`` inspects it read-only.

The determinism contract (see docs/persistence.md): a cluster reopened from
a store file replays the delta table through the exact code path the live
cluster mutated through, so answers, match sequences and shipment
fingerprints are bit-identical to the never-persisted cluster.
"""

from .store import SCHEMA_VERSION, ClusterStore, StoreError

__all__ = [
    "SCHEMA_VERSION",
    "ClusterStore",
    "StoreError",
]
