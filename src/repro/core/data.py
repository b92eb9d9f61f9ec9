"""The *Data* abstraction (paper §II-A-1).

``Data`` summarises a subtree's particles with constant space: leaves are
initialised from their particle bucket, parents start from the empty state
and accumulate their children with ``+=``, leaves-to-root (paper Fig 1,
centre).  The generic engine (:func:`accumulate_data`) works with any class
implementing the :class:`Data` protocol.

Because the builders append children after their parents, node index order
is a valid topological order, and a single reverse sweep performs the full
leaves-to-root accumulation.
"""

from __future__ import annotations

from typing import Any, Protocol, TypeVar, runtime_checkable

from ..trees import SpatialNode, Tree

__all__ = ["Data", "accumulate_data"]


@runtime_checkable
class Data(Protocol):
    """Protocol for per-node summary state (mirrors the paper's interface).

    Implementations provide::

        @classmethod
        def from_leaf(cls, node) -> Data     # Data(Particle*, int) in C++
        @classmethod
        def empty(cls) -> Data               # Data()
        def __iadd__(self, child) -> Data    # operator+=(const Data&)
    """

    @classmethod
    def from_leaf(cls, node: SpatialNode) -> "Data": ...

    @classmethod
    def empty(cls) -> "Data": ...

    def __iadd__(self, child: "Data") -> "Data": ...


D = TypeVar("D")


def accumulate_data(tree: Tree, data_cls: type[D]) -> list[D]:
    """Run the leaves-to-root accumulation and attach the result to the tree.

    Returns the per-node list (index-aligned with the tree's node arrays)
    and also stores it on ``tree.data``.
    """
    n = tree.n_nodes
    data: list[Any] = [None] * n
    is_leaf = tree.first_child
    for i in range(n):
        if is_leaf[i] == -1:
            data[i] = data_cls.from_leaf(tree.node(i))
        else:
            data[i] = data_cls.empty()
    # Children always have larger indices than their parents, so one reverse
    # sweep accumulates bottom-up.
    parent = tree.parent
    for i in range(n - 1, 0, -1):
        d = data[parent[i]]
        d += data[i]
        data[parent[i]] = d
    tree.data = data
    return data
