"""Run configuration (paper §II-D-2, Fig 8).

"To conduct a simulation with ParaTreeT, the user first defines a
configuration object for initialization ... input file name, number of
iterations, load balancing period, minimum number of Subtrees and
Partitions, decomposition type, tree type, among others.  Users can also
tune other performance-specific hyperparameters: number of nodes fetched per
request, number of branch nodes shared across all processors, and load
balancing frequency."
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..decomp import get_decomposer
from ..decomp.loadbalance import LB_STRATEGIES
from ..trees import TreeBuildConfig, TreeType
from .traverser import get_traverser

__all__ = ["Configuration"]


@dataclass
class Configuration:
    """All knobs of a ParaTreeT run.

    Attributes mirror the paper's ``Configuration``; performance
    hyperparameters (``nodes_per_request``, ``shared_branch_levels``) feed
    the software-cache layer and the runtime simulator.
    """

    input_file: str | None = None
    num_iterations: int = 1
    tree_type: TreeType | str = TreeType.OCT
    decomp_type: str = "sfc"
    bucket_size: int = 16
    #: Minimum number of Partitions (load units); 0 = one per target bucket
    #: group chosen automatically.
    num_partitions: int = 8
    #: Minimum number of Subtrees (memory units).
    num_subtrees: int = 8
    #: Which top-down engine drives ``start_down``
    #: (:func:`~repro.core.top_down_engines`).  "batched" is the production
    #: engine: the pair frontier in work-bounded segments through the flat
    #: kernels of ``repro.trees.kernels``.  "transposed" and "per-bucket"
    #: ("basic") are schedules over the same Visitor pair hooks that deliver
    #: the same pair set in the two visit *orderings* the paper compares
    #: (Table II, Fig 10 "BasicTrav"); no ordering owns a hook family.  This
    #: field is the one place the default is written; the CLI and the
    #: ``compute_gravity*`` helpers read it from here.
    traverser: str = "batched"
    #: Iterations between load re-balancing; 0 disables (the paper's
    #: evaluation runs with LB off).
    lb_period: int = 0
    lb_strategy: str = "sfc"
    #: Iterations between full flush/redistribution of particles.
    flush_period: int = 0
    #: Cache hyperparameter: how many descendant levels of a requested node
    #: the home process ships with each fill.
    nodes_per_request: int = 3
    #: Cache hyperparameter: how many top levels of the global tree are
    #: broadcast to every process before traversal starts.
    shared_branch_levels: int = 3
    #: Random seed threaded through generators for reproducibility.
    seed: int = 0
    #: Free-form application-specific options.
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.tree_type = TreeType(self.tree_type)
        for name, minimum in (("num_iterations", 0), ("bucket_size", 1),
                              ("num_partitions", 1), ("num_subtrees", 1),
                              ("nodes_per_request", 1), ("shared_branch_levels", 0)):
            if getattr(self, name) < minimum:
                raise ValueError(f"{name} must be >= {minimum}")
        # names are checked against their registries here, so a typo fails
        # before particles are generated rather than after the tree build
        get_traverser(self.traverser)
        get_decomposer(self.decomp_type)
        if self.lb_strategy not in LB_STRATEGIES:
            raise ValueError(
                f"unknown lb_strategy {self.lb_strategy!r}; "
                f"available: {sorted(LB_STRATEGIES)}"
            )

    def tree_build_config(self) -> TreeBuildConfig:
        return TreeBuildConfig(tree_type=self.tree_type, bucket_size=self.bucket_size)

    def to_dict(self) -> dict:
        """JSON-serializable view of every knob (checkpoint metadata)."""
        return {
            "input_file": self.input_file,
            "num_iterations": int(self.num_iterations),
            "tree_type": str(TreeType(self.tree_type).value),
            "decomp_type": self.decomp_type,
            "bucket_size": int(self.bucket_size),
            "num_partitions": int(self.num_partitions),
            "num_subtrees": int(self.num_subtrees),
            "traverser": self.traverser,
            "lb_period": int(self.lb_period),
            "lb_strategy": self.lb_strategy,
            "flush_period": int(self.flush_period),
            "nodes_per_request": int(self.nodes_per_request),
            "shared_branch_levels": int(self.shared_branch_levels),
            "seed": int(self.seed),
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Configuration":
        """Inverse of :meth:`to_dict`; an unknown key or an out-of-range
        value raises ``ValueError`` naming it."""
        # checkpoints written while there were two octree builders carry
        # the choice; the trees were byte-identical, so it is dropped
        d = {k: v for k, v in d.items() if k != "tree_builder"}
        try:
            return cls(**d)
        except TypeError as exc:  # unexpected keyword
            raise ValueError(f"bad configuration: {exc}") from None
