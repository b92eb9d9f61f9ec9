"""ParaTreeT's core abstractions: Data, Visitor, Traverser, Driver.

These are the paper's §II-A interfaces.  A complete application consists of
a Data class (per-node summaries), a Visitor (pruning + interactions), and a
Driver subclass that configures the run and starts traversals — see
``examples/gravity_simulation.py`` for the 1:1 mirror of the paper's Figs
6-8.
"""

from .config import Configuration
from .data import AdditiveArrayData, Data, accumulate_data, extract_additive
from .driver import Driver, IterationObserver, IterationReport, Partitions
from .traverser import (
    BucketLoadRecorder,
    InteractionLists,
    Recorder,
    TraversalStats,
    Traverser,
    get_traverser,
    register_traverser,
    top_down_engines,
)
from .visitor import Visitor

# Importing the engine modules registers the built-in traversers.
from .batched import BatchedTraverser
from .topdown import PerBucketTraverser, TransposedTraverser
from .upanddown import UpAndDownTraverser
from .dualtree import DualTreeTraverser
from .priority import PriorityTraverser
from .util import ranges_to_indices, segment_sums

__all__ = [
    "Configuration",
    "Data",
    "AdditiveArrayData",
    "accumulate_data",
    "extract_additive",
    "Driver",
    "IterationReport",
    "IterationObserver",
    "Partitions",
    "Visitor",
    "Traverser",
    "TraversalStats",
    "Recorder",
    "InteractionLists",
    "BucketLoadRecorder",
    "get_traverser",
    "register_traverser",
    "top_down_engines",
    "PerBucketTraverser",
    "TransposedTraverser",
    "BatchedTraverser",
    "UpAndDownTraverser",
    "DualTreeTraverser",
    "PriorityTraverser",
    "ranges_to_indices",
    "segment_sums",
]
