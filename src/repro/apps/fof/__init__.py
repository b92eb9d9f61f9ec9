"""Friends-of-Friends group finding.

§III motivates the framework with "the computation and analysis of
cosmological datasets"; FoF halo finding is the standard analysis pass over
exactly the data the gravity solver evolves.  Groups are maximal sets of
particles chained by pairwise separations below the linking length; the
tree's ball searches make it O(N log N) instead of O(N²).
"""

from .fof import FoFResult, friends_of_friends, UnionFind

__all__ = ["FoFResult", "friends_of_friends", "UnionFind"]
