"""weylbound: desk-scale verification of the GL(2) subconvexity toolkit.

Exact character/Kloosterman sums and their closed forms, the level-1
Petersson trace formula, oscillatory-integral lemmas with a quadrature
oracle, direct L(1/2 + it) evaluation by smoothed approximate
functional equation, and the dual off-diagonal transformation chain.
Import the submodules (`weylbound.lfunc`, `weylbound.acceptance`, ...)
directly.
"""

__version__ = "0.1.0"
