"""Spectral-triple style analysis of one-sided subshift spaces.

The package builds truncated trees of words from subshift languages,
evaluates ultrametric and spectral distances over choice functions, runs
Lipschitz and continuity diagnostics, computes zeta partial sums with
abscissa estimates, and assembles averaged tree Laplacians with their
spectra.
"""

__version__ = "0.1.0"

# horizontal edges between children of a level-n vertex carry length
# delta_n; equivalently, sibling edges at level n+1 have length delta_n.
# Reports embed this tag so downstream readers know which indexing the
# numbers follow.
EDGE_LENGTH_CONVENTION = "sibling-edges-at-level-n-carry-delta-(n-1)"


class InvariantViolationError(RuntimeError):
    """An assembled matrix failed a structural pre-check."""
