"""Exception types shared across the package."""


class ExpandecError(Exception):
    """Base class for all package errors."""


class FormatError(ExpandecError):
    """Malformed graph text or invalid construction input."""


class DegenerateCut(ExpandecError):
    """Cut statistics requested for the empty set or the full vertex set."""


class MissingEdge(ExpandecError):
    """Edge removal requested for an edge that is not present."""


class TooLarge(ExpandecError):
    """Instance exceeds the size an exhaustive oracle is willing to handle."""


class Disconnected(ExpandecError):
    """Operation requires a connected graph."""


class BadPhi(ExpandecError):
    """Conductance parameter outside the accepted range."""


class BadEpsilon(ExpandecError):
    """Edge-fraction parameter outside (0, 1)."""


class Infeasible(ExpandecError):
    """Generator parameters admit no graph (e.g. odd degree sum)."""


class BandwidthExceeded(ExpandecError):
    """A single message exceeded the per-edge per-round bit budget."""

    def __init__(self, edge, bits, budget):
        super().__init__(f"message of {bits} bits on edge {edge} exceeds budget {budget}")
        self.edge = edge
        self.bits = bits
        self.budget = budget


class DepthExceeded(ExpandecError):
    """Split recursion ran past its proven depth bound (bug signal)."""


class LevelOverflow(ExpandecError):
    """Trim phase tried to advance past the last level (bug signal)."""


class StalledLevel(ExpandecError):
    """A triangle recursion level did not shrink its edge set (bug signal)."""


class NotATriangle(ExpandecError):
    """A reported triple is not a triangle of the input graph (bug signal)."""


class BudgetExceeded(ExpandecError):
    """A decomposition removal broke a budget: the total past epsilon * m
    (the message names the channel and the Phase-1 depth or Phase-2 level), or
    a Phase-2 level's ejected volume past its m_l (names the level, the volume
    and m_l).  Raised at that removal, not after the run."""
