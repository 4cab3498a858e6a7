"""Expander decomposition and triangle enumeration on a synchronous simulator."""

from .config import DESK, PAPER, Profile, get_profile
from .graph import (
    Cut,
    Graph,
    contract,
    cut_stats,
    min_conductance_oracle,
    mixing_time_estimate,
    parse_graph_text,
)
from .simulator import Msg, Network, RoundLedger
from .views import ActiveView, WorkingGraph

__all__ = [
    "ActiveView",
    "Cut",
    "DESK",
    "Graph",
    "Msg",
    "Network",
    "PAPER",
    "Profile",
    "RoundLedger",
    "WorkingGraph",
    "contract",
    "cut_stats",
    "get_profile",
    "min_conductance_oracle",
    "mixing_time_estimate",
    "parse_graph_text",
]
