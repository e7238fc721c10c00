"""Baseline mapping-and-routing algorithms the paper compares against.

Heuristic baselines (Q2):

* :class:`repro.baselines.sabre.SabreRouter` -- SABRE (Li, Ding, Xie,
  ASPLOS 2019): bidirectional passes for the initial map, lookahead-scored
  SWAP selection for routing.
* :class:`repro.baselines.tket_like.TketLikeRouter` -- a tket-style router:
  greedy graph placement for the initial map, windowed distance scoring for
  routing.
* :class:`repro.baselines.astar.AStarLayerRouter` -- an MQT-style A* mapper
  that optimises the SWAP sequence between consecutive topological layers.

Constraint-based baselines (Q1):

* :class:`repro.baselines.olsq.OlsqStyleRouter` -- a TB-OLSQ-style SAT model
  solved by iterative deepening on the SWAP count.
* :class:`repro.baselines.exact_mqt.ExhaustiveOptimalRouter` -- an EX-MQT-style
  exact search over the joint (gate index, mapping) state space.

Additional baselines:

* :class:`repro.baselines.trivial.NaiveShortestPathRouter` -- the no-lookahead
  shortest-path router, an interpretability anchor for cost ratios.
* :class:`repro.baselines.bmt_like.BmtLikeRouter` -- an Enfield/BMT-style
  router combining subgraph isomorphism with approximate token swapping.

All baselines subclass :class:`repro.api.BaseRouter` and return
:class:`repro.core.result.RoutingResult`.
"""

from repro.baselines.base import RoutedBuilder
from repro.baselines.sabre import SabreRouter
from repro.baselines.tket_like import TketLikeRouter
from repro.baselines.astar import AStarLayerRouter
from repro.baselines.olsq import OlsqStyleRouter
from repro.baselines.exact_mqt import ExhaustiveOptimalRouter
from repro.baselines.trivial import NaiveShortestPathRouter
from repro.baselines.bmt_like import BmtLikeRouter, embeds_without_swaps

__all__ = [
    "RoutedBuilder",
    "SabreRouter",
    "TketLikeRouter",
    "AStarLayerRouter",
    "OlsqStyleRouter",
    "ExhaustiveOptimalRouter",
    "NaiveShortestPathRouter",
    "BmtLikeRouter",
    "embeds_without_swaps",
]
