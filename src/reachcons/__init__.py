"""Asynchronous Byzantine approximate consensus on directed graphs.

Condition checkers (k-reach and partition forms), the witness-based consensus
protocol with filter-and-average rounds, pluggable fault plans, and a
deterministic discrete-event simulator.
"""

from .adversary import (Crash, Equivocate, FaultPlan, ForgeComplete, Silent,
                        TamperForward, builtin_plans, make_plan)
from .conditions import (check_k_reach, check_partition_condition,
                         check_point, equivalence_audit)
from .errors import (BudgetError, GraphFormatError, InvalidArgumentError,
                     ProtocolIntegrityError, ReachconsError)
from .generate import all_digraphs, clique, random_digraph, two_cliques
from .graph import (DiGraph, RedundantPath, count_disjoint_paths,
                    count_redundant_paths, enumerate_redundant_paths,
                    format_edge_list, has_f_cover, is_redundant_path,
                    make_redundant_path, parse_edge_list, propagates,
                    reach_set, source_component)
from .messaging import EMPTY, Message, MessageSet, message_set
from .simnet import (Budgets, RoundSkewDelay, RunMetrics, TargetedSlowDelay,
                     UniformDelay, assert_round_invariants, run)

__all__ = [
    "BudgetError", "Budgets", "Crash", "DiGraph", "EMPTY", "Equivocate",
    "FaultPlan", "ForgeComplete", "GraphFormatError", "InvalidArgumentError",
    "Message", "MessageSet", "ProtocolIntegrityError", "ReachconsError",
    "RedundantPath", "RoundSkewDelay", "RunMetrics", "Silent",
    "TamperForward", "TargetedSlowDelay", "UniformDelay", "all_digraphs",
    "assert_round_invariants", "builtin_plans", "check_k_reach",
    "check_partition_condition", "check_point", "clique",
    "count_disjoint_paths", "count_redundant_paths", "enumerate_redundant_paths",
    "equivalence_audit", "format_edge_list", "has_f_cover",
    "is_redundant_path", "make_plan", "make_redundant_path", "message_set",
    "parse_edge_list", "propagates", "random_digraph", "reach_set", "run",
    "source_component", "two_cliques",
]

__version__ = "0.1.0"
