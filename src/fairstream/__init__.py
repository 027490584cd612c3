"""Online fair division of indivisible goods under personalized 2-value and
interval-restricted valuations: allocation rules, exact fairness metrics,
adversarial lower-bound streams, and the threshold reduction."""

__version__ = "0.1.0"

from .model import (AgentProfile, AgentType, AllocationState, Flavor, GoodEvent,
                    Instance, OnlineAlgorithm, bundle_value, classify_agent,
                    sees_high, value)
from .driver import Trace, Violation, audit_trace, run_online, trace_csv_rows
from .metrics import (CycleError, EnvyGraph, FairnessReport, ReportBuilder,
                      build_envy_graph, efk_ratio, mms_exhaustive, mms_report,
                      mms_two_value, prop_ratio, topo_sort)
from .deferred_priority import (DeferredPriority, PriorityState,
                                check_level_sets, check_share_bounds,
                                check_structural_guarantees, dp_step)
from .matching import (NaiveMatching, PriorityMatching, check_alternation_guarantees,
                       check_asymptotics, check_round_guarantees, naive_step,
                       priority_round_plan)
from .baselines import GreedyWelfare, RoundRobin, round_robin_agent
from .adversaries import (ef1_adversary, mms_adversary, sqrt_gap,
                          worst_step_share_ratio)
from .generators import (interval_random, lows_then_highs, random_two_value,
                         staircase)
from .reduction import ThresholdProxy, lift_guarantee, threshold_round
