"""Online fair division of indivisible goods under personalized 2-value and
interval-restricted valuations: allocation rules, exact fairness metrics,
adversarial lower-bound streams, and the threshold reduction.

It exports what a run, an audit or the command line calls.  The direct
oracles that the tests check the run's ledger and claims against live in the
test suite (`tests/oracles.py`)."""

__version__ = "0.1.0"

from .model import (AgentProfile, AgentType, AllocationState, Flavor, GoodEvent,
                    Instance, OnlineAlgorithm, classify_agent, sees_high, value)
from .driver import Trace, Violation, audit_trace, run_online, trace_csv_rows
from .metrics import (CycleError, EnvyGraph, FairnessReport, ReportBuilder,
                      mms_exhaustive, mms_two_value, topo_sort)
from .deferred_priority import (DeferredPriority, PriorityState,
                                check_structural_guarantees, dp_step)
from .matching import (NaiveMatching, PriorityMatching, check_alternation_guarantees,
                       check_asymptotics, check_round_guarantees, naive_step)
from .baselines import GreedyWelfare, RoundRobin, round_robin_agent
from .adversaries import ef1_adversary, mms_adversary, worst_step_share_ratio
from .generators import (interval_random, lows_then_highs, random_two_value,
                         staircase)
from .reduction import ThresholdProxy, lift_guarantee, threshold_round
