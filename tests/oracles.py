"""Test-only helpers that read the threshold proxy directly, with no ledger."""
from fairstream.metrics import REL_TOL
from fairstream.model import value
from fairstream.reduction import ThresholdProxy


def proxy_value(pair: ThresholdProxy, agent: int, good_index: int) -> float:
    g = pair.proxy.goods[good_index - 1]
    return value(pair.proxy.agents[agent - 1], g, agent)


def sandwich_holds(pair: ThresholdProxy, agent: int, subset) -> bool:
    """Check proxy(S)/sqrt(alpha) <= original(S) <= proxy(S) on a good subset."""
    thr = pair.thresholds[agent - 1]
    orig = sum(pair.original.goods[idx - 1].values[agent - 1] for idx in subset)
    prox = sum(proxy_value(pair, agent, idx) for idx in subset)
    tol = REL_TOL * max(1.0, orig, prox)
    return prox / thr <= orig + tol and orig <= prox + tol
