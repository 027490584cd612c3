import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairstream.baselines import GreedyWelfare, RoundRobin
from fairstream.deferred_priority import DeferredPriority
from fairstream.driver import run_online, trace_csv_rows
from fairstream.generators import interval_random, random_two_value
from fairstream.jsonl import (InstanceFormatError, dumps_instance, loads_instance, read_instance,
                              write_instance)
from fairstream.matching import NaiveMatching, PriorityMatching
from fairstream.model import (AgentProfile, AgentType, AllocationState, Flavor,
                              GoodEvent, Instance, OnlineAlgorithm, classify_agent, value)
from oracles import bundle_value, bundles, own_value


def test_classify_agent_examples():
    assert classify_agent(5, 1) is AgentType.TYPE1
    assert classify_agent(0, 0) is AgentType.TYPE0
    assert classify_agent(1, 0) is AgentType.TYPE3
    assert classify_agent(3, 3) is AgentType.TYPE2


def test_classify_agent_rejects_bad_pairs():
    with pytest.raises(ValueError):
        classify_agent(1, 2)
    with pytest.raises(ValueError):
        classify_agent(1, -1)
    with pytest.raises(ValueError):
        AgentProfile(2, 3)


@pytest.mark.parametrize("alpha, beta", [
    (float("nan"), 1.0), (float("inf"), 1.0), (2.0, float("nan")),
    (float("inf"), float("inf")), (float("nan"), float("nan")), (1.0, float("-inf")),
])
def test_classify_agent_rejects_non_finite_values(alpha, beta):
    with pytest.raises(ValueError, match="finite"):
        classify_agent(alpha, beta)
    with pytest.raises(ValueError, match="finite"):
        AgentProfile(alpha, beta)


def test_value_examples():
    prof = AgentProfile(5, 1)
    hi = GoodEvent(1, high=[True])
    lo = GoodEvent(2, high=[False])
    assert value(prof, hi, 1) == 5
    assert value(prof, lo, 1) == 1
    rv = GoodEvent(3, values=[2.75])
    assert value(AgentProfile(9.0, 1.0), rv, 1) == 2.75
    with pytest.raises(IndexError):
        value(prof, hi, 2)


def test_good_event_validation():
    with pytest.raises(ValueError):
        GoodEvent(1)
    with pytest.raises(ValueError):
        GoodEvent(1, high=[True], values=[1.0])
    with pytest.raises(ValueError):
        GoodEvent(0, high=[True])


@pytest.mark.parametrize("flags", [(1, 0), (True, 1), (True, "no"), (None,), (1.0,)])
def test_good_event_rejects_non_bool_flags(flags):
    """Flags are never coerced: bool("no") would silently read as high."""
    with pytest.raises(ValueError, match="good 3: high flags must be booleans"):
        GoodEvent(3, high=flags)
    assert GoodEvent(3, high=[True, False]).high == (True, False)


def _two_value_instance(masks, profiles=((5, 1), (5, 1)), foresight=0):
    agents = [AgentProfile(a, b) for a, b in profiles]
    goods = [GoodEvent(i, high=m) for i, m in enumerate(masks, 1)]
    return Instance(agents=agents, goods=goods, foresight=foresight)


def test_bundle_value_examples():
    inst = _two_value_instance(
        [(True, False), (True, False), (False, False), (False, False), (False, False)])
    assert bundle_value(inst, 1, []) == 0
    assert bundle_value(inst, 1, [1, 2, 3, 4, 5]) == 13  # 2 high + 3 low
    flat = Instance(agents=[AgentProfile(1, 1)],
                    goods=[GoodEvent(i, high=[False]) for i in range(1, 5)])
    assert bundle_value(flat, 1, [1, 2, 3]) == 3  # flat agents count cardinality


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance(agents=[], goods=[])
    with pytest.raises(ValueError):
        Instance(agents=[AgentProfile(2.0, 1.0)],
                 goods=[GoodEvent(1, values=[3.5])], flavor=Flavor.INTERVAL)
    with pytest.raises(ValueError, match="value nan for agent 1 outside"):
        Instance(agents=[AgentProfile(5.0, 1.0)],
                 goods=[GoodEvent(1, values=[float("nan")])], flavor=Flavor.INTERVAL)
    with pytest.raises(ValueError):
        Instance(agents=[AgentProfile(5, 1)], goods=[GoodEvent(1, high=[True])],
                 foresight=-1)
    with pytest.raises(ValueError):
        Instance(agents=[AgentProfile(5, 1), AgentProfile(5, 1)],
                 goods=[GoodEvent(1, high=[True])])


@given(st.floats(1.0, 1e6), st.one_of(
    st.floats(allow_nan=False),
    st.floats(0.0, 2.0).map(lambda u: u * (1 + 1e-9 * (u - 1))),
    st.integers(-2, 10)))
@settings(max_examples=300)
def test_interval_range_check_keeps_its_verdict_on_finite_values(alpha, v):
    """The range check once read v < 1 - 1e-9 or v > alpha * (1 + 1e-9)."""
    for a, w in ((alpha, v), (alpha, v * alpha), (alpha, alpha * (1 + 1e-9)), (alpha, 1 - 1e-9)):
        rejected = w < 1 - 1e-9 or w > a * (1 + 1e-9)
        inst = Instance([AgentProfile(a, 1.0)], [], Flavor.INTERVAL)
        try:
            inst.validate_good(GoodEvent(1, values=[w]))
        except ValueError:
            assert rejected, (a, w)
        else:
            assert not rejected, (a, w)


def test_allocation_state_partition_and_tallies():
    inst = _two_value_instance([(True, False), (False, True), (False, False)])
    st_ = AllocationState(inst)
    st_.assign(inst.goods[0], 1)
    st_.assign(inst.goods[1], 1)
    st_.assign(inst.goods[2], 2)
    assert bundles(st_) == [[1, 2], [3]]
    allocated = sorted(i for b in bundles(st_) for i in b)
    assert allocated == [1, 2, 3]  # disjoint cover of the prefix
    assert st_.high_seen == [1, 1]
    assert st_.high_received == [1, 0]
    assert own_value(st_, 1) == 6 and own_value(st_, 2) == 1
    with pytest.raises(ValueError):
        st_.assign(inst.goods[0], 1)  # out of order


class _WindowRecorder(OnlineAlgorithm):
    name = "recorder"
    requires_flags = False

    def start(self, n, agents, foresight):
        self.windows = []

    def choose(self, state, good, window):
        self.windows.append([g.index for g in window])
        return 1


def test_foresight_window_clipped_at_stream_end():
    inst = _two_value_instance([(False, False)] * 5, foresight=3)
    alg = _WindowRecorder()
    run_online(alg, inst)
    assert alg.windows == [[2, 3, 4], [3, 4, 5], [4, 5], [5], []]


def test_jsonl_roundtrip_and_bytes():
    inst = random_two_value(3, 7, seed=11, foresight=2)
    text = dumps_instance(inst)
    again = loads_instance(text)
    assert again == inst
    assert dumps_instance(again) == text


@pytest.mark.parametrize("inst", [random_two_value(3, 7, seed=11, foresight=2),
                                  random_two_value(4, 9, seed=2, profiles=[(2.5, 1), (1, 0)]),
                                  interval_random(3, 9, seed=4)])
def test_write_instance_writes_the_bytes_of_dumps_instance(inst, tmp_path):
    path = tmp_path / "inst.jsonl"
    write_instance(inst, path)
    assert path.read_bytes() == dumps_instance(inst).encode()


_json_scalars = st.one_of(st.none(), st.booleans(), st.integers(-2, 9), st.floats(),
                          st.text(max_size=3))
_json = st.recursive(_json_scalars, lambda inner: st.lists(inner, max_size=3) |
                     st.dictionaries(st.sampled_from(["high", "values"]), inner, max_size=2),
                     max_leaves=6)


@st.composite
def _instance_texts(draw):
    n = draw(st.integers(1, 3))
    flavor = draw(st.sampled_from(["two_value", "interval"]))
    header = {"n": n, "agents": [{"alpha": draw(st.sampled_from([1, 4, 4.5, 1e400])),
                                  "beta": 1} for _ in range(n)],
              "flavor": flavor, "foresight": draw(st.one_of(st.integers(0, 2), _json_scalars))}
    entry = st.one_of(st.booleans(), st.integers(0, 6), st.floats(0.5, 5.0), _json)
    goods = draw(st.lists(st.one_of(
        _json,
        st.fixed_dictionaries({"high": st.lists(entry, min_size=n, max_size=n)}),
        st.fixed_dictionaries({"values": st.lists(entry, min_size=n, max_size=n)})),
        max_size=4))
    return "\n".join(json.dumps(x) for x in [header, *goods])


@given(_instance_texts())
@settings(max_examples=200, deadline=None)
def test_loads_instance_yields_instance_or_format_error(text):
    try:
        inst = loads_instance(text)
    except InstanceFormatError:
        return
    assert isinstance(inst.foresight, int) and not isinstance(inst.foresight, bool)
    for g in inst.goods:
        inst.validate_good(g)
        entries = g.high if inst.flavor is Flavor.TWO_VALUE else g.values
        assert all(isinstance(e, bool) if inst.flavor is Flavor.TWO_VALUE
                   else not isinstance(e, bool) and math.isfinite(e) for e in entries)


def _load(load, arg):
    try:
        return load(arg)
    except InstanceFormatError as e:
        return ("error", e.line, str(e))


@given(_instance_texts(), st.lists(st.integers(0, 6), max_size=4),
       st.sampled_from(["\n", "\r\n"]), st.tuples(st.integers(0, 5), st.integers(0, 3)))
@settings(max_examples=200, deadline=None)
def test_read_instance_matches_loads_instance_line_for_line(text, blanks, newline, cut):
    """The file reader parses line by line; its instance or its error (with
    the line number, blank lines counted, and the JSON error's position)
    equals `loads_instance`'s."""
    lines = text.split("\n")
    at, chars = cut
    if at < len(lines) and chars:
        lines[at] = lines[at][:-chars]  # truncated JSON fails at the line's end
    for pos in blanks:
        lines.insert(min(pos, len(lines)), " " if pos % 2 else "")
    text = newline.join(lines)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "inst.jsonl"
        path.write_bytes(text.encode())
        assert _load(read_instance, path) == _load(loads_instance, text)


def test_read_instance_names_a_late_line_after_blank_ones(tmp_path):
    inst = random_two_value(2, 50, seed=3)
    lines = dumps_instance(inst).splitlines()
    lines[40] = '{"high": [true, 1]}'
    path = tmp_path / "inst.jsonl"
    path.write_text("\n\n" + "\n".join(lines) + "\n\n")
    with pytest.raises(InstanceFormatError, match="^line 43: good 40: high flags") as e:
        read_instance(path)
    assert e.value.line == 43


ALL_ALGS = [DeferredPriority, RoundRobin, GreedyWelfare, NaiveMatching, PriorityMatching]


def _run_choices(alg_cls, inst):
    return run_online(alg_cls(), inst).choices


@pytest.mark.parametrize("alg_cls", ALL_ALGS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scaling_one_agent_leaves_trace_unchanged(alg_cls, seed):
    n = 2 if alg_cls is NaiveMatching else 3
    inst = random_two_value(n, 24, seed, bias=0.4,
                            profiles=[(6, 2)] * n, foresight=max(1, n - 1))
    scaled_agents = list(inst.agents)
    scaled_agents[0] = AgentProfile(inst.agents[0].alpha * 7, inst.agents[0].beta * 7)
    scaled = Instance(agents=scaled_agents, goods=inst.goods, foresight=inst.foresight)
    assert _run_choices(alg_cls, inst) == _run_choices(alg_cls, scaled)


@pytest.mark.parametrize("alg_cls", ALL_ALGS)
def test_replay_determinism_byte_identical(alg_cls):
    n = 2 if alg_cls is NaiveMatching else 4
    inst = random_two_value(n, 20, seed=5, foresight=max(1, n - 1))
    a = "\n".join(trace_csv_rows(run_online(alg_cls(), inst), alg_cls.trace_columns))
    b = "\n".join(trace_csv_rows(run_online(alg_cls(), inst), alg_cls.trace_columns))
    assert a == b


@given(st.integers(1, 5), st.integers(0, 30), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_round_robin_covers_prefix_evenly(n, m, seed):
    inst = random_two_value(n, m, seed)
    trace = run_online(RoundRobin(), inst)
    counts = [0] * n
    for step in trace.steps:
        counts[step.agent - 1] += 1
        assert step.agent == (step.t - 1) % n + 1
    assert max(counts) - min(counts) <= 1
