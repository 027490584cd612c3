"""Instance files as JSON Lines.

Line 1 is the header::

    {"n": 2, "agents": [{"alpha": 5, "beta": 1}, ...],
     "flavor": "two_value" | "interval", "foresight": 0}

Each following line is one good, ``{"high": [bool, ...]}`` for 2-value
instances or ``{"values": [real, ...]}`` for interval-restricted ones.

The loader is strict at this boundary: flags must be JSON booleans, values
and alphas finite JSON numbers, foresight a JSON integer; any other input
raises `InstanceFormatError` naming the offending line (blank lines count).
`read_instance` parses a file one line at a time and `write_instance` writes
one line at a time, so only the instance, not the file's text, is held in
memory.
"""
from __future__ import annotations

import json
import math

from .model import AgentProfile, Flavor, GoodEvent, Instance


class InstanceFormatError(ValueError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def _number(x, line, what):
    if isinstance(x, bool) or not isinstance(x, (int, float)) or \
            (isinstance(x, float) and not math.isfinite(x)):
        raise InstanceFormatError(line, f"{what} must be a finite number, got {x!r}")
    return x


def _good(obj, idx: int, line: int, flavor: Flavor) -> GoodEvent:
    """Parse one good line strictly: a list of JSON booleans or of finite numbers."""
    key = "high" if flavor is Flavor.TWO_VALUE else "values"
    entries = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(entries, list):
        raise InstanceFormatError(line, f"good {idx}: '{key}' must be a JSON list, got {entries!r}")
    if flavor is Flavor.TWO_VALUE:
        for b in entries:
            if not isinstance(b, bool):
                raise InstanceFormatError(line, f"good {idx}: high flags must be booleans, got {b!r}")
        return GoodEvent(idx, high=entries)
    return GoodEvent(idx, values=[_number(v, line, f"good {idx} value") for v in entries])


def loads_instance(text: str) -> Instance:
    return _parse_lines(text.splitlines())


def _parse_lines(raw_lines) -> Instance:
    """Parse an instance from an iterable of its lines, one at a time, so a
    file is never held whole.  Line numbers in errors count every line,
    blank ones included."""
    lines = ((no, ln) for no, ln in enumerate(raw_lines, 1) if ln.strip())
    first = next(lines, None)
    if first is None:
        raise InstanceFormatError(1, "empty instance file")
    head, text0 = first
    try:
        header = json.loads(text0)
    except json.JSONDecodeError as e:
        raise InstanceFormatError(head, f"bad JSON header: {e}") from e
    if not isinstance(header, dict) or "agents" not in header:
        raise InstanceFormatError(head, "header must be an object with an 'agents' field")
    try:
        agents = [AgentProfile(_number(a["alpha"], head, "alpha"), _number(a["beta"], head, "beta"))
                  for a in header["agents"]]
    except InstanceFormatError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise InstanceFormatError(head, f"bad agent list: {e}") from e
    n = header.get("n", len(agents))
    if n != len(agents):
        raise InstanceFormatError(head, f"header n={n} but {len(agents)} agents listed")
    try:
        flavor = Flavor(header.get("flavor", "two_value"))
    except ValueError as e:
        raise InstanceFormatError(head, str(e)) from e
    foresight = header.get("foresight", 0)
    if isinstance(foresight, bool) or not isinstance(foresight, int) or foresight < 0:
        raise InstanceFormatError(head, f"bad foresight {foresight!r}")
    try:
        instance = Instance(agents=agents, goods=[], flavor=flavor, foresight=foresight)
    except ValueError as e:
        raise InstanceFormatError(head, str(e)) from e

    for lineno, ln in lines:
        try:
            obj = json.loads(ln)
        except json.JSONDecodeError as e:
            raise InstanceFormatError(lineno, f"bad JSON: {e}") from e
        good = _good(obj, instance.m + 1, lineno, flavor)
        try:
            instance.validate_good(good)
        except ValueError as e:
            raise InstanceFormatError(lineno, str(e)) from e
        instance.goods.append(good)
    return instance


def _instance_lines(instance: Instance):
    """Yield the instance's JSONL lines, header first, without newlines."""
    header = {
        "n": instance.n,
        "agents": [{"alpha": a.alpha, "beta": a.beta} for a in instance.agents],
        "flavor": instance.flavor.value,
        "foresight": instance.foresight,
    }
    yield json.dumps(header, separators=(",", ":"))
    for g in instance.goods:
        if g.high is not None:
            yield json.dumps({"high": list(g.high)}, separators=(",", ":"))
        else:
            yield json.dumps({"values": list(g.values)}, separators=(",", ":"))


def dumps_instance(instance: Instance) -> str:
    return "\n".join(_instance_lines(instance)) + "\n"


def read_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        # without its newline a line's JSON errors read as in `loads_instance`
        return _parse_lines(ln.rstrip("\n") for ln in fh)


def write_instance(instance: Instance, path):
    """Write the instance to `path` line by line, the same bytes as
    `dumps_instance`, without holding the whole text."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in _instance_lines(instance):
            fh.write(f"{line}\n")
