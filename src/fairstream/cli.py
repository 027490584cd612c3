"""Command-line driver.

Subcommands: `run` an algorithm over an instance (file or generator) and emit
trace + per-step fairness report CSVs, `generate` seeded instances,
`adversary` runs an adaptive lower-bound stream against an algorithm,
`reduce` rounds an interval instance to its 2-value proxy, `verify` runs the
acceptance test suite.

`run` writes its outputs after the run, row by row: the trace CSV and the
report CSV through files opened only then (a run that raises leaves no file),
or the report rows to stdout as they are formed.

Exit codes: 0 success, 1 bad input or configuration (a usage error prints the
usage line, malformed instance files report the offending line, an output
path that cannot be written prints `error: ...`), 2 guarantee-check failure,
141 (128 + SIGPIPE, as a shell reports a writer that SIGPIPE ended) when the
reader of stdout closed it before the output was complete, as in
`fairstream run ... | head`; the command then ends quietly, and its
guarantee checks may not have run.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

from . import __version__
from .adversaries import ef1_adversary, mms_adversary
from .baselines import GreedyWelfare, RoundRobin
from .deferred_priority import DeferredPriority, DeferredPriorityAuditor
from .driver import run_online, trace_csv_rows
from .generators import interval_random, lows_then_highs, random_two_value, staircase
from .jsonl import InstanceFormatError, _instance_lines, read_instance, write_instance
from .matching import (NaiveMatching, NaiveMatchingAuditor, PriorityMatching,
                       PriorityMatchingAuditor)
from .metrics import ReportBuilder, report_csv_rows
from .model import Instance

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_GUARANTEE = 2
EXIT_PIPE = 141

# rows joined per write of a CSV file: a write per row took about twice as
# long, and 256 rows of a wide trace held about 150 KiB at once
_CHUNK_ROWS = 64

ALGORITHMS = {
    "deferred-priority": DeferredPriority,
    "naive-matching": NaiveMatching,
    "priority-matching": PriorityMatching,
    "round-robin": RoundRobin,
    "greedy-welfare": GreedyWelfare,
}

AUDITORS = {
    "deferred-priority": lambda inst: DeferredPriorityAuditor(inst, share_bounds=True),
    "naive-matching": NaiveMatchingAuditor,
    "priority-matching": PriorityMatchingAuditor,
}


def make_algorithm(name: str):
    try:
        return ALGORITHMS[name]()
    except KeyError:
        raise ValueError(f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}")


def _parse(kind, text, option: str):
    """`kind(text)`, or a ValueError that names the option at fault."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{option}: cannot read {text!r}") from None


def _parse_profiles(text: str):
    def pair(part):  # "5" leaves b empty, which int() rejects
        a, _, b = part.partition(":")
        return (float(a) if "." in a else int(a), float(b) if "." in b else int(b))
    return [_parse(pair, part, "--profiles") for part in text.split(",")]


# the options of `add_gen_opts`, each None when unset
GEN_OPTIONS = ("gen", "n", "m", "seed", "bias", "alpha", "profiles")


def _check_foresight(args):
    if args.foresight is not None and args.foresight < 0:
        raise ValueError(f"--foresight: need a nonnegative lookahead, got {args.foresight}")


def _load_or_generate(args) -> Instance:
    """The instance of `--instance` or `--gen`; a generator option beside
    `--instance` is an error."""
    if not args.instance:
        return _generate_from_args(args)
    for name in GEN_OPTIONS:
        if getattr(args, name) is not None:
            raise ValueError(f"--{name}: --instance FILE reads no generator option")
    _check_foresight(args)
    inst = read_instance(args.instance)
    return inst if args.foresight is None else inst.with_foresight(args.foresight)


def _generate_from_args(args) -> Instance:
    """The instance of `--gen`; an option that it does not read is an error."""
    kind = args.gen
    if kind is None:
        raise ValueError("provide --instance FILE or --gen KIND")
    n = 2 if args.n is None else args.n
    if n < 1:
        raise ValueError(f"--n: need at least one agent, got {n}")
    _check_foresight(args)
    fixed = ("m", "seed", "bias", "profiles")  # a fixed stream draws nothing
    for name in {"random-2value": ("alpha",), "staircase": fixed, "lows-then-highs": fixed,
                 "interval-random": ("bias", "profiles")}.get(kind, ()):
        if getattr(args, name) is not None:
            raise ValueError(f"--{name}: --gen {kind} does not read it")
    m, seed = 20 if args.m is None else args.m, args.seed or 0
    bias = 0.3 if args.bias is None else args.bias
    if m < 0:
        raise ValueError(f"--m: need a nonnegative number of goods, got {m}")
    if not 0 <= bias <= 1:
        raise ValueError(f"--bias: need a probability in [0, 1], got {bias}")
    if kind == "random-2value":
        profiles = _parse_profiles(args.profiles) if args.profiles else None
        return random_two_value(n, m, seed, bias=bias, profiles=profiles,
                                foresight=args.foresight or 0)
    if kind == "staircase":
        alpha = _parse(int, args.alpha, "--alpha") if args.alpha else None
        return staircase(n, alpha=alpha, foresight=args.foresight or 0)
    if kind == "lows-then-highs":
        return lows_then_highs(n, alpha=_parse(int, args.alpha or n, "--alpha"),
                               foresight=args.foresight)
    if kind == "interval-random":
        alphas = ([_parse(float, a, "--alpha") for a in args.alpha.split(",")]
                  if args.alpha else None)
        if alphas is not None and len(alphas) == 1:
            alphas = alphas * n
        return interval_random(n, m, seed, alphas=alphas, foresight=args.foresight or 0)
    raise ValueError(f"unknown generator {kind!r}")


def _check_distinct_files(args):
    """A ValueError when two of `--instance`, `--trace-out` and
    `--report-out` resolve to one file: the run would overwrite its own
    input, or one output the other."""
    named = {}
    for option, path in (("--instance", args.instance), ("--trace-out", args.trace_out),
                         ("--report-out", args.report_out)):
        if path:
            key = Path(path).resolve()
            if key in named:
                raise ValueError(f"{option}: names the same file as {named[key]}")
            named[key] = option


def cmd_run(args) -> int:
    _check_distinct_files(args)
    inst = _load_or_generate(args)
    alg = make_algorithm(args.alg)
    auditors = []
    if args.assert_guarantees:
        factory = AUDITORS.get(args.alg)
        if factory is not None:
            auditors.append(factory(inst))

    report = ReportBuilder(inst).report
    reports = []
    n, m, gran = inst.n, inst.m, args.granularity

    class _Reporter:
        def observe(self, state, good, agent, extras):
            t = state.t
            if gran == "step" or (gran == "round" and t % n == 0) or (gran == "final" and t == m):
                reports.append(report(state))

    trace = run_online(alg, inst, auditors=auditors + [_Reporter()])

    if args.trace_out:
        _write_csv(args.trace_out, trace_csv_rows(trace, alg.trace_columns))
    rows = report_csv_rows(reports)
    if args.report_out:
        _write_csv(args.report_out, rows)
    else:
        for row in rows:
            print(row)

    violations = []
    for aud in auditors:
        violations.extend(aud.finish())
    if violations:
        for v in violations[:20]:
            print(f"guarantee violated: {v}", file=sys.stderr)
        print(f"{len(violations)} violation(s) total", file=sys.stderr)
        return EXIT_GUARANTEE
    return EXIT_OK


def _write_csv(path, rows):
    """Write CSV rows to `path`, each ended by a newline, as they are formed:
    only one chunk of rows is held at a time."""
    rows = iter(rows)
    with open(path, "w", encoding="utf-8") as fh:
        while chunk := list(islice(rows, _CHUNK_ROWS)):
            chunk.append("")
            fh.write("\n".join(chunk))


def cmd_generate(args) -> int:
    inst = _generate_from_args(args)
    if args.out:
        write_instance(inst, args.out)
    else:
        # line by line, so that a reader closing stdout early raises
        # BrokenPipeError (exit 141): one write of the whole text returns a
        # short count instead
        for line in _instance_lines(inst):
            sys.stdout.write(f"{line}\n")
    return EXIT_OK


def _fraction_json(fr):
    if isinstance(fr, Fraction):
        return {"num": fr.numerator, "den": fr.denominator, "float": float(fr)}
    return fr


def cmd_adversary(args) -> int:
    alg = make_algorithm(args.alg)
    if args.kind == "ef1-2":
        trace = ef1_adversary(alg)
    elif args.kind == "mms":
        trace = mms_adversary(alg, args.n)
    elif args.kind == "known":
        inst = lows_then_highs(args.n, alpha=_parse(int, args.alpha or args.n, "--alpha"))
        if args.out_instance:
            write_instance(inst, args.out_instance)
        from .adversaries import worst_step_share_ratio
        ratio = worst_step_share_ratio(make_algorithm(args.alg), inst)
        print(json.dumps({"kind": "known", "alg": args.alg, "n": args.n,
                          "min_step_mms_ratio": _fraction_json(ratio)}))
        return EXIT_OK
    else:
        raise ValueError(f"unknown adversary kind {args.kind!r}")
    w = trace.witness
    payload = {
        "kind": trace.kind,
        "alg": args.alg,
        "n": trace.instance.n,
        "witness": {"step": w.step, "agent": w.agent, "metric": w.metric,
                    "ratio": _fraction_json(w.ratio), "bound": _fraction_json(w.bound)},
        "choices": trace.choices,
        "notes": {k: str(v) for k, v in trace.notes.items()},
    }
    print(json.dumps(payload))
    if args.out_instance:
        write_instance(trace.instance, args.out_instance)
    return EXIT_OK


def cmd_reduce(args) -> int:
    from .reduction import sidecar, threshold_round

    inst = read_instance(args.infile)
    pair = threshold_round(inst)
    write_instance(pair.proxy, args.out)
    meta = Path(args.out).with_suffix(".meta.json")
    meta.write_text(json.dumps(sidecar(pair), indent=2) + "\n")
    print(f"wrote {args.out} and {meta}")
    return EXIT_OK


def cmd_verify(args) -> int:
    tests = Path(args.tests) if args.tests else _find_acceptance()
    if tests is None or not tests.exists():
        print("acceptance suite not found; pass --tests PATH", file=sys.stderr)
        return EXIT_INPUT
    proc = subprocess.run([sys.executable, "-m", "pytest", str(tests), "-v", "-s"])
    return EXIT_OK if proc.returncode == 0 else EXIT_GUARANTEE


def _find_acceptance():
    here = Path(__file__).resolve()
    for parent in here.parents:
        cand = parent / "tests" / "test_acceptance.py"
        if cand.exists():
            return cand
    return None


class _Parser(argparse.ArgumentParser):
    """A usage error exits 1 (`EXIT_INPUT`), not argparse's 2, which is
    `EXIT_GUARANTEE` here; subparsers are made of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="fairstream", description="online fair division testbed")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_gen_opts(sp):
        sp.add_argument("--gen", choices=["random-2value", "staircase",
                                          "lows-then-highs", "interval-random"])
        # None when unset, so that a generator can reject an option it does not read
        sp.add_argument("--n", type=int, help="number of agents (default 2)")
        sp.add_argument("--m", type=int, help="number of goods (default 20)")
        sp.add_argument("--seed", type=int, help="default 0")
        sp.add_argument("--bias", type=float, help="chance that a flag is high (default 0.3)")
        sp.add_argument("--alpha", help="alpha (or comma list) for generators")
        sp.add_argument("--profiles",
                        help="comma list alpha:beta, e.g. '5:1,2:1,1:1,1:0'")

    run = sub.add_parser("run", help="stream an instance through an algorithm")
    run.add_argument("--alg", required=True, choices=sorted(ALGORITHMS))
    run.add_argument("--instance", help="instance JSONL file")
    add_gen_opts(run)
    run.add_argument("--foresight", type=int, default=None,
                     help="override the instance's lookahead length")
    run.add_argument("--granularity", choices=["step", "round", "final"], default="step",
                     help="the steps t that get one report row per agent: every step "
                          "(default), t a multiple of n (a last partial round gets no "
                          "row), or t = m (no row when m = 0)")
    run.add_argument("--assert-guarantees", action="store_true",
                     help="audit the rule's guarantees during the run and exit 2 on a "
                          "violation (a rule that claims none runs unaudited)")
    run.add_argument("--trace-out", help="write the trace CSV to this file")
    run.add_argument("--report-out", help="write the report CSV to this file, not stdout")
    run.set_defaults(func=cmd_run)

    gen = sub.add_parser("generate", help="write a seeded instance file")
    add_gen_opts(gen)
    gen.add_argument("--foresight", type=int, default=None)
    gen.add_argument("--out")
    gen.set_defaults(func=cmd_generate)

    adv = sub.add_parser("adversary", help="run a lower-bound adversary")
    adv.add_argument("--kind", required=True, choices=["ef1-2", "mms", "known"])
    adv.add_argument("--alg", required=True, choices=sorted(ALGORITHMS))
    adv.add_argument("--n", type=int, default=2)
    adv.add_argument("--alpha")
    adv.add_argument("--out-instance", help="write the emitted stream as JSONL")
    adv.set_defaults(func=cmd_adversary)

    red = sub.add_parser("reduce", help="round an interval instance to 2-value")
    red.add_argument("--in", dest="infile", required=True)
    red.add_argument("--out", required=True)
    red.set_defaults(func=cmd_reduce)

    ver = sub.add_parser("verify", help="run the acceptance suite")
    ver.add_argument("--tests")
    ver.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except InstanceFormatError as e:
        print(f"malformed instance: {e}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # Python's SIGPIPE recipe: point stdout at devnull, so that the
        # flush at exit does not fail again on the output still buffered
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
