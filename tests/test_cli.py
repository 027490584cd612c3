import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import fairstream
from fairstream import cli
from fairstream.cli import EXIT_GUARANTEE, EXIT_INPUT, EXIT_OK, EXIT_PIPE, main
from fairstream.jsonl import read_instance


def run_cli(*argv):
    return main(list(argv))


def test_generate_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (a, b):
        assert run_cli("generate", "--gen", "random-2value", "--n", "3", "--m", "15",
                       "--seed", "9", "--out", str(out)) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    # without --out the same bytes go to stdout
    capsys.readouterr()
    assert run_cli("generate", "--gen", "random-2value", "--n", "3", "--m", "15",
                   "--seed", "9") == EXIT_OK
    assert capsys.readouterr().out == a.read_text()


def test_run_with_guarantees_and_outputs(tmp_path):
    inst = tmp_path / "i.jsonl"
    run_cli("generate", "--gen", "random-2value", "--n", "4", "--m", "30",
            "--seed", "3", "--out", str(inst))
    trace = tmp_path / "t.csv"
    report = tmp_path / "r.csv"
    code = run_cli("run", "--alg", "deferred-priority", "--instance", str(inst),
                   "--assert-guarantees", "--trace-out", str(trace),
                   "--report-out", str(report))
    assert code == EXIT_OK
    t_rows = trace.read_text().strip().splitlines()
    r_rows = report.read_text().strip().splitlines()
    assert t_rows[0] == "t,good,allocated_to,as_high,phase,H,L,chi"
    assert len(t_rows) == 31
    assert r_rows[0] == "t,agent,ef,ef1,ef2,prop,mms_value,mms_ratio,envy_out_degree"
    assert len(r_rows) == 1 + 30 * 4  # every step, every agent


@pytest.mark.parametrize("files, option, earlier", [
    (("i.jsonl", "i.jsonl", None), "--trace-out", "--instance"),
    (("i.jsonl", None, "i.jsonl"), "--report-out", "--instance"),
    (("i.jsonl", "out.csv", "out.csv"), "--report-out", "--trace-out"),
    (("i.jsonl", "out.csv", "./sub/../out.csv"), "--report-out", "--trace-out"),
], ids=["trace-over-instance", "report-over-instance", "report-over-trace", "same-resolved"])
def test_run_refuses_two_options_naming_one_file(tmp_path, capsys, monkeypatch, files,
                                                 option, earlier):
    """A run would overwrite its own input, or one output the other: exit 1
    with an `error:` that names both options, and leave the instance as it
    was."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    assert run_cli("generate", "--gen", "random-2value", "--n", "2", "--m", "6",
                   "--out", "i.jsonl") == EXIT_OK
    before = (tmp_path / "i.jsonl").read_bytes()
    argv = ["run", "--alg", "round-robin"]
    for flag, name in zip(("--instance", "--trace-out", "--report-out"), files):
        if name:
            argv += [flag, name]
    capsys.readouterr()
    code = run_cli(*argv)
    captured = capsys.readouterr()
    assert code == EXIT_INPUT and captured.out == ""
    assert captured.err == f"error: {option}: names the same file as {earlier}\n"
    assert (tmp_path / "i.jsonl").read_bytes() == before
    assert not (tmp_path / "out.csv").exists()


def test_run_round_granularity(tmp_path):
    report = tmp_path / "r.csv"
    code = run_cli("run", "--alg", "priority-matching", "--gen", "random-2value",
                   "--n", "3", "--m", "12", "--seed", "1", "--foresight", "2",
                   "--granularity", "round", "--report-out", str(report))
    assert code == EXIT_OK
    rows = report.read_text().strip().splitlines()
    assert len(rows) == 1 + 4 * 3  # four round boundaries, three agents


@pytest.mark.parametrize("gran, m, steps", [
    ("round", 7, 2),  # t = 3 and t = 6; the final allocation at t = 7 is not a boundary
    ("final", 7, 1),
    ("final", 0, 0),  # the header only
    ("step", 7, 7),
])
def test_run_granularity_picks_the_reported_steps(capsys, gran, m, steps):
    assert run_cli("run", "--alg", "round-robin", "--gen", "random-2value", "--n", "3",
                   "--m", str(m), "--granularity", gran) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].startswith("t,agent,") and len(rows) == 1 + 3 * steps
    assert sorted({int(r.split(",")[0]) for r in rows[1:]}) == \
        {"round": [3, 6], "final": [m] if m else [], "step": list(range(1, m + 1))}[gran]


def test_config_errors_exit_one():
    assert run_cli("run", "--alg", "naive-matching", "--gen", "random-2value",
                   "--n", "3", "--m", "4", "--seed", "0") == EXIT_INPUT
    assert run_cli("run", "--alg", "priority-matching", "--gen", "random-2value",
                   "--n", "4", "--m", "8", "--seed", "0") == EXIT_INPUT


@pytest.mark.parametrize("argv", [
    ["run", "--alg", "deferred-priority", "--granularity", "bogus"],
    ["run", "--alg", "deferred-priority", "--n", "abc"],
    ["run", "--gen", "random-2value"],
    ["bogus"],
], ids=["bad-choice", "bad-int", "missing-alg", "unknown-subcommand"])
def test_usage_errors_exit_one_with_the_usage(capsys, argv):
    """argparse would exit 2, which here means a violated guarantee."""
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("usage: fairstream") and "error: " in err


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["run", "--help"]])
def test_help_and_version_exit_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code in (None, EXIT_OK)
    assert capsys.readouterr().out


@pytest.mark.parametrize("n, alphas", [("3", "3,4"), ("2", "3,4,5")],
                         ids=["too-few", "too-many"])
def test_interval_alpha_list_of_the_wrong_length_exits_one(capsys, n, alphas):
    """An --alpha list of neither one nor n entries is bad input: exit 1 with
    an `error:` line that names the alphas, and no traceback."""
    code = run_cli("run", "--alg", "greedy-welfare", "--gen", "interval-random",
                   "--n", n, "--m", "4", "--alpha", alphas)
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert err.startswith("error: ") and "alphas" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, option", [
    (["--gen", "random-2value", "--m", "-3"], "--m"),
    (["--gen", "random-2value", "--bias", "2"], "--bias"),
    (["--gen", "lows-then-highs", "--n", "0"], "--n"),
    (["--gen", "random-2value", "--profiles", "5"], "--profiles"),
    (["--gen", "random-2value", "--profiles", "5:x"], "--profiles"),
    (["--gen", "interval-random", "--alpha", "abc"], "--alpha"),
    (["--gen", "staircase", "--alpha", "x"], "--alpha"),
], ids=["negative-m", "bias-above-one", "no-agents", "profile-without-beta",
        "profile-not-a-number", "interval-alpha-not-a-number", "staircase-alpha-not-a-number"])
def test_bad_generator_option_exits_one_naming_it(capsys, argv, option):
    """A generator option out of range or not a number exits 1 with an
    `error:` line that names the option, neither a silent coercion nor an
    error about something else."""
    code = run_cli("run", "--alg", "round-robin", *argv)
    captured = capsys.readouterr()
    assert code == EXIT_INPUT and captured.out == ""
    assert captured.err.startswith(f"error: {option}: ") and "Traceback" not in captured.err


_UNREAD = [("staircase", ["--m", "5"]), ("staircase", ["--seed", "1"]),
           ("staircase", ["--bias", "0.9"]), ("staircase", ["--profiles", "3:1"]),
           ("lows-then-highs", ["--m", "20"]), ("lows-then-highs", ["--seed", "0"]),
           ("lows-then-highs", ["--bias", "0.9"]), ("lows-then-highs", ["--profiles", "3:1"]),
           ("interval-random", ["--bias", "0.9"]), ("interval-random", ["--profiles", "3:1"]),
           ("random-2value", ["--alpha", "3"])]


@pytest.mark.parametrize("command", ["run", "generate"])
@pytest.mark.parametrize("gen, option", _UNREAD, ids=[f"{g}{o[0]}" for g, o in _UNREAD])
def test_generator_option_the_generator_does_not_read_exits_one(capsys, command, gen, option):
    """An option that the chosen generator does not read is an error that
    names it, not a silent no-op, even at the option's default value."""
    alg = ["--alg", "round-robin"] if command == "run" else []
    code = run_cli(command, *alg, "--gen", gen, "--n", "2", *option)
    captured = capsys.readouterr()
    assert code == EXIT_INPUT and captured.out == ""
    assert captured.err.startswith(f"error: {option[0]}: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("gen", ["staircase", "lows-then-highs"])
def test_generate_writes_the_foresight_of_a_fixed_stream(tmp_path, gen):
    out = tmp_path / "i.jsonl"
    assert run_cli("generate", "--gen", gen, "--n", "2", "--foresight", "3",
                   "--out", str(out)) == EXIT_OK
    assert read_instance(out).foresight == 3


@pytest.mark.parametrize("argv, option", [
    (["--gen", "staircase", "--m", "50", "--bias", "0.9"], "--gen"),
    (["--n", "2"], "--n"), (["--m", "5"], "--m"), (["--seed", "0"], "--seed"),
    (["--bias", "0.3"], "--bias"), (["--alpha", "3"], "--alpha"),
    (["--profiles", "3:1"], "--profiles"),
    # the first in the order of `run --help`, not of the command line
    (["--seed", "1", "--n", "2"], "--n"),
], ids=["gen", "n", "m", "seed", "bias", "alpha", "profiles", "first-in-help-order"])
def test_generator_option_beside_an_instance_exits_one_naming_it(tmp_path, capsys, argv,
                                                                 option):
    """`--instance` reads a file, so a generator option beside it would be
    ignored: it is an error that names the option, even at its default."""
    inst = tmp_path / "i.jsonl"
    assert run_cli("generate", "--gen", "random-2value", "--out", str(inst)) == EXIT_OK
    capsys.readouterr()
    code = run_cli("run", "--alg", "round-robin", "--instance", str(inst), *argv)
    captured = capsys.readouterr()
    assert code == EXIT_INPUT and captured.out == ""
    assert captured.err.startswith(f"error: {option}: ") and "Traceback" not in captured.err


def test_foresight_beside_an_instance_overrides_it(tmp_path):
    """Priority matching needs a lookahead of n - 1 goods, which the file
    lacks and `--foresight` supplies."""
    inst = tmp_path / "i.jsonl"
    assert run_cli("generate", "--gen", "random-2value", "--n", "3", "--m", "12",
                   "--out", str(inst)) == EXIT_OK
    assert run_cli("run", "--alg", "priority-matching", "--instance", str(inst),
                   "--report-out", str(tmp_path / "r.csv")) == EXIT_INPUT
    assert run_cli("run", "--alg", "priority-matching", "--instance", str(inst),
                   "--foresight", "2", "--report-out", str(tmp_path / "r.csv")) == EXIT_OK


@pytest.mark.parametrize("argv", [
    ["run", "--alg", "round-robin", "--gen", "random-2value"],
    ["run", "--alg", "round-robin", "--instance", "INSTANCE"],
    ["generate", "--gen", "random-2value"],
    ["generate", "--gen", "lows-then-highs"],
], ids=["run-gen", "run-instance", "generate", "generate-lows-then-highs"])
def test_negative_foresight_exits_one_naming_it(tmp_path, capsys, argv):
    inst = tmp_path / "i.jsonl"
    assert run_cli("generate", "--gen", "random-2value", "--out", str(inst)) == EXIT_OK
    capsys.readouterr()
    argv = [str(inst) if a == "INSTANCE" else a for a in argv]
    assert run_cli(*argv, "--foresight", "-1") == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --foresight: ") and "Traceback" not in captured.err


def test_known_adversary_without_agents_exits_one_naming_n(capsys):
    assert run_cli("adversary", "--kind", "known", "--alg", "round-robin",
                   "--n", "0") == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: need 1 <= n <= alpha, got n=0")


def test_malformed_instance_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"n":2,"agents":[{"alpha":5,"beta":1},{"alpha":5,"beta":1}],'
                   '"flavor":"two_value","foresight":0}\n{"high":[true,false]}\n'
                   '{"high":[true]}\n')
    assert run_cli("run", "--alg", "round-robin", "--instance", str(bad)) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "line 3" in err


_TWO_VALUE_HEADER = ('{"n":2,"agents":[{"alpha":5,"beta":1},{"alpha":5,"beta":1}],'
                     '"flavor":"two_value","foresight":0}')
_INTERVAL_HEADER = ('{"n":2,"agents":[{"alpha":4.0,"beta":1.0},{"alpha":4.0,"beta":1.0}],'
                    '"flavor":"interval","foresight":0}')


@pytest.mark.parametrize("header, goods, line", [
    (_TWO_VALUE_HEADER, ['{"high":[true,false]}', '{"high":["false","false"]}'], 3),
    (_TWO_VALUE_HEADER, ['{"high":"tt"}'], 2),
    (_TWO_VALUE_HEADER, ['{"high":[1,0]}'], 2),
    (_INTERVAL_HEADER, ['{"values":["3",2]}'], 2),
    (_INTERVAL_HEADER, ['{"values":[true,2]}'], 2),
    (_INTERVAL_HEADER, ['{"values":[2,2]}', '{"values":[2,9]}'], 3),
    (_INTERVAL_HEADER, ['{"values":[NaN,2]}'], 2),
    (_TWO_VALUE_HEADER.replace('"foresight":0', '"foresight":true'), [], 1),
    (_TWO_VALUE_HEADER, ['{"high":[true,false]}', '', '{"high":[true]}'], 4),
], ids=["high-strings", "high-string", "high-ints", "value-string", "value-bool",
        "interval-range-line", "value-nan", "foresight-bool", "blank-line-counted"])
def test_bad_instance_input_exits_one_with_line(tmp_path, capsys, header, goods, line):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([header, *goods]) + "\n")
    assert run_cli("run", "--alg", "round-robin", "--instance", str(bad)) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"malformed instance: line {line}:" in err


def test_adversary_command_emits_replayable_stream(tmp_path, capsys):
    out = tmp_path / "adv.jsonl"
    code = run_cli("adversary", "--kind", "mms", "--alg", "deferred-priority",
                   "--n", "3", "--out-instance", str(out))
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["witness"]["ratio"] == {"num": 1, "den": 5, "float": 0.2}
    inst = read_instance(out)
    assert inst.m == payload["witness"]["step"]
    # replaying the emitted stream reproduces the recorded choices
    from fairstream.deferred_priority import DeferredPriority
    from fairstream.driver import run_online

    assert run_online(DeferredPriority(), inst).choices == payload["choices"]


def test_known_adversary_command(capsys):
    code = run_cli("adversary", "--kind", "known", "--alg", "round-robin", "--n", "3",
                   "--alpha", "4")
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["min_step_mms_ratio"]["num"] == 1
    assert payload["min_step_mms_ratio"]["den"] == 3


def test_reduce_command(tmp_path, capsys):
    src = tmp_path / "interval.jsonl"
    run_cli("generate", "--gen", "interval-random", "--n", "2", "--m", "8",
            "--seed", "5", "--out", str(src))
    out = tmp_path / "proxy.jsonl"
    assert run_cli("reduce", "--in", str(src), "--out", str(out)) == EXIT_OK
    proxy = read_instance(out)
    assert proxy.flavor.value == "two_value"
    meta = json.loads((tmp_path / "proxy.meta.json").read_text())
    assert set(meta) == {"alpha_max", "a_star", "thresholds", "per_agent_alpha"}


def test_ef1_adversary_command(capsys):
    code = run_cli("adversary", "--kind", "ef1-2", "--alg", "greedy-welfare")
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["witness"]["step"] == 2
    assert payload["witness"]["ratio"]["num"] == 0


def test_verify_missing_tests_dir(tmp_path):
    assert run_cli("verify", "--tests", str(tmp_path / "nope.py")) == EXIT_INPUT


def test_run_that_raises_leaves_no_output_file(tmp_path):
    trace, report = tmp_path / "t.csv", tmp_path / "r.csv"
    assert run_cli("run", "--alg", "naive-matching", "--gen", "random-2value",
                   "--n", "3", "--m", "4", "--trace-out", str(trace),
                   "--report-out", str(report)) == EXIT_INPUT
    assert not trace.exists() and not report.exists()


@pytest.mark.parametrize("flag", ["--trace-out", "--report-out"])
@pytest.mark.parametrize("where", ["directory", "missing-directory"])
def test_unwritable_output_path_exits_one(tmp_path, capsys, flag, where):
    out = tmp_path if where == "directory" else tmp_path / "missing" / "out.csv"
    code = run_cli("run", "--alg", "round-robin", "--gen", "random-2value",
                   "--n", "2", "--m", "4", flag, str(out))
    assert code == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "missing").exists()


def test_run_ends_quietly_when_stdout_closes_early():
    """`fairstream run ... | head -1`: the reader takes one line and closes
    the pipe while the report (far larger than a pipe's buffer) is written."""
    env = {**os.environ, "PYTHONPATH": str(Path(fairstream.__file__).resolve().parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "fairstream", "run", "--alg", "deferred-priority",
         "--gen", "random-2value", "--n", "8", "--m", "1000", "--granularity", "step"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert first == b"t,agent,ef,ef1,ef2,prop,mms_value,mms_ratio,envy_out_degree\n"
    assert err == b""
    assert proc.returncode == EXIT_PIPE


def test_generate_ends_quietly_when_stdout_closes_early():
    """`fairstream generate ... | head -c 100`: the reader takes 100 bytes and
    closes the pipe while the instance (far larger than a pipe's buffer) is
    written, and the command exits 141 with nothing on stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(fairstream.__file__).resolve().parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "fairstream", "generate", "--gen", "random-2value",
         "--n", "16", "--m", "5000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.read(100)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert first.startswith(b'{"n":16,"agents":[')
    assert err == b""
    assert proc.returncode == EXIT_PIPE


def test_run_writes_its_outputs_in_bounded_memory(tmp_path, monkeypatch):
    """Once `run_online` returns, writing the trace and report CSVs peaks
    less than 256 KiB above the memory the finished run holds: rows are
    written as they are formed, not joined first (the joined texts took
    about 3.4 MiB here)."""
    held = []
    run_online = cli.run_online

    def run_then_mark(*args, **kwargs):
        trace = run_online(*args, **kwargs)
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return trace

    monkeypatch.setattr(cli, "run_online", run_then_mark)
    trace, report = tmp_path / "t.csv", tmp_path / "r.csv"
    tracemalloc.start()
    try:
        code = run_cli("run", "--alg", "deferred-priority", "--gen", "random-2value",
                       "--n", "16", "--m", "1000", "--granularity", "step",
                       "--assert-guarantees", "--trace-out", str(trace),
                       "--report-out", str(report))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert len(report.read_text().splitlines()) == 1 + 16 * 1000
    assert peak - held[0] < 256 * 1024, (peak - held[0]) // 1024
