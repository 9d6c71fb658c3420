import contextlib
import errno
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsslab import analysis, cli, protocol
from qsslab.cli import (
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_OK,
    FIXTURES,
    Fixture,
    Scenario,
    main,
    parse_scenario,
)
from qsslab.analysis import SweepGrid
from qsslab.attack import GuessRule
from qsslab.protocol import ConfigError, ProtocolConfig
from qsslab.quantum import InvariantError


def honest_doc(**proto):
    base = {
        "protocol": {"agents": 3, "message_length": 8, "check_fraction_first": 0.5,
                     "second_checks": 2, "seed": 5},
        "attack": {"kind": "none"},
        "run": {"trials": 10},
    }
    base["protocol"].update(proto)
    return base


def qgwz_doc():
    doc = honest_doc()
    doc["attack"] = {
        "kind": "qgwz",
        "ancilla_state": [[2**-0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [2**-0.5, 0.0]],
        "guess_rule": [0, 1],
    }
    return doc


def general_doc(dim=2):
    doc = honest_doc()
    zeros = [[0.0, 0.0]] * (dim - 2)
    doc["attack"] = {
        "kind": "general",
        "epsilon": [[1.0, 0.0], [0.0, 0.0]] + zeros,
        "epsilon_perp": [[0.0, 0.0], [1.0, 0.0]] + zeros,
        "alpha": [0.6, 0.0],
        "beta": [0.0, 0.8],
        "theta_prime": 1.3,
    }
    return doc


# The pair |eps> = (1, 1, 1, 1) / 2, |eps_perp> = (1, -1, 1, -1) / 2 with one
# vector's norm^2 raised by a few 1e-10, each State within its own tolerance
# of 2e-10, or with their overlap raised to 0.9e-10.
NEAR_ORTHONORMAL = [("epsilon", 1e-10), ("epsilon", 1.9e-10), ("epsilon_perp", 1e-10),
                    ("epsilon_perp", 1.9e-10), ("overlap", 0.9e-10)]


@pytest.mark.parametrize("which, excess", NEAR_ORTHONORMAL)
def test_near_orthonormal_ancillas_run_or_are_a_config_error(tmp_path, capsys, which, excess):
    # An ancilla pair that the parser accepts builds a unitary entangler or
    # is refused as a config error; the entangler's unitarity check never
    # trips on it in the run (exit 3).
    eps = np.array([1.0, 1.0, 1.0, 1.0]) / 2
    perp = np.array([1.0, -1.0, 1.0, -1.0]) / 2
    if which == "epsilon":
        eps = eps * np.sqrt(1.0 + excess)
    elif which == "epsilon_perp":
        perp = perp * np.sqrt(1.0 + excess)
    else:
        perp = perp + excess * eps
    doc = general_doc(4)
    doc["attack"]["epsilon"] = [[float(a), 0.0] for a in eps]
    doc["attack"]["epsilon_perp"] = [[float(a), 0.0] for a in perp]
    code = main(["run", write(tmp_path, doc), "--trials", "2"])
    err = capsys.readouterr().err
    assert code == EXIT_OK or (code == EXIT_CONFIG and err.startswith("config error: attack: ")), err


def sweep_doc():
    doc = qgwz_doc()
    doc["run"]["sweep"] = {"theta_prime": [0.0, 1.0], "alpha_sq": [0.5], "theta": [0.3],
                           "ancilla_dim": 4}
    return doc


def write(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_parse_honest_scenario():
    s = parse_scenario(honest_doc())
    assert s.protocol.num_agents == 3
    assert s.entangler is None
    assert s.trials == 10


def test_parse_qgwz_scenario():
    s = parse_scenario(qgwz_doc())
    assert s.entangler is not None
    assert abs(s.entangler.beta) == pytest.approx(2**-0.5)


def test_parse_general_scenario():
    s = parse_scenario(general_doc())
    assert s.entangler.theta_prime == pytest.approx(1.3)
    assert s.entangler.beta == pytest.approx(0.8j)


def test_message_length_may_repeat_the_bits_length():
    bits = [1, 0, 1]
    s = parse_scenario(honest_doc(message_bits=bits, message_length=3))
    assert (s.protocol.message_bits, s.protocol.message_length) == ((1, 0, 1), 3)
    # Without message_length the bits alone fix the message.
    doc = honest_doc(message_bits=bits)
    del doc["protocol"]["message_length"]
    assert parse_scenario(doc).protocol.message_bits == (1, 0, 1)


def test_run_report_echoes_the_length_of_the_message_bits(tmp_path):
    doc = honest_doc(message_bits=[1, 0, 1])
    del doc["protocol"]["message_length"]
    out = tmp_path / "report.jsonl"
    assert main(["run", write(tmp_path, doc), "--trials", "2", "--format", "json-lines",
                 "--out", str(out)]) == EXIT_OK
    config = json.loads(out.read_text())["config"]
    assert (config["message_bits"], config["message_length"]) == ([1, 0, 1], 3)


def test_unknown_keys_rejected():
    doc = honest_doc()
    doc["protocol"]["frobnicate"] = 1
    with pytest.raises(Exception, match="frobnicate"):
        parse_scenario(doc)


def test_missing_agents_rejected():
    doc = honest_doc()
    del doc["protocol"]["agents"]
    with pytest.raises(Exception, match="agents"):
        parse_scenario(doc)


def test_cmd_run_honest(tmp_path):
    path = write(tmp_path, honest_doc())
    out = tmp_path / "report.jsonl"
    code = main(["run", path, "--format", "json-lines", "--out", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["recovery_accuracy"] == 1.0
    assert doc["first_detection_pass_rate"] == 1.0


def test_cmd_run_qgwz_report(tmp_path):
    path = write(tmp_path, qgwz_doc())
    out = tmp_path / "report.jsonl"
    code = main(["run", path, "--trials", "20", "--format", "json-lines", "--out", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["max_trace_distance"] <= 1e-10
    assert 0.3 <= doc["attacker_accuracy"] <= 0.7


def test_cmd_run_malformed_config_exit1(tmp_path, capsys):
    doc = honest_doc()
    del doc["protocol"]["agents"]
    code = main(["run", write(tmp_path, doc)])
    assert code == EXIT_CONFIG
    assert "agents" in capsys.readouterr().err


def test_cmd_run_invalid_json_exit1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == EXIT_CONFIG


def test_cmd_run_seed_override_changes_report(tmp_path):
    path = write(tmp_path, honest_doc())
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(["run", path, "--seed", "1", "--format", "json-lines", "--out", str(a)])
    main(["run", path, "--seed", "1", "--format", "json-lines", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    main(["run", path, "--seed", "2", "--format", "json-lines", "--out", str(b)])
    assert json.loads(b.read_text())["seed"] == 2


def test_cmd_run_csv_and_text_formats(tmp_path):
    path = write(tmp_path, honest_doc())
    out = tmp_path / "r.csv"
    assert main(["run", path, "--format", "csv", "--out", str(out)]) == EXIT_OK
    header = out.read_text().splitlines()[0]
    assert header.startswith("trials,attacker_accuracy,ci_low,ci_high")
    out2 = tmp_path / "r.txt"
    assert main(["run", path, "--format", "text", "--out", str(out2)]) == EXIT_OK
    assert "recovery_accuracy" in out2.read_text()


def test_cmd_run_writes_transcripts(tmp_path):
    path = write(tmp_path, honest_doc())
    tdir = tmp_path / "transcripts"
    assert main(["run", path, "--trials", "3", "--transcripts", str(tdir),
                 "--out", str(tmp_path / "r.txt")]) == EXIT_OK
    logs = sorted(tdir.iterdir())
    assert len(logs) == 3
    assert "phase=preparation kind=Prepared" in logs[0].read_text()


def test_cmd_sweep_deterministic(tmp_path):
    doc = qgwz_doc()
    doc["run"]["sweep"] = {"theta_prime": [0.0, 1.0], "alpha_sq": [0.5], "theta": [0.3, 0.6]}
    path = write(tmp_path, doc)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", path, "--out", str(a)]) == EXIT_OK
    assert main(["sweep", path, "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().strip().splitlines()
    assert len(lines) == 5  # header + 4 rows


def grid_doc(theta_primes, alpha_sqs, thetas):
    doc = sweep_doc()
    doc["run"]["sweep"] = {
        "theta_prime": np.linspace(0.0, 4.0, theta_primes).tolist(),
        "alpha_sq": np.linspace(0.0, 1.0, alpha_sqs).tolist(),
        "theta": np.linspace(0.0, 6.0, thetas).tolist(),
        "ancilla_dim": 8,
    }
    return doc


@pytest.mark.parametrize("shape, message", [
    ((3000, 3000, 1), "9000000 specs x 1 theta values make 9000000 grid points, "
                      "more than MAX_SWEEP_POINTS = 1000000"),
    ((1001, 1000, 1), "1001000 specs x 1 theta values make 1001000 grid points, "
                      "more than MAX_SWEEP_POINTS = 1000000"),
    ((100, 100, 101), "10000 specs x 101 theta values make 1010000 grid points, "
                      "more than MAX_SWEEP_POINTS = 1000000"),
])
def test_oversized_sweep_grid_is_a_config_error(shape, message):
    # Refused when the scenario is read, before any entangler is built.
    with pytest.raises(ConfigError) as err:
        parse_scenario(grid_doc(*shape))
    assert str(err.value) == f"run.sweep: {message}"


def test_sweep_grid_at_both_bounds_is_accepted():
    # The points bound is the only one: a sweep builds its entanglers from
    # the grid's values chunk by chunk, so many (theta', alpha^2) pairs cost
    # no more than as many theta values.
    grid = parse_scenario(grid_doc(100, 100, 100)).grid
    n_points = len(grid.theta_prime_values) * len(grid.alpha_sq_values) * len(grid.theta_values)
    assert n_points == analysis.MAX_SWEEP_POINTS


def test_sweep_of_more_than_ten_thousand_specs(tmp_path):
    # 101 x 100 (theta', alpha^2) pairs: more specs than a sweep used to be
    # allowed, at d = 8, one table line each.
    out = tmp_path / "sweep.csv"
    assert main(["sweep", write(tmp_path, grid_doc(101, 100, 1)), "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 101 * 100
    assert max(float(line.split(",")[3]) for line in lines[1:]) <= 1e-10


def test_cmd_sweep_empty_grid_exit1(tmp_path):
    doc = qgwz_doc()
    doc["run"]["sweep"] = {"theta_prime": [], "alpha_sq": [0.5], "theta": [0.3]}
    assert main(["sweep", write(tmp_path, doc)]) == EXIT_CONFIG


@pytest.fixture(scope="module")
def verify_run():
    """The exit code and the stdout of one `qsslab verify`, shared by the
    tests that read its output."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["verify"])
    return code, out.getvalue()


def test_cmd_verify_passes(verify_run, fixture_table):
    # Every acceptance criterion is a group of the table, in order.
    assert list(FIXTURES) == [1, 2, 3, 4, 5, 6, 7, 8]
    code, out = verify_run
    assert code == EXIT_OK
    lines = out.splitlines()
    fixtures = [(criterion, fx) for criterion, group in fixture_table.items() for fx in group]
    expected = [f"PASS {fx.name} (criterion {criterion}):" for criterion, fx in fixtures]
    # One line per table entry, in table order, then the summary.
    assert [line.split(" value=")[0] for line in lines[:-1]] == expected
    assert lines[-1] == "all fixtures passed"
    for line, (_, fx) in zip(lines, fixtures):
        fields = dict(token.split("=") for token in line.split(": ", 1)[1].split(" "))
        # The value reads back exactly, and the margin to the tolerance is shown.
        assert float(fields["value"]) == fx.value
        assert float(fields["margin"]) >= 0
    names = {line.split()[1] for line in lines[:-1]}
    # Every identity that `qsslab verify` has checked stays in the table.
    assert {"rotation-additivity", "encoding-matrix", "encode-angle", "HT-norm", "HT-overlap",
            "entangler-inverse", "ancilla-indistinguishability", "qgwz-theta-prime",
            "honest-decoding-errors", "naive-failure-rate-sigma", "guess-accuracy-01",
            "entangler-vs-circuit", "reversed-fold"} <= names


# sha256 of the whole `qsslab verify` stdout: every value to 17 significant
# digits, so any change in the bits a fixture computes shows here.
VERIFY_STDOUT_SHA256 = "9071fc32bd063a36eaa26ac044973ceb6551955fcd68aac39b90fdd147816053"


def test_cmd_verify_stdout_bytes(verify_run):
    code, out = verify_run
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_STDOUT_SHA256


def test_cmd_verify_refuses_entangled_attacker_fixture(capsys, monkeypatch):
    # Criterion 3 runs the special attack through cli.CCY_CIRCUIT and splits
    # the photon off each returned row. A controlled-controlled Hadamard does
    # not commute with a later agent's rotation, so the pair comes back
    # entangled with the photon: an invariant violation, not a value.
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    monkeypatch.setattr(cli, "CCY_CIRCUIT", (
        np.kron(np.diag([1.0, 1.0, 1.0, 0.0]), np.eye(2))
        + np.kron(np.diag([0.0, 0.0, 0.0, 1.0]), hadamard)
    ))
    assert main(["verify"]) == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert captured.out == ""
    refusal = re.fullmatch(
        r"invariant violation: state is not a product \(leading Schmidt weight (.*)\)\n",
        captured.err,
    )
    # The worst row's leading Schmidt weight: h_t has weight 3/4 on the
    # branches where the photon ends rotated by R(phi), and 1/4 on |11>,
    # where H R(phi) H = R(-phi) acts instead.
    assert refusal and float(refusal[1]) == pytest.approx(0.87088183, abs=1e-6)


def test_cmd_verify_fails_a_broken_campaign(capsys, monkeypatch):
    # An engine that encodes no message bit: the honest campaign of
    # criterion 1 decodes wrong bits and fails its second checks, and verify
    # says so line by line instead of stopping at the first failure.
    monkeypatch.setattr(protocol, "encode_message", lambda photons, bits: photons.copy())
    assert main(["verify"]) == EXIT_INVARIANT
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines if line.startswith("FAIL ")] == [
        "FAIL honest-detection-failures (criterion 1)",
        "FAIL honest-decoding-errors (criterion 1)",
    ]
    assert lines[-1] == "2 fixture(s) failed"


class ClosedPipe:
    """A stdout whose reader has exited: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_broken_pipe_returns_command_exit_code(tmp_path, capsys, monkeypatch):
    # A failing fixture table makes verify exit 3; a closed pipe must not
    # change that code, print anything on stderr, or raise.
    monkeypatch.setattr(cli, "FIXTURES", {0: lambda: [Fixture("broken", 1.0, 0.0)]})
    with open(tmp_path / "stdout", "w") as sink:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(sink.fileno()))
        assert main(["verify"]) == EXIT_INVARIANT
        # The rest of stdout, the interpreter's final flush included, goes to devnull.
        assert os.path.samestat(os.fstat(sink.fileno()), os.stat(os.devnull))
    assert capsys.readouterr().err == ""


def test_sweep_into_closed_pipe_exits_quietly():
    # `qsslab sweep ... | head -n 1` in a real interpreter: the pipe has no
    # reader when the table is written.
    root = pathlib.Path(__file__).resolve().parents[1]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qsslab.cli", "sweep", str(root / "configs" / "qgwz.json")],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["run", "configs/honest.json", "--trials", "2"],
    ["sweep", "configs/qgwz.json"],
], ids=["run", "sweep"])
def test_stdout_on_full_device_is_a_config_error(argv):
    # `qsslab ... > /dev/full` in a real interpreter: one config error line,
    # and nothing else on stderr, not even at the interpreter's final flush.
    root = pathlib.Path(__file__).resolve().parents[1]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "qsslab.cli", *argv], cwd=root,
            stdout=full, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
    assert (proc.returncode, proc.stderr) == (
        EXIT_CONFIG, f"config error: stdout: {os.strerror(errno.ENOSPC)}\n"
    )


# (scenario, path of the replaced value, value, qsslab command and options).
# Each case must exit 1 with a config error: no traceback, and no run with a
# value other than the one given.
MALFORMED = [
    pytest.param(honest_doc, ("protocol", "agents"), "x", ["run"], id="agents-str"),
    pytest.param(honest_doc, ("protocol", "agents"), None, ["run"], id="agents-null"),
    pytest.param(honest_doc, ("run", "trials"), "many", ["run"], id="trials-str"),
    pytest.param(qgwz_doc, ("attack",), [], ["run"], id="attack-list"),
    pytest.param(honest_doc, ("run",), [], ["run"], id="run-list"),
    pytest.param(sweep_doc, ("run", "sweep"), [], ["sweep"], id="sweep-list"),
    pytest.param(qgwz_doc, ("attack", "guess_rule"), [2, 0], ["run"], id="guess-rule-2"),
    pytest.param(sweep_doc, ("run", "sweep", "theta_prime"), 0.1, ["sweep"], id="sweep-scalar"),
    pytest.param(sweep_doc, ("run", "sweep", "ancilla_dim"), 1, ["sweep"], id="ancilla-dim-1"),
    pytest.param(honest_doc, ("protocol", "seed"), -1, ["run"], id="seed-negative"),
    pytest.param(honest_doc, ("protocol", "message_length"), 2.7, ["run"], id="length-float"),
    pytest.param(honest_doc, ("run", "trials"), 2.9, ["run"], id="trials-float"),
    pytest.param(qgwz_doc, ("attack", "guess_rule"), [0.5, 1], ["run"], id="guess-rule-float"),
    pytest.param(sweep_doc, ("run", "sweep", "ancilla_dim"), 3, ["sweep"], id="ancilla-dim-3"),
    pytest.param(general_doc, ("attack", "theta_prime"), "inf", ["run"], id="theta-prime-inf"),
    pytest.param(general_doc, ("attack", "theta_prime"), "nan", ["run"], id="theta-prime-nan"),
    pytest.param(general_doc, ("attack", "theta_prime"), float("inf"), ["run"],
                 id="theta-prime-infinity"),
    pytest.param(general_doc, ("attack", "alpha"), ["nan", 0], ["run"], id="alpha-nan"),
    pytest.param(sweep_doc, ("run", "sweep", "theta"), ["nan"], ["sweep"], id="sweep-theta-nan"),
    pytest.param(honest_doc, (), None, ["run", "--trials", "0"], id="override-trials-0"),
    pytest.param(honest_doc, (), None, ["run", "--trials", "-2"], id="override-trials-neg"),
    pytest.param(honest_doc, (), None, ["run", "--seed", "-1"], id="override-seed-neg"),
    pytest.param(honest_doc, ("protocol", "message_length"), 1.3816254274368204e+16, ["run"],
                 id="length-huge"),
    pytest.param(honest_doc, ("protocol", "check_fraction_first"), 0.999999999, ["run"],
                 id="check-fraction-near-1"),
    pytest.param(honest_doc, ("protocol", "agents"), 10**12, ["run"], id="agents-huge"),
    # A message_length beside message_bits would be echoed in the report
    # while the run used the bits' length.
    pytest.param(lambda: honest_doc(message_length=500), ("protocol", "message_bits"), [1, 0],
                 ["run"], id="length-disagrees-with-bits"),
    # The ancilla dimension is capped at attack.MAX_ANCILLA_DIM = 8.
    pytest.param(sweep_doc, ("run", "sweep", "ancilla_dim"), 16, ["sweep"], id="ancilla-dim-16"),
    pytest.param(sweep_doc, ("run", "sweep", "ancilla_dim"), 2**40, ["sweep"],
                 id="ancilla-dim-huge"),
    pytest.param(lambda: general_doc(dim=16), (), None, ["run"], id="general-epsilon-16"),
    # Usage errors: argparse would exit 2, which is the failed-detection code.
    pytest.param(honest_doc, (), None, ["run", "--trials", "abc"], id="override-trials-str"),
    pytest.param(honest_doc, (), None, ["run", "--seed", "1.5"], id="override-seed-float"),
    pytest.param(honest_doc, (), None, ["run", "--format", "xml"], id="format-unknown"),
    # No document: the argv is passed as given, with no config path.
    pytest.param(None, (), None, ["run"], id="missing-config"),
    pytest.param(None, (), None, ["bogus"], id="unknown-command"),
    pytest.param(None, (), None, [], id="no-command"),
]


def locate(doc, path):
    """The object or list holding the value at ``path``, and its key there."""
    *parents, last = path
    for key in parents:
        doc = doc[key]
    return doc, last


@pytest.mark.parametrize("make_doc, path, value, argv", MALFORMED)
def test_malformed_input_exit1(tmp_path, capsys, make_doc, path, value, argv):
    if make_doc is not None:
        doc = make_doc()
        if path:
            node, key = locate(doc, path)
            node[key] = value
        argv = [argv[0], write(tmp_path, doc), *argv[1:]]
    # main returns the code of a usage error too, raising no SystemExit.
    code = main(argv)
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("argv", [["-h"], ["run", "--help"]])
def test_help_prints_usage_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: qsslab")


def test_parser_is_built_once_and_dispatch_is_at_call_time(tmp_path, capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    path = write(tmp_path, sweep_doc())
    # This call has built the parser, if no earlier one did.
    assert main(["sweep", path, "--out", str(tmp_path / "s.csv")]) == EXIT_OK
    seen = []

    def fake(args):
        seen.append(args.config)
        return EXIT_OK, "replaced\n"

    monkeypatch.setattr(cli, "cmd_sweep", fake)
    assert main(["sweep", path]) == EXIT_OK
    assert seen == [path]
    assert capsys.readouterr().out == "replaced\n"


def fresh_main(argv, cwd, columns="80"):
    """``qsslab argv`` in a fresh interpreter: (exit code, stdout, stderr)."""
    root = pathlib.Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "qsslab.cli", *argv], cwd=cwd, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src"), "COLUMNS": columns},
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_shared_parser_carries_no_state_between_calls(tmp_path, capsys, monkeypatch):
    # Each call in this process gives the bytes of the same command run in a
    # fresh interpreter, whatever ran before it.
    monkeypatch.setenv("COLUMNS", "80")
    path = write(tmp_path, honest_doc(seed=11))
    calls = [
        ["run", path, "--seed", "5", "--trials", "2", "--out", "a"],
        ["run", path, "--trials", "2", "--out", "b"],
        ["run", path, "--trials", "abc"],
        ["run", path, "--trials", "2", "--out", "c"],
    ]
    here, there = tmp_path / "here", tmp_path / "there"
    here.mkdir()
    there.mkdir()
    monkeypatch.chdir(here)
    codes = []
    for argv in calls:
        codes.append(main(argv))
        assert (codes[-1], *capsys.readouterr()) == fresh_main(argv, there)
    assert codes == [EXIT_OK, EXIT_OK, EXIT_CONFIG, EXIT_OK]
    for name in "abc":
        assert (here / name).read_bytes() == (there / name).read_bytes()
    assert "seed                      5\n" in (here / "a").read_text()
    # The second run takes the file's seed, not the first run's override.
    assert "seed                      11\n" in (here / "b").read_text()
    assert (here / "b").read_bytes() == (here / "c").read_bytes()

    _, help_text, _ = fresh_main(["-h"], there)
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == help_text
    assert help_text.startswith("usage: qsslab")


# (command, options, given tmp_path): output paths that cannot take the
# output. Each must be refused before any trial or sweep runs.
UNUSABLE_OUTPUTS = [
    pytest.param("run", lambda tmp: ["--out", str(tmp / "missing" / "r.txt")], id="run-out-dir"),
    pytest.param("sweep", lambda tmp: ["--out", str(tmp / "missing" / "s.csv")],
                 id="sweep-out-dir"),
    pytest.param("run", lambda tmp: ["--out", str(tmp)], id="run-out-is-dir"),
    pytest.param("run", lambda tmp: ["--out", str(tmp / ("x" * 300 + ".txt"))],
                 id="run-out-name-too-long"),
    pytest.param("sweep", lambda tmp: ["--out", str(tmp / ("x" * 300 + ".csv"))],
                 id="sweep-out-name-too-long"),
    pytest.param("run", lambda tmp: ["--transcripts", write(tmp, {}, "taken.json"),
                                     "--out", str(tmp / "r.txt")], id="transcripts-is-file"),
]


@pytest.mark.parametrize("command, options", UNUSABLE_OUTPUTS)
def test_unusable_output_path_exit1(tmp_path, capsys, monkeypatch, command, options):
    def refuse(*args):
        raise AssertionError("the campaign started before the output path was checked")

    monkeypatch.setattr(cli, "run_batches", refuse)
    monkeypatch.setattr(cli, "sweep", refuse)
    argv = [command, write(tmp_path, sweep_doc() if command == "sweep" else honest_doc()),
            *options(tmp_path)]
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err
    # No report, no directory: the tree is as it was.
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
def test_out_write_failing_after_the_campaign_exit1(tmp_path, capsys):
    # /dev/full opens, so the up-front check passes; writing the report fails.
    argv = ["run", write(tmp_path, honest_doc()), "--trials", "2", "--out", "/dev/full"]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: --out /dev/full: {os.strerror(errno.ENOSPC)}\n"


def test_transcript_write_failing_mid_campaign_exit1(tmp_path, capsys):
    # The second trial's log name is taken by a directory.
    tdir = tmp_path / "transcripts"
    (tdir / "trial_00001.log").mkdir(parents=True)
    out = tmp_path / "r.txt"
    argv = ["run", write(tmp_path, honest_doc()), "--trials", "3", "--transcripts", str(tdir),
            "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    log = tdir / "trial_00001.log"
    assert err == f"config error: --transcripts {log}: {os.strerror(errno.EISDIR)}\n"
    assert (tdir / "trial_00000.log").stat().st_size > 0
    assert not out.exists()


# --out paths that name, each in its own way, the transcript file of trial 1
# of a 3-trial campaign into tdir. Each takes (tmp_path, tdir) and returns
# the path.
def transcript_as_named(tmp, tdir):
    return str(tdir / "trial_00001.log")


def transcript_through_dot(tmp, tdir):
    return f"{tdir}/./trial_00001.log"


def symlink_to_transcript(tmp, tdir):
    (tmp / "link.txt").symlink_to(tdir / "trial_00001.log")
    return str(tmp / "link.txt")


def transcript_symlinks_to_out(tmp, tdir):
    # The transcript entry is a relative link to the --out file.
    log = tdir / "trial_00001.log"
    (tmp / "out.txt").write_bytes(log.read_bytes())
    log.unlink()
    log.symlink_to(os.path.join("..", "out.txt"))
    return str(tmp / "out.txt")


def transcript_hard_links_to_out(tmp, tdir):
    os.link(tdir / "trial_00001.log", tmp / "out.txt")
    return str(tmp / "out.txt")


@pytest.mark.parametrize("out_path", [
    transcript_as_named, transcript_through_dot, symlink_to_transcript,
    transcript_symlinks_to_out, transcript_hard_links_to_out,
])
def test_out_that_is_a_transcript_file_exit1(tmp_path, capsys, monkeypatch, out_path):
    def refuse(*args):
        raise AssertionError("the campaign started before --out was checked")

    monkeypatch.setattr(cli, "run_batches", refuse)
    tdir = tmp_path / "transcripts"
    tdir.mkdir()
    before = b"an earlier report\n" * 50
    (tdir / "trial_00001.log").write_bytes(before)
    out = out_path(tmp_path, tdir)
    argv = ["run", write(tmp_path, honest_doc()), "--trials", "3", "--transcripts", str(tdir),
            "--out", out]
    tree = sorted(tmp_path.rglob("*"))
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: --out {out} is the transcript of trial 1\n"
    assert (tdir / "trial_00001.log").read_bytes() == before
    assert pathlib.Path(out).read_bytes() == before
    assert sorted(tmp_path.rglob("*")) == tree


@pytest.mark.parametrize("out_path", [transcript_as_named, transcript_through_dot])
def test_fresh_out_that_is_a_transcript_file_leaves_no_file(tmp_path, capsys, out_path):
    tdir = tmp_path / "transcripts"
    tdir.mkdir()
    out = out_path(tmp_path, tdir)
    argv = ["run", write(tmp_path, honest_doc()), "--trials", "3", "--transcripts", str(tdir),
            "--out", out]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: --out ")
    assert list(tdir.iterdir()) == []


@pytest.mark.parametrize("name", ["trial_00003.log", "trial_1.log", "report.txt"])
def test_out_beside_the_transcripts_is_written(tmp_path, name):
    # Files in the transcripts directory that a 3-trial campaign never writes.
    tdir = tmp_path / "transcripts"
    tdir.mkdir()
    argv = ["run", write(tmp_path, honest_doc()), "--trials", "3", "--transcripts", str(tdir),
            "--out", str(tdir / name)]
    assert main(argv) == EXIT_OK
    assert (tdir / name).read_text().startswith("trials ")
    assert sorted(p.name for p in tdir.iterdir()) == sorted(
        [name] + [f"trial_{i:05d}.log" for i in range(3)]
    )


def command_doc(command):
    return sweep_doc() if command == "sweep" else qgwz_doc()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_out_is_opened_once_and_never_removed(tmp_path, monkeypatch, command):
    out = str(tmp_path / "out.txt")
    opened, removed = [], []

    def counting_open(file, *args, **kwargs):
        if file == out:
            opened.append(args)
        return open(file, *args, **kwargs)

    class CountingOs:
        """``os`` as qsslab.cli sees it, with removals counted."""

        def __getattr__(self, name):
            return getattr(os, name)

        def remove(self, path, *args, **kwargs):
            removed.append(path)
            return os.remove(path, *args, **kwargs)

        unlink = remove

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    monkeypatch.setattr(cli, "os", CountingOs())
    assert main([command, write(tmp_path, command_doc(command)), "--out", out]) == EXIT_OK
    assert len(opened) == 1
    assert removed == []
    assert os.path.getsize(out) > 0


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_out_replaces_a_longer_file_exactly(tmp_path, command):
    path = write(tmp_path, command_doc(command))
    fresh, old = tmp_path / "fresh.txt", tmp_path / "old.txt"
    old.write_bytes(b"an earlier, longer report\n" * 4000)
    assert main([command, path, "--out", str(fresh)]) == EXIT_OK
    assert main([command, path, "--out", str(old)]) == EXIT_OK
    assert old.read_bytes() == fresh.read_bytes()


def taken_transcript(tmp_path, monkeypatch):
    # The second trial's log name is taken by a directory.
    tdir = tmp_path / "transcripts"
    (tdir / "trial_00001.log").mkdir(parents=True)
    return ["--trials", "3", "--transcripts", str(tdir)]


def failing_kernel(error):
    def setup(tmp_path, monkeypatch):
        def kernel(gram, blocks, thetas):
            raise error

        monkeypatch.setattr(analysis, "_ancilla_distances", kernel)
        return []

    return setup


# (command, failure set-up, exit code or the exception that propagates):
# failures that come after the --out file is opened.
FAILURES_AFTER_OPEN = [
    pytest.param("run", taken_transcript, EXIT_CONFIG, id="run-transcript-taken"),
    pytest.param("run", failing_kernel(InvariantError("injected")), EXIT_INVARIANT,
                 id="run-invariant"),
    pytest.param("sweep", failing_kernel(InvariantError("injected")), EXIT_INVARIANT,
                 id="sweep-invariant"),
    pytest.param("run", failing_kernel(RuntimeError("injected")), RuntimeError,
                 id="run-unexpected"),
    pytest.param("sweep", failing_kernel(RuntimeError("injected")), RuntimeError,
                 id="sweep-unexpected"),
]


@pytest.mark.parametrize("before", [b"an earlier report\n" * 50, None], ids=["existing", "fresh"])
@pytest.mark.parametrize("command, fail, expected", FAILURES_AFTER_OPEN)
def test_failure_after_the_open_leaves_out_as_it_was(
    tmp_path, capsys, monkeypatch, command, fail, expected, before
):
    out = tmp_path / "out.txt"
    if before is not None:
        out.write_bytes(before)
    argv = [command, write(tmp_path, command_doc(command)), *fail(tmp_path, monkeypatch),
            "--out", str(out)]
    if isinstance(expected, int):
        assert main(argv) == expected
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
    else:
        with pytest.raises(expected, match="injected"):
            main(argv)
    if before is None:
        assert not os.path.lexists(out)
    else:
        assert out.read_bytes() == before


@pytest.mark.parametrize("command, doc, options, message", [
    pytest.param("run", {"protocol": {"agents": "x"}}, [],
                 "protocol: num_agents must be an integer, got 'x'", id="run-scenario"),
    pytest.param("sweep", {"protocol": {"agents": "x"}}, [],
                 "protocol: num_agents must be an integer, got 'x'", id="sweep-scenario"),
    pytest.param("run", honest_doc(), ["--trials", "0"], "--trials must be >= 1, got 0",
                 id="run-option"),
])
def test_scenario_and_option_errors_win_over_an_unusable_out(
    tmp_path, capsys, command, doc, options, message
):
    argv = [command, write(tmp_path, doc), *options,
            "--out", str(tmp_path / "missing" / "r.txt")]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "missing").exists()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=8,
)


def value_paths(node, prefix=()):
    """Path of every value nested in ``node``, through objects and lists."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from value_paths(value, prefix + (key,))


@st.composite
def mutated_docs(draw):
    """A valid scenario with one value replaced by arbitrary JSON, or dropped."""
    doc = draw(st.sampled_from([honest_doc, qgwz_doc, general_doc, sweep_doc]))()
    node, key = locate(doc, draw(st.sampled_from(list(value_paths(doc)))))
    if draw(st.booleans()):
        del node[key]
    else:
        node[key] = draw(JSON_VALUES)
    return doc


@settings(max_examples=200, deadline=None)
@given(mutated_docs())
def test_parse_scenario_returns_scenario_or_config_error(doc):
    try:
        scenario = parse_scenario(doc)
    except ConfigError:
        return
    assert isinstance(scenario, Scenario)


# Each type that a scenario section builds, with values for its required fields.
CONFIG_TYPES = {
    ProtocolConfig: {"num_agents": 3},
    SweepGrid: {"theta_prime_values": (0.5,), "alpha_sq_values": (0.5,), "theta_values": (0.1,)},
    GuessRule: {},
}
CONFIG_FIELDS = [
    *((ProtocolConfig, f.name) for f in fields(ProtocolConfig)),
    *((SweepGrid, f.name) for f in fields(SweepGrid)),
    (GuessRule, "eps_bit"),
    (GuessRule, "eps_perp_bit"),
]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CONFIG_FIELDS), JSON_VALUES)
def test_config_types_take_any_json_value_or_raise_config_error(field, value):
    # The library's own boundary: any JSON value in any one field either
    # builds or is refused with a ConfigError, never another exception.
    cls, name = field
    try:
        cls(**{**CONFIG_TYPES[cls], name: value})
    except ConfigError:
        pass
