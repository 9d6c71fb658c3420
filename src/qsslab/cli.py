"""Command-line entry point: scenario execution, sweeps, fixture verification.

Scenario configs are JSON with three sections (``protocol``, ``attack``,
``run``); complex numbers are written as [re, im] pairs and unknown keys are
rejected. Exit codes: 0 success, 1 invalid config or command line, 2
unexpected detection failure, 3 internal invariant violation.

``--out`` is opened once, after the scenario and the options are checked and
before any trial or sweep runs, and the output is written through that one
handle. The open truncates nothing: a file already there keeps its bytes
until the output replaces them, so a command that fails after the open
leaves it byte for byte as it was, and removes the file if its own open
created it.

``main(argv)`` may be called any number of times in one process: the parser
is built on the first call and reused, and each call picks its command's
handler by name when it runs.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import stat
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .analysis import (
    SweepGrid,
    helstrom_bound,
    indistinguishability,
    monte_carlo,
    run_batch,
    run_batches,
    summarize,
    sweep,
    sweep_table,
)
from .attack import (
    ENCODING_SHIFT,
    EntanglerSpec,
    EntanglingAdversary,
    GuessRule,
    build_entanglers,
    qgwz_spec,
    random_entangler_spec,
)
from .protocol import (
    CONFIG_KEYS,
    BatchResult,
    ConfigError,
    ProtocolConfig,
    as_integer,
    as_number,
    as_tuple,
    encode_message,
    run_protocol_batch,
    with_seed,
)
from .quantum import (
    MINUS_I_SIGMA_Y,
    InvariantError,
    State,
    basis_state,
    canonical_angle,
    rotate_photons,
    rotation_operator,
)
from .transcript import render_transcripts

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DETECTION = 2
EXIT_INVARIANT = 3


def _section(doc: dict, key: str, default=None) -> dict:
    value = doc.get(key, default)
    if not isinstance(value, dict):
        raise ConfigError(f"{key!r} section must be an object, got {value!r}")
    return value


def _complex_from_pair(value, key: str) -> complex:
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ConfigError(f"{key}: expected a [re, im] pair, got {value!r}")
    return complex(as_number(value[0], key), as_number(value[1], key))


def _state_from_pairs(value, key: str) -> State:
    amps = np.array(as_tuple(value, key, _complex_from_pair), dtype=complex)
    try:
        return State(amps)
    except (InvariantError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}")


def _check_keys(section: dict, allowed, name: str) -> None:
    unknown = section.keys() - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {name!r} section: {', '.join(sorted(unknown))}")


# Each key of a ``run.sweep`` section, with the SweepGrid field it sets.
SWEEP_FIELDS = {"theta_prime": "theta_prime_values", "alpha_sq": "alpha_sq_values",
                "theta": "theta_values", "ancilla_dim": "ancilla_dim"}


def _build(cls, fields: dict[str, str], section: dict, name: str, required: tuple[str, ...]):
    """``cls`` built from section ``name``'s values as given, each key mapped to its
    field by ``fields``; the ConfigError of ``cls`` gets ``name`` as a prefix."""
    _check_keys(section, fields, name)
    for key in required:
        if key not in section:
            raise ConfigError(f"{name}: missing required key {key!r}")
    try:
        return cls(**{fields[key]: value for key, value in section.items()})
    except ConfigError as exc:
        raise ConfigError(f"{name}: {exc}") from None


@dataclass
class Scenario:
    protocol: ProtocolConfig
    entangler: EntanglerSpec | None
    rule: GuessRule
    trials: int
    grid: SweepGrid | None


def parse_scenario(doc: dict) -> Scenario:
    """Check a scenario document and build its Scenario; ConfigError if malformed.

    The JSON side is checked here: sections, their keys, and the lists of
    [re, im] pairs of amplitudes. ``ProtocolConfig``, ``SweepGrid`` and
    ``GuessRule`` get their values as given, and check their types and
    values and fill in their defaults themselves.
    """
    if not isinstance(doc, dict):
        raise ConfigError("top-level config must be an object")
    _check_keys(doc, {"protocol", "attack", "run"}, "top-level")

    if "protocol" not in doc:
        raise ConfigError("missing required section 'protocol'")
    config = _build(ProtocolConfig, CONFIG_KEYS, _section(doc, "protocol"), "protocol",
                    ("agents",))

    attack = _section(doc, "attack", {"kind": "none"})
    _check_keys(
        attack,
        {"kind", "ancilla_state", "epsilon", "epsilon_perp", "alpha", "beta",
         "theta_prime", "guess_rule"},
        "attack",
    )
    kind = attack.get("kind", "none")
    if kind not in ("none", "qgwz", "general"):
        raise ConfigError(f"attack.kind must be none|qgwz|general, got {kind!r}")
    try:
        if kind == "qgwz":
            ancilla = attack.get("ancilla_state")
            if ancilla is None:
                raise ConfigError("attack: qgwz kind requires 'ancilla_state'")
            entangler = qgwz_spec(_state_from_pairs(ancilla, "attack.ancilla_state"))
        elif kind == "general":
            for key in ("epsilon", "epsilon_perp", "alpha", "beta", "theta_prime"):
                if key not in attack:
                    raise ConfigError(f"attack: general kind requires '{key}'")
            entangler = EntanglerSpec(
                epsilon=_state_from_pairs(attack["epsilon"], "attack.epsilon"),
                epsilon_perp=_state_from_pairs(attack["epsilon_perp"], "attack.epsilon_perp"),
                alpha=_complex_from_pair(attack["alpha"], "attack.alpha"),
                beta=_complex_from_pair(attack["beta"], "attack.beta"),
                theta_prime=as_number(attack["theta_prime"], "attack.theta_prime"),
            )
        else:
            entangler = None
    except InvariantError as exc:
        raise ConfigError(f"attack: {exc}")

    rule = GuessRule()
    if "guess_rule" in attack:
        pair = attack["guess_rule"]
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise ConfigError("attack.guess_rule must be a [eps_bit, eps_perp_bit] pair")
        try:
            rule = GuessRule(*pair)
        except ConfigError as exc:
            raise ConfigError(f"attack.guess_rule: {exc}") from None

    run = _section(doc, "run", {})
    _check_keys(run, {"trials", "sweep"}, "run")
    trials = as_integer(run.get("trials", 100), "run.trials", minimum=1)
    grid = None
    if "sweep" in run:
        grid = _build(SweepGrid, SWEEP_FIELDS, _section(run, "sweep"), "run.sweep",
                      ("theta_prime", "alpha_sq", "theta"))
    return Scenario(config, entangler, rule, trials, grid)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: line {exc.lineno}: {exc.msg}")
    return parse_scenario(doc)


class _OutFile:
    """The ``--out`` file of one command, or nothing without a path.

    The path is opened once, before the command's work, so a path that cannot
    take the output is a config error before any trial or sweep runs. The
    open truncates nothing: a file that was there keeps its bytes until
    ``write`` replaces them. A command that fails before then leaves such a
    file as it was, and removes the file if its own open created it.
    """

    def __init__(self, path: str | None):
        self.path = path
        self.fh = None
        self.created = self.written = False
        if path is None:
            return
        try:
            try:
                self.fh, self.created = open(path, "x"), True
            except FileExistsError:
                self.fh = open(path, "a")
        except OSError as exc:
            raise ConfigError(f"--out {path}: {exc.strerror}")

    def __enter__(self) -> _OutFile:
        return self

    def write(self, chunks: Iterable[str]) -> None:
        """Replace the file's bytes with ``chunks``, written in order, and close it."""
        if self.fh is None:
            return
        try:
            with self.fh:
                fd = self.fh.fileno()
                # A device or a pipe takes the text as it is; only a regular
                # file has old bytes to drop.
                if not self.created and stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, 0)
                self.fh.writelines(chunks)
        except OSError as exc:
            raise ConfigError(f"--out {self.path}: {exc.strerror}")
        self.written = True

    def __exit__(self, *exc_info) -> None:
        if self.fh is None:
            return
        self.fh.close()
        if self.created and not self.written:
            # Cleanup must not hide the error that ended the command.
            with contextlib.suppress(OSError):
                os.remove(self.path)


def _check_out_is_no_transcript(out: _OutFile, directory: str, trials: int) -> None:
    """Refuse an open ``--out`` file that is a transcript the campaign writes:
    by its path, through a symbolic link either way, or as a hard link."""
    opened = os.fstat(out.fh.fileno())
    with os.scandir(directory) as entries:
        for entry in entries:
            trial = re.fullmatch("trial_([0-9]{5}|[1-9][0-9]{5,})[.]log", entry.name)
            if not trial or int(trial[1]) >= trials:
                continue
            try:
                same = os.path.samestat(entry.stat(), opened)
            except OSError:
                # An entry that cannot be stat'ed, such as a dangling link,
                # is not the open --out file.
                continue
            if same:
                raise ConfigError(f"--out {out.path} is the transcript of trial {int(trial[1])}")


def _write_transcripts(
    batches: Iterable[BatchResult], directory: str
) -> Iterator[BatchResult]:
    """Pass batches through, writing the transcript of each of their runs to
    trial_{i:05d}.log. Transcripts are rendered from the batch's arrays one
    run at a time (``render_transcripts``), so one is held at once."""
    first = 0
    for batch in batches:
        for i, transcript in enumerate(render_transcripts(batch), first):
            path = os.path.join(directory, f"trial_{i:05d}.log")
            try:
                with open(path, "w") as fh:
                    fh.write(transcript.serialize())
            except OSError as exc:
                raise ConfigError(f"--transcripts {path}: {exc.strerror}")
        first += len(batch)
        yield batch


def cmd_run(args) -> tuple[int, list[str]]:
    scenario = load_scenario(args.config)
    config = scenario.protocol
    if args.seed is not None:
        config = with_seed(config, args.seed)
    trials = scenario.trials
    if args.trials is not None:
        trials = as_integer(args.trials, "--trials", minimum=1)
    with _OutFile(args.out) as out:
        if args.transcripts is not None:
            try:
                os.makedirs(args.transcripts, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"--transcripts {args.transcripts}: {exc.strerror}")
            if args.out is not None:
                _check_out_is_no_transcript(out, args.transcripts, trials)

        batches = run_batches(config, scenario.entangler, scenario.rule, trials)
        if args.transcripts is not None:
            batches = _write_transcripts(batches, args.transcripts)
        report = summarize(config, scenario.entangler, batches)

        if args.format == "json-lines":
            text = report.to_json_line() + "\n"
        elif args.format == "csv":
            text = report.to_csv()
        else:
            text = report.to_text()
        out.write([text])

    if report.first_detection_pass_rate < 1.0:
        # Every supported attack kind escapes detection; a failure here means
        # the honest expectation was violated.
        return EXIT_DETECTION, [text]
    return EXIT_OK, [text]


DEFAULT_GRID = SweepGrid(
    theta_prime_values=tuple(float(v) for v in np.linspace(0.0, 3 * np.pi / 2, 5)),
    alpha_sq_values=(0.0, 0.25, 0.5, 0.75, 1.0),
    theta_values=tuple(float(v) for v in np.linspace(0.0, 2 * np.pi, 5, endpoint=False)),
)


def cmd_sweep(args) -> tuple[int, Iterator[str]]:
    scenario = load_scenario(args.config)
    with _OutFile(args.out) as out:
        grid = scenario.grid or DEFAULT_GRID
        # Formatted as it is written, after the sweep: a failed sweep leaves --out as it was.
        table = sweep_table(grid, sweep(grid))
        out.write(table)
    return EXIT_OK, table


@dataclass(frozen=True)
class Fixture:
    """One checked identity: the worst value computed and its tolerance."""

    name: str
    value: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.value <= self.tolerance


def _bell() -> State:
    return State(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))


def _worst_born_deviation(*probabilities: np.ndarray) -> float:
    """max |1 - p| over the probabilities of outcomes that must be certain."""
    return max(float(np.abs(1.0 - p).max(initial=0.0)) for p in probabilities)


def _criterion_1() -> list[Fixture]:
    """1000 seeded honest runs (3-5 agents, 32-bit messages, continuous
    angles): both detections pass, every message decodes exactly, and every
    measurement is deterministic."""
    detection_failures = wrong_bits = 0
    worst = 0.0
    # Seed s runs with 3 + s % 3 agents: one batch per agent count.
    for extra in range(3):
        config = ProtocolConfig(
            num_agents=3 + extra,
            message_length=32,
            check_fraction_first=0.5,
            num_second_checks=4,
            angle_distribution="uniform",
        )
        batch = run_protocol_batch(config, range(extra, 1000, 3))
        detection_failures += np.count_nonzero(batch.check_outcomes)
        detection_failures += np.count_nonzero(batch.check_mismatched)
        messages = batch.messages[batch.live]
        decoded = batch.decoded_payload[batch.is_message].reshape(messages.shape)
        wrong_bits += np.count_nonzero(decoded != messages)
        worst = max(worst, _worst_born_deviation(
            batch.check_probabilities, batch.recovery_probabilities
        ))
    return [
        Fixture("honest-detection-failures", detection_failures, 0),
        Fixture("honest-decoding-errors", wrong_bits, 0),
        Fixture("honest-born-deviation", worst, 1e-12),
    ]


def _criterion_2() -> list[Fixture]:
    """100 random entanglers (ancilla dim 2/4/8) x 20 random photon angles;
    the entanglers of each dimension are one stack."""
    rng = np.random.default_rng(20260823)
    specs, thetas = [], []
    for i in range(100):
        specs.append(random_entangler_spec(rng, ancilla_dim=(2, 4, 8)[i % 3]))
        thetas.append(rng.uniform(0.0, 2 * np.pi, 20))
    stacks = [build_entanglers(specs[i::3]) for i in range(3)]
    inv_err = max(float(np.abs(e.conj().swapaxes(-1, -2) @ e - np.eye(e.shape[-1])).max())
                  for e in stacks)
    max_td = float(indistinguishability(specs, thetas).max())
    return [
        Fixture("ancilla-indistinguishability", max_td, 1e-10),
        # The bound is monotone in the trace distance, rounding included.
        Fixture("helstrom-bound", helstrom_bound(max_td), 0.5 + 5e-11),
        Fixture("entangler-inverse", inv_err, 1e-10),
    ]


# The controlled-controlled -i*sigma_y circuit of the special case on
# (ancilla pair, photon), as its 8 x 8 matrix: -i*sigma_y on the photon where
# both ancilla qubits are 1, the identity elsewhere.
CCY_CIRCUIT = (
    np.kron(np.diag([1.0, 1.0, 1.0, 0.0]), np.eye(2))
    + np.kron(np.diag([0.0, 0.0, 0.0, 1.0]), MINUS_I_SIGMA_Y)
)


def _attacker_factor(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The attacker-held pair of each (ancilla pair, photon) row of ``rows``
    (n, 8), and its leading Schmidt weight, from one batched SVD that splits
    the photon off; ``InvariantError`` if a row carries residual
    entanglement."""
    u, s, _ = np.linalg.svd(rows.reshape(len(rows), 4, 2))
    weights = s[:, 0]
    if np.any(weights < 1.0 - 1e-8):
        raise InvariantError(f"state is not a product (leading Schmidt weight {weights.min()})")
    return u[:, :, 0], weights


def _criterion_3() -> list[Fixture]:
    """The special attack at 29 photon angles, run on the engine's row
    kernels: the pair h_t and the photon U(theta)|0> go through
    ``CCY_CIRCUIT``, a later agent's rotation R(phi), the encoding of bit 1,
    and the circuit's inverse. The photon splits off, and the pair comes
    back as h_t for both bits: it carries no information about the bit."""
    ht = 0.5 * np.array([1.0, -1.0, 1.0, 1.0], dtype=complex)  # |00>-|01>+|10>+|11>
    rng = np.random.default_rng(3)
    thetas = np.array([0.0, np.pi / 4, np.pi / 2, np.pi] + list(rng.uniform(0, 2 * np.pi, 25)))
    # A later agent's angles, from their own generator: the thetas stay as drawn.
    phis = np.random.default_rng(33).uniform(0, 2 * np.pi, len(thetas))
    rows = rotate_photons(np.tile(np.kron(ht, [1.0, 0.0]), (len(thetas), 1)), thetas)
    rows = rotate_photons(rows @ CCY_CIRCUIT.T, phis)
    # A row times the conjugate of the circuit is the circuit's inverse on it.
    pair0, weight0 = _attacker_factor(rows @ CCY_CIRCUIT.conj())
    encoded = encode_message(rows, np.ones(len(rows), dtype=int))
    pair1, weight1 = _attacker_factor(encoded @ CCY_CIRCUIT.conj())
    overlaps = np.abs(np.sum(pair0.conj() * pair1, axis=1))
    weights = np.concatenate([weight0, weight1])
    prepared = np.abs(np.concatenate([pair0, pair1]) @ ht.conj())
    return [
        Fixture("attacker-factor-overlap", 1.0 - float(overlaps.min()), 1e-12),
        Fixture("HT-norm", float(np.abs(weights - 1.0).max()), 1e-12),
        Fixture("HT-overlap", float(np.abs(prepared - 1.0).max()), 1e-12),
    ]


def _criterion_4() -> list[Fixture]:
    """The adaptive announcement passes 1000 first detections with
    certainty; the non-adaptive control fails per check photon at
    |beta|^2 sin^2(theta'), over 1e5 check photons."""
    spec = qgwz_spec(_bell())
    config = ProtocolConfig(
        num_agents=3, message_length=4, check_fraction_first=0.5, num_second_checks=0,
    )
    adaptive = run_protocol_batch(
        config, range(1000), lambda rngs: EntanglingAdversary(spec, rngs, adaptive=True)
    )
    # A 0.8/0.6 superposition with a generic rotation, so the expected
    # per-check failure rate is neither 0 nor 1/2.
    naive = EntanglerSpec(basis_state(1, 0), basis_state(1, 1), 0.8, 0.6, 1.1)
    expected = abs(naive.beta) ** 2 * np.sin(naive.theta_prime) ** 2
    config = ProtocolConfig(
        num_agents=2, message_length=250, check_fraction_first=0.8, num_second_checks=0,
    )
    # 100 runs x 1000 check photons = 1e5 samples.
    outcomes = run_protocol_batch(
        config, range(10_000, 10_100),
        lambda rngs: EntanglingAdversary(naive, rngs, adaptive=False),
    ).check_outcomes
    sigma = np.sqrt(expected * (1 - expected) / outcomes.size)
    return [
        Fixture("adaptive-detection-failures", np.count_nonzero(adaptive.check_outcomes), 0),
        Fixture("adaptive-born-deviation",
                _worst_born_deviation(adaptive.check_probabilities), 1e-10),
        Fixture("naive-failure-rate-sigma", float(abs(outcomes.mean() - expected) / sigma), 4),
        Fixture("naive-sample-count-error", abs(outcomes.size - 100_000), 0),
    ]


def _criterion_5() -> list[Fixture]:
    """The adaptive attack's guesses of 10^4 uniformly random message bits,
    for three guess rules: accuracy 1/2 within 0.02, no bit left unguessed."""
    spec = qgwz_spec(_bell())
    config = ProtocolConfig(
        num_agents=3, message_length=500, check_fraction_first=0.5,
        num_second_checks=0, seed=55,
    )
    fixtures = []
    first_detection_failures = 0
    for rule in (GuessRule(0, 1), GuessRule(1, 0), GuessRule(1, 1)):
        report = monte_carlo(config, attack=spec, rule=rule, trials=20)
        first_detection_failures += round(report.trials * (1 - report.first_detection_pass_rate))
        # No accuracy when no bit was guessed: then no bound holds.
        accuracy = report.attacker_accuracy
        fixtures.append(Fixture(
            f"guess-accuracy-{rule.eps_bit}{rule.eps_perp_bit}",
            np.inf if accuracy is None else abs(accuracy - 0.5), 0.02,
        ))
    return fixtures + [Fixture("guess-first-detection-failures", first_detection_failures, 0)]


def _criterion_6() -> list[Fixture]:
    """Rotation identities over 1000 angle pairs, the encoding over 100 angles."""
    rng = np.random.default_rng(6)
    max_add = max_comm = 0.0
    for _ in range(1000):
        a, b = rng.uniform(0.0, 2 * np.pi, size=2)
        ua, ub = rotation_operator(a), rotation_operator(b)
        max_add = max(max_add, float(np.max(np.abs(ua @ ub - rotation_operator(a + b)))))
        max_comm = max(max_comm, float(np.linalg.norm(ua @ ub - ub @ ua)))
    # U(theta)|0> encoded as encode_message does it, against U(theta + ENCODING_SHIFT)|0>.
    thetas = rng.uniform(0.0, 2 * np.pi, size=100)
    photons = np.tile(np.array([1, 0], dtype=complex), (len(thetas), 1))
    encoded = encode_message(rotate_photons(photons, thetas), np.ones(len(thetas), dtype=int))
    shifted = rotate_photons(photons, thetas + ENCODING_SHIFT)
    worst = float(np.abs(np.sum(encoded.conj() * shifted, axis=1)).min())
    # The canonicalized special-case angle reproduces the encoding rotation.
    qg = qgwz_spec(_bell())
    return [
        Fixture("rotation-additivity", max_add, 1e-12),
        Fixture("rotation-commutation", max_comm, 1e-12),
        Fixture(
            "encoding-matrix",
            float(np.max(np.abs(rotation_operator(ENCODING_SHIFT) - MINUS_I_SIGMA_Y))),
            1e-15,
        ),
        Fixture("encode-angle", 1.0 - worst, 1e-12),
        Fixture(
            "qgwz-theta-prime",
            abs(qg.theta_prime - canonical_angle(np.pi / 2))
            + float(np.max(np.abs(rotation_operator(qg.theta_prime) - MINUS_I_SIGMA_Y))),
            1e-12,
        ),
    ]


def _criterion_7() -> list[Fixture]:
    """The derived entangler against the controlled-controlled -i*sigma_y
    circuit on 100 random (ancilla, photon) inputs, which go through one
    stack of entanglers. Every completion of E acts alike here, because
    each input is |eps> (x) chi, where E is pinned. The inputs are
    normalized with elementwise sums and both products are ``np.einsum``
    without ``optimize``, so no BLAS kernel picks the bits."""
    # Per input: the ancilla's real and imaginary parts, then the photon's.
    draws = np.random.default_rng(7).normal(size=(100, 12))
    ancillas, photons = (
        v / np.sqrt((v.real**2 + v.imag**2).sum(axis=1))[:, None]
        for v in (draws[:, :4] + 1j * draws[:, 4:8], draws[:, 8:10] + 1j * draws[:, 10:])
    )
    specs = [qgwz_spec(State(anc)) for anc in ancillas]
    # Both realize the same physical joint state: the entangler acts on the
    # attacker's |eps> (x) photon input, the circuit on the full prepared
    # ancilla (x) photon input; the resulting amplitudes must coincide.
    epsilons = np.stack([spec.epsilon.amps for spec in specs])
    kept = (epsilons[:, :, None] * photons[:, None, :]).reshape(len(specs), -1)
    prepared = (ancillas[:, :, None] * photons[:, None, :]).reshape(kept.shape)
    via_entangler = np.einsum("sij,sj->si", build_entanglers(specs), kept, optimize=False)
    via_circuit = np.einsum("ij,sj->si", CCY_CIRCUIT, prepared, optimize=False)
    return [Fixture("entangler-vs-circuit", float(np.abs(via_entangler - via_circuit).max()),
                    1e-10)]


def _mismatches(first: list[bytes], second: list[bytes]) -> int:
    """How many entries of two renderings differ, a missing entry included."""
    return sum(a != b for a, b in zip(first, second)) + abs(len(first) - len(second))


def _criterion_8() -> list[Fixture]:
    """Byte mismatches between two renderings of the same (config, seed):
    a transcript, a report, a campaign's trial logs, and the report of the
    trials folded in reverse order."""
    spec = qgwz_spec(_bell())
    config = ProtocolConfig(
        num_agents=4, message_length=16, check_fraction_first=0.5,
        num_second_checks=2, seed=88,
    )

    def transcript() -> list[bytes]:
        batch = run_protocol_batch(
            config, [config.seed], lambda rngs: EntanglingAdversary(spec, rngs)
        )
        return [next(render_transcripts(batch)).serialize().encode()]

    def report() -> list[bytes]:
        return [monte_carlo(config, attack=spec, trials=8).to_json_line().encode()]

    def trial_logs() -> list[bytes]:
        return [t.serialize().encode() for b in run_batches(config, spec, GuessRule(), 8)
                for t in render_transcripts(b)]

    serial = report()
    reversed_fold = summarize(
        config, spec, reversed([run_batch(config, [i], spec, GuessRule()) for i in range(8)])
    )
    return [
        Fixture("transcript-replay", _mismatches(transcript(), transcript()), 0),
        Fixture("report-replay", _mismatches(serial, report()), 0),
        Fixture("trial-log-replay", _mismatches(trial_logs(), trial_logs()), 0),
        Fixture("reversed-fold", _mismatches([reversed_fold.to_json_line().encode()], serial), 0),
    ]


# The fixture table: the acceptance criteria 1 to 8, each a group of checked
# values. `qsslab verify` runs every group, and tests/test_acceptance.py
# asserts each criterion from its group, so the configs, seeds, run counts
# and tolerances of the contract are set here alone. A group does its work
# only when it is called.
FIXTURES = {
    1: _criterion_1,
    2: _criterion_2,
    3: _criterion_3,
    4: _criterion_4,
    5: _criterion_5,
    6: _criterion_6,
    7: _criterion_7,
    8: _criterion_8,
}


def cmd_verify(args) -> tuple[int, list[str]]:
    lines = []
    failures = 0
    for criterion, group in FIXTURES.items():
        for fx in group():
            status = "PASS" if fx.passed else "FAIL"
            failures += not fx.passed
            lines.append(
                f"{status} {fx.name} (criterion {criterion}): "
                f"value={fx.value:.17g} tolerance={fx.tolerance:.12g} "
                f"margin={fx.tolerance - fx.value:.3e}\n"
            )
    if failures:
        return EXIT_INVARIANT, lines + [f"{failures} fixture(s) failed\n"]
    return EXIT_OK, lines + ["all fixtures passed\n"]


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are config errors (exit code 1):
    argparse's own exit code 2 means a failed detection here. Subcommand
    parsers are built with the same class."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it.
    It holds no handlers: ``main`` picks one by command name when it runs."""
    parser = _Parser(
        prog="qsslab",
        description="Quantum secret sharing protocol and entangling-attack laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a Monte Carlo scenario")
    run.add_argument("config", help="path to a JSON scenario config")
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument("--trials", type=int, default=None, help="override the trial count")
    run.add_argument("--out", default=None, help="write the report here (default stdout)")
    run.add_argument(
        "--format", choices=("json-lines", "csv", "text"), default="text",
        help="report output format",
    )
    run.add_argument(
        "--transcripts", default=None, metavar="DIR",
        help="also write one transcript log per trial into DIR",
    )

    sw = sub.add_parser("sweep", help="sweep entangler parameters, tabulating trace distances")
    sw.add_argument("config", help="path to a JSON scenario config")
    sw.add_argument("--out", default=None, help="write the table here (default stdout)")

    sub.add_parser("verify", help="run the built-in fixture suite")
    return parser


def _discard_stdout() -> None:
    """Send the rest of stdout, the interpreter's final flush included, to
    devnull: stdout takes no more output, and a flush that failed again at
    exit would print to stderr."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv=None) -> int:
    """Run one command, write its output, a sequence of strings, and return
    its exit code. ``-h``/``--help`` prints usage and exits 0 (``SystemExit``)."""
    try:
        args = build_parser().parse_args(argv)
        # Looked up on every call, so a handler replaced after the parser
        # was built (by a tracer or a test) is the one that runs.
        command = {"run": cmd_run, "sweep": cmd_sweep, "verify": cmd_verify}[args.command]
        code, chunks = command(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    if getattr(args, "out", None) is not None:
        # The command has written its output to the --out file.
        return code
    try:
        for chunk in chunks:
            sys.stdout.write(chunk)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout has exited (`qsslab sweep ... | head -n 1`).
        _discard_stdout()
    except OSError as exc:
        # Stdout took no output (`qsslab sweep ... > /dev/full`).
        _discard_stdout()
        print(f"config error: stdout: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG
    return code


if __name__ == "__main__":
    sys.exit(main())
