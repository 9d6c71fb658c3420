"""Six-phase quantum secret sharing protocol over a simulated channel.

Alice prepares single photons in |0>, routes them through a chain of agents
who each encrypt with a secret random y-rotation, checks a random sample
(first detection), encodes message bits with -i*sigma_y, sends the rest to
the last agent who undoes the accumulated rotation and reads the bits out
(recovery), and finally verifies pre-inserted check bits (second detection).

A dishonest agent is modeled by an adversary hook that may entangle ancilla
qubits with photons in transit. By convention the photon is always the LAST
(least significant) qubit of whatever joint state travels on the channel.

One run holds all its photons in one array of shape (n_photons, D), one row
per photon: D is 2 on an honest channel and 2*d once an adversary has
attached a d-dimensional ancilla. Every phase is a few array operations on
that array, and adversary hooks take and return batches of photons. The
transcript is rendered from the run's recorded outcomes when it is first read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .quantum import (
    MINUS_I_SIGMA_Y,
    apply_photon_op,
    # Not called in this module; kept importable because qssbench/selftest.py
    # checks that the benchmark's tracer patches it here.
    apply_unitary,  # noqa: F401
    canonical_angles,
    check_norms,
    measure_photons_z,
    rotate_photons,
)

PHASES = (
    "preparation",
    "encryption",
    "first-detection",
    "encoding",
    "recovery",
    "second-detection",
)

DISCRETE_ANGLES = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])

# Upper bound on photons x agents in one run: every agent draws one angle per
# photon, and a run holds all its photons (up to 16 amplitudes each) at once.
MAX_RUN_SIZE = 100_000


class ConfigError(Exception):
    """Invalid protocol or scenario configuration."""


class MissingAngleError(Exception):
    """An agent withheld its rotation angles; decoding is refused."""


def agent_name(k: int, num_agents: int) -> str:
    # Bob, Charlie, ... with the final receiver called Zach.
    if k == num_agents - 1:
        return "Zach"
    names = ("Bob", "Charlie", "Dave", "Erin", "Frank", "Grace", "Heidi", "Ivan")
    return names[k] if k < len(names) else f"Agent{k}"


@dataclass(frozen=True)
class ProtocolConfig:
    num_agents: int
    message_length: int = 32
    message_bits: tuple[int, ...] | None = None
    check_fraction_first: float = 0.5
    num_second_checks: int = 4
    angle_distribution: str = "uniform"  # "uniform" or "discrete"
    adversary_position: int | None = None  # defaults to the middle agent
    seed: int = 0

    def validate(self) -> None:
        if self.num_agents < 2:
            raise ConfigError("num_agents must be >= 2 (secret sharing needs >= 2 agents)")
        if self.message_bits is not None:
            if any(b not in (0, 1) for b in self.message_bits):
                raise ConfigError("message_bits must contain only 0/1")
            if len(self.message_bits) < 1:
                raise ConfigError("message_bits must be nonempty")
        elif self.message_length < 1:
            raise ConfigError("message_length must be >= 1")
        if not 0.0 < self.check_fraction_first < 1.0:
            raise ConfigError("check_fraction_first must lie in (0, 1)")
        if self.num_second_checks < 0:
            raise ConfigError("num_second_checks must be >= 0")
        # A run has at most (payload + 1) / (1 - f) photons (see
        # required_sequence_length), so this bounds it before any allocation.
        n_payload = self.payload_length()
        if (n_payload + 1) * self.num_agents > MAX_RUN_SIZE * (1.0 - self.check_fraction_first):
            raise ConfigError(
                f"a run of {self.num_agents} agents, {n_payload} payload photons and check "
                f"fraction {self.check_fraction_first} exceeds {MAX_RUN_SIZE} photons x agents"
            )
        if self.angle_distribution not in ("uniform", "discrete"):
            raise ConfigError(f"unknown angle_distribution {self.angle_distribution!r}")
        pos = self.adversary_position
        if pos is not None and (
            isinstance(pos, bool)
            or not isinstance(pos, (int, float, np.integer, np.floating))
            or (isinstance(pos, (float, np.floating)) and not float(pos).is_integer())
        ):
            raise ConfigError(f"adversary_position must be an integer, got {pos!r}")
        pos = self.default_adversary_position()
        if not 0 <= pos < self.num_agents:
            raise ConfigError(f"adversary_position {pos} out of range")

    def payload_length(self) -> int:
        """Photons left after the first detection: message bits plus second checks."""
        n_bits = self.message_length if self.message_bits is None else len(self.message_bits)
        return n_bits + self.num_second_checks

    def default_adversary_position(self) -> int:
        # An integral float such as 1.0 from a scenario file names an agent;
        # it is indexed as an int and echoed in reports as given.
        if self.adversary_position is not None:
            return int(self.adversary_position)
        return self.num_agents // 2


class Transcript:
    """The rendered key=value lines of one protocol run, one event per line."""

    def __init__(self, text: str):
        self.text = text

    def to_lines(self) -> list[str]:
        return self.text.splitlines()

    def serialize(self) -> str:
        return self.text

    def check_phase_order(self) -> None:
        last = 0
        for line in self.to_lines():
            phase = line.partition(" ")[0].removeprefix("phase=")
            idx = PHASES.index(phase)
            if idx < last:
                raise InvariantPhaseError(
                    f"event in phase {phase!r} after phase {PHASES[last]!r}"
                )
            last = idx

    def __eq__(self, other):
        return isinstance(other, Transcript) and self.text == other.text


class InvariantPhaseError(Exception):
    pass


class AngleLedger:
    """Committed rotation angles: row ``agent``, column ``photon``.

    Angles are stored canonicalized; NaN marks an angle its agent withheld.
    """

    def __init__(self, angles: np.ndarray):
        self.angles = canonical_angles(np.asarray(angles, dtype=float))

    @property
    def num_agents(self) -> int:
        return self.angles.shape[0]

    def get(self, agent: int, photon_ids: np.ndarray) -> np.ndarray:
        """Angles ``agent`` disclosed for ``photon_ids``; refuses if any is missing."""
        out = self.angles[agent, photon_ids]
        missing = np.flatnonzero(np.isnan(out))
        if missing.size:
            photon = np.asarray(photon_ids)[missing[0]]
            raise MissingAngleError(f"agent {agent} disclosed no angle for photon {photon}")
        return out

    def totals(self, photon_ids: np.ndarray) -> np.ndarray:
        """Canonical sum over all agents of the angles of ``photon_ids``."""
        return sum_angles(self.get(agent, photon_ids) for agent in range(self.num_agents))

    def without_agent(self, agent: int) -> "AngleLedger":
        out = AngleLedger(self.angles)
        out.angles[agent] = np.nan
        return out


def sum_angles(angles) -> np.ndarray:
    """Canonical running sum of a sequence of angle vectors, in order."""
    total = 0.0
    for a in angles:
        total = canonical_angles(total + a)
    return total


class NullAdversary:
    """Identity hook: reproduces the honest protocol exactly.

    Every hook takes the ids of a batch of photons and their joint states,
    one row per photon with the photon as the last qubit.
    """

    def on_photon_forward(self, photon_ids: np.ndarray, amps: np.ndarray) -> np.ndarray:
        return amps

    def on_check_announcement(
        self, photon_ids: np.ndarray, honest_angles: np.ndarray, amps: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        return honest_angles, amps

    def on_photon_return(self, photon_ids: np.ndarray, amps: np.ndarray) -> np.ndarray:
        return amps

    def on_finish(self) -> dict[int, int]:
        return {}


@dataclass(frozen=True)
class DetectionVerdict:
    phase: str
    passed: bool
    failed_photons: tuple[int, ...]
    # (photon id, outcome, Born probability of that outcome)
    outcomes: tuple[tuple[int, int, float], ...] = ()


@dataclass(frozen=True)
class RunResult:
    config: ProtocolConfig
    message: tuple[int, ...]
    decoded_message: tuple[int, ...] | None
    first_detection: DetectionVerdict
    second_detection: DetectionVerdict | None
    guesses: dict[int, int]
    message_photon_ids: tuple[int, ...]
    check_positions: tuple[int, ...]
    recovery_probabilities: tuple[float, ...] = ()
    # What the transcript is rendered from, besides the fields above.
    num_photons: int = 0
    announcements: tuple[tuple[float, ...], ...] = ()  # per check photon, per agent
    payload_ids: tuple[int, ...] = ()
    decoded_payload: tuple[int, ...] = ()

    @cached_property
    def transcript(self) -> Transcript:
        return render_transcript(self)


def render_transcript(r: RunResult) -> Transcript:
    """The run's key=value lines, in protocol order, from its recorded outcomes.

    Each phase has line templates with the party names filled in: one
    ``str.format`` or f-string per photon, floats written as ``.17g``.
    """
    names = [agent_name(k, r.config.num_agents) for k in range(r.config.num_agents)]
    receiver = names[-1]
    # Alice sends each photon to the first agent, and each agent rotates it and
    # passes it on. The angle is committed to the ledger but never logged in clear.
    encryption = "\n".join(
        [f"phase=encryption kind=Sent party=Alice photon={{0}} to={names[0]}"] + [
            f"phase=encryption kind=Rotated party={name} photon={{0}}\n"
            f"phase=encryption kind=Sent party={name} photon={{0}} to={dest}"
            for name, dest in zip(names, names[1:] + ["Alice"])
        ]
    )
    # Fields: photon, one announced angle per agent, outcome, probability.
    check = "\n".join(
        ["phase=first-detection kind=AnnouncementRequested party=Alice photon={0}"] + [
            f"phase=first-detection kind=Announced party={name} photon={{0}} angle={{{i}:.17g}}"
            for i, name in enumerate(names, 1)
        ] + [
            "phase=first-detection kind=Measured party=Alice photon={0} basis=Z "
            f"outcome={{{len(names) + 1}}} probability={{{len(names) + 2}:.17g}}"
        ]
    )
    photons = range(r.num_photons)
    lines = [f"phase=preparation kind=Prepared party=Alice photon={j}" for j in photons]
    lines += map(encryption.format, photons)
    first = r.first_detection
    lines += [
        check.format(j, *angles, outcome, prob)
        for (j, outcome, prob), angles in zip(first.outcomes, r.announcements)
    ]
    lines.append(_verdict_line(first))
    if r.second_detection is not None:
        lines += [f"phase=encoding kind=Encoded party=Alice photon={j}" for j in r.payload_ids]
        lines += [
            f"phase=recovery kind=Sent party=Alice photon={j} to={receiver}\n"
            f"phase=recovery kind=Measured party={receiver} photon={j} basis=Z "
            f"outcome={outcome} probability={prob:.17g}"
            for j, outcome, prob in zip(r.payload_ids, r.decoded_payload, r.recovery_probabilities)
        ]
        lines.append(_verdict_line(r.second_detection))
    return Transcript("\n".join(lines) + "\n")


def _verdict_line(verdict: DetectionVerdict) -> str:
    result = "pass" if verdict.passed else "fail"
    failed = ",".join(map(str, verdict.failed_photons)) or "-"
    return f"phase={verdict.phase} kind=Verdict party=Alice result={result} failed={failed}"


def required_sequence_length(n_payload: int, check_fraction: float) -> int:
    """Smallest n with n - ceil(check_fraction * n) == n_payload."""
    n = n_payload
    while n - math.ceil(check_fraction * n) < n_payload:
        n += 1
    return n


def sample_angles(rng: np.random.Generator, distribution: str, shape) -> np.ndarray:
    """Secret rotation angles; row-major order is the draw order."""
    if distribution == "discrete":
        return DISCRETE_ANGLES[rng.integers(0, len(DISCRETE_ANGLES), size=shape)]
    return rng.uniform(0.0, 2 * np.pi, size=shape)


def prepare_sequence(n: int) -> np.ndarray:
    """``n`` photons in |0>, one row each."""
    if n < 1:
        raise ConfigError("cannot prepare an empty photon sequence")
    photons = np.zeros((n, 2), dtype=complex)
    photons[:, 0] = 1.0
    return photons


def encryption_phase(
    photons: np.ndarray,
    config: ProtocolConfig,
    rng: np.random.Generator,
    adversary: NullAdversary,
) -> tuple[np.ndarray, AngleLedger]:
    """Every agent in turn rotates every photon by a fresh secret angle; the
    adversary's forward hook runs right after its own rotation.

    Returns the encrypted photons and the ledger of committed angles.
    """
    n = len(photons)
    # Drawn photon-major, agent-minor: the order of the sequential protocol.
    angles = sample_angles(rng, config.angle_distribution, (n, config.num_agents))
    adv_pos = config.default_adversary_position()
    for k in range(config.num_agents):
        photons = rotate_photons(photons, angles[:, k])
        if k == adv_pos:
            photons = adversary.on_photon_forward(np.arange(n), photons)
    check_norms(photons)
    return photons, AngleLedger(angles.T)


def first_detection(
    photons: np.ndarray,
    ledger: AngleLedger,
    config: ProtocolConfig,
    rng: np.random.Generator,
    adversary: NullAdversary,
) -> tuple[DetectionVerdict, np.ndarray]:
    """Alice checks a random sample: every agent announces its angle for each
    sampled photon, Alice undoes the announced sum and measures Z.

    Returns the verdict and the announced angles, shape (n_checks, n_agents).
    """
    n = len(photons)
    n_checks = math.ceil(config.check_fraction_first * n)
    check_ids = np.sort(rng.choice(n, size=n_checks, replace=False))
    announced = np.array([ledger.get(k, check_ids) for k in range(config.num_agents)])
    adv_pos = config.default_adversary_position()
    announced[adv_pos], checked = adversary.on_check_announcement(
        check_ids, announced[adv_pos], photons[check_ids]
    )
    total = sum_angles(announced)
    checked = rotate_photons(checked, -total)
    check_norms(checked)
    outcomes, probs = measure_photons_z(checked, rng.random(n_checks))
    ids = check_ids.tolist()
    failed = tuple(j for j, o in zip(ids, outcomes.tolist()) if o != 0)
    verdict = DetectionVerdict(
        "first-detection", not failed, failed,
        tuple(zip(ids, outcomes.tolist(), probs.tolist())),
    )
    return verdict, announced.T


def encode_message(photons: np.ndarray, bits: tuple[int, ...]) -> np.ndarray:
    """Alice encodes bit 1 with -i*sigma_y and leaves bit 0 alone."""
    if len(photons) != len(bits):
        raise ConfigError(
            f"message length {len(bits)} does not match {len(photons)} message photons"
        )
    ones = np.asarray(bits, dtype=int) == 1
    out = photons.copy()
    out[ones] = apply_photon_op(photons[ones], MINUS_I_SIGMA_Y)
    return out


def recovery_phase(
    photons: np.ndarray,
    photon_ids: np.ndarray,
    ledger: AngleLedger,
    rng: np.random.Generator,
    adversary: NullAdversary,
) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """The receiver undoes every agent's rotation and reads each bit in Z.

    Returns the decoded bits and their Born probabilities.
    """
    # All agents must disclose before any photon is decoded.
    totals = ledger.totals(photon_ids)
    photons = adversary.on_photon_return(photon_ids, photons)
    photons = rotate_photons(photons, -totals)
    check_norms(photons)
    outcomes, probs = measure_photons_z(photons, rng.random(len(photon_ids)))
    return tuple(outcomes.tolist()), tuple(probs.tolist())


def second_detection(
    decoded_payload: tuple[int, ...],
    check_positions: tuple[int, ...],
    expected_bits: tuple[int, ...],
) -> DetectionVerdict:
    mismatched = tuple(
        pos for pos, bit in zip(check_positions, expected_bits) if decoded_payload[pos] != bit
    )
    return DetectionVerdict("second-detection", not mismatched, mismatched)


def run_protocol(config: ProtocolConfig, adversary_factory=None) -> RunResult:
    """Execute one full protocol run; deterministic given ``config.seed``.

    ``adversary_factory`` takes a dedicated RNG and returns an adversary hook.
    """
    config.validate()
    proto_ss, adv_ss = np.random.SeedSequence(config.seed).spawn(2)
    rng = np.random.default_rng(proto_ss)
    adversary = (
        adversary_factory(np.random.default_rng(adv_ss)) if adversary_factory else NullAdversary()
    )

    if config.message_bits is not None:
        message = tuple(int(b) for b in config.message_bits)
    else:
        message = tuple(int(b) for b in rng.integers(0, 2, size=config.message_length))
    n_payload = config.payload_length()
    n_total = required_sequence_length(n_payload, config.check_fraction_first)

    photons, ledger = encryption_phase(prepare_sequence(n_total), config, rng, adversary)
    first, announced = first_detection(photons, ledger, config, rng, adversary)
    record = dict(num_photons=n_total, announcements=tuple(map(tuple, announced.tolist())))
    if not first.passed:
        return RunResult(
            config, message, None, first, None, adversary.on_finish(), (), (), **record,
        )

    payload_ids = np.delete(np.arange(n_total), [j for j, _, _ in first.outcomes])
    assert len(payload_ids) == n_payload
    if config.num_second_checks > 0:
        check_positions = tuple(
            sorted(int(i) for i in rng.choice(n_payload, config.num_second_checks, replace=False))
        )
        check_bits = tuple(int(b) for b in rng.integers(0, 2, size=config.num_second_checks))
    else:
        check_positions, check_bits = (), ()
    is_check = np.zeros(n_payload, dtype=bool)
    is_check[list(check_positions)] = True
    payload_bits = np.zeros(n_payload, dtype=int)
    payload_bits[is_check] = check_bits
    payload_bits[~is_check] = message

    encoded = encode_message(photons[payload_ids], payload_bits)
    decoded_payload, probs = recovery_phase(encoded, payload_ids, ledger, rng, adversary)
    second = second_detection(decoded_payload, check_positions, check_bits)
    decoded_message = tuple(np.asarray(decoded_payload)[~is_check].tolist())
    message_photon_ids = tuple(payload_ids[~is_check].tolist())
    guesses = adversary.on_finish()

    return RunResult(
        config, message, decoded_message, first, second,
        guesses, message_photon_ids, check_positions, probs,
        payload_ids=tuple(payload_ids.tolist()), decoded_payload=decoded_payload, **record,
    )


def config_to_dict(config: ProtocolConfig) -> dict:
    return {
        "agents": config.num_agents,
        "message_bits": list(config.message_bits) if config.message_bits is not None else None,
        "message_length": config.message_length,
        "check_fraction_first": config.check_fraction_first,
        "second_checks": config.num_second_checks,
        "angle_distribution": config.angle_distribution,
        "adversary_position": config.adversary_position,
        "seed": config.seed,
    }


def with_seed(config: ProtocolConfig, seed: int) -> ProtocolConfig:
    return replace(config, seed=seed)
