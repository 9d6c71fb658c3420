"""Six-phase quantum secret sharing protocol over a simulated channel.

Alice prepares single photons in |0>, routes them through a chain of agents
who each encrypt with a secret random y-rotation, checks a random sample
(first detection), encodes message bits with -i*sigma_y, sends the rest to
the last agent who undoes the accumulated rotation and reads the bits out
(recovery), and finally verifies pre-inserted check bits (second detection).

A dishonest agent is modeled by an adversary hook that may entangle ancilla
qubits with photons in transit. By convention the photon is always the LAST
(least significant) qubit of whatever joint state travels on the channel.

Runs of one config that differ only in their seeds execute as a batch: all
their photons are one array of shape (trials, n_photons, D), one row per
photon: D is 2 on an honest channel and 2*d once an adversary has attached
a d-dimensional ancilla. Every phase is a few array operations on that
array, and adversary hooks take and return batches with the same trial
axis. Each run still draws from its own generators, exactly what it draws
alone. A batch's results are arrays with the same trial axis
(``BatchResult``), both detection verdicts among them, each decided once by
the engine; the ``transcript`` module renders transcripts from the same
columns. A run alone is a batch of one seed.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

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

DISCRETE_ANGLES = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])

# Upper bound on photons x agents in one run: every agent draws one angle per
# photon, and a run holds all its photons at once, each with up to
# 2 * attack.MAX_ANCILLA_DIM = 16 amplitudes.
MAX_RUN_SIZE = 100_000


class ConfigError(ValueError):
    """Invalid protocol or scenario configuration."""


def as_integer(value, key: str, minimum: int | None = None) -> int:
    """An int, a numpy integer or an integral float as an int; else ConfigError."""
    if type(value) is not int:
        if not (isinstance(value, np.integer)
                or isinstance(value, (float, np.floating)) and value.is_integer()):
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        value = int(value)
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {value}")
    return value


def as_number(value, key: str) -> float:
    """A finite real number as a float; else ConfigError."""
    real = type(value) is float or (
        isinstance(value, (int, np.integer, np.floating)) and not isinstance(value, bool))
    # The comparison is exact for ints of any size and false for NaN.
    if not (real and abs(value) <= sys.float_info.max):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def as_tuple(values, key: str, rule) -> tuple:
    """A list or tuple as the tuple of ``rule(value, key)`` of each value; else ConfigError."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{key} must be a list, got {values!r}")
    return tuple([rule(v, key) for v in values])


# Each key of a scenario's protocol section and a report's config: its field.
CONFIG_KEYS = {
    "agents": "num_agents", "message_bits": "message_bits", "message_length": "message_length",
    "check_fraction_first": "check_fraction_first", "second_checks": "num_second_checks",
    "angle_distribution": "angle_distribution", "adversary_position": "adversary_position",
    "seed": "seed",
}


def agent_name(k: int, num_agents: int) -> str:
    # Bob, Charlie, ... with the final receiver called Zach.
    if k == num_agents - 1:
        return "Zach"
    names = ("Bob", "Charlie", "Dave", "Erin", "Frank", "Grace", "Heidi", "Ivan")
    return names[k] if k < len(names) else f"Agent{k}"


@dataclass(frozen=True)
class ProtocolConfig:
    """The setup of a protocol run, checked when it is built (``ConfigError``).
    An integral float such as 1.0 is stored as the int 1, a list of bits as a tuple."""

    num_agents: int
    message_length: int | None = None  # the number of message_bits, else 32
    message_bits: tuple[int, ...] | None = None
    check_fraction_first: float = 0.5
    num_second_checks: int = 4
    angle_distribution: str = "uniform"  # "uniform" or "discrete"
    adversary_position: int | None = None  # defaults to the middle agent
    seed: int = 0

    def __post_init__(self):
        bits, length, pos = self.message_bits, self.message_length, self.adversary_position
        if bits is not None:
            bits = as_tuple(bits, "message_bits", as_integer)
            if any(b not in (0, 1) for b in bits):
                raise ConfigError("message_bits must contain only 0/1")
            if not bits:
                raise ConfigError("message_bits must be nonempty")
        if length is None:
            length = 32 if bits is None else len(bits)
        for name, value in {
            "num_agents": as_integer(self.num_agents, "num_agents"),
            "message_length": as_integer(length, "message_length", minimum=1),
            "message_bits": bits,
            "check_fraction_first": as_number(self.check_fraction_first, "check_fraction_first"),
            "num_second_checks": as_integer(self.num_second_checks, "num_second_checks", minimum=0),
            "adversary_position": None if pos is None else as_integer(pos, "adversary_position"),
            "seed": as_integer(self.seed, "seed", minimum=0),
        }.items():
            object.__setattr__(self, name, value)

        if self.num_agents < 2:
            raise ConfigError("num_agents must be >= 2 (secret sharing needs >= 2 agents)")
        if bits is not None and self.message_length != len(bits):
            raise ConfigError(
                f"message_length is {self.message_length} but message_bits has {len(bits)} bits"
            )
        if not 0.0 < self.check_fraction_first < 1.0:
            raise ConfigError("check_fraction_first must lie in (0, 1)")
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
        pos = self.default_adversary_position()
        if not 0 <= pos < self.num_agents:
            raise ConfigError(f"adversary_position {pos} out of range")

    def payload_length(self) -> int:
        """Photons left after the first detection: message bits plus second checks."""
        return self.message_length + self.num_second_checks

    def sequence_length(self) -> int:
        """Photons Alice prepares for one run: the payload plus the first
        detection's checks."""
        return required_sequence_length(self.payload_length(), self.check_fraction_first)

    def default_adversary_position(self) -> int:
        return self.num_agents // 2 if self.adversary_position is None else self.adversary_position


def disclosed_angles(ledger: np.ndarray, trials, photon_ids: np.ndarray) -> np.ndarray:
    """Every agent's disclosed angles for ``photon_ids`` (one row per trial of
    ``trials``), shape (agents, t, p), from a batch's canonical angle ledger
    (trial, agent, photon)."""
    return ledger.transpose(1, 0, 2)[:, np.asarray(trials)[:, None], photon_ids]


def sum_angles(angles) -> np.ndarray:
    """Canonical running sum of a sequence of angle vectors, in order."""
    total = 0.0
    for a in angles:
        total = canonical_angles(total + a)
    return total


class NullAdversary:
    """Identity hook: reproduces the honest protocol exactly.

    Hooks act on a batch of runs (trials) of one config. ``photon_ids`` has
    shape (trials, photons) and ``amps`` (trials, photons, D): per trial, a
    row of joint states with the photon as the last qubit. Trials that fail
    the first detection take no further part, so ``on_photon_return`` also
    gets the positions in the batch of the trials it sees. ``on_finish``
    returns the guessed bit of each photon, shape (trials, photons), with -1
    for no guess, or None when the hook guesses nothing.
    """

    def on_photon_forward(self, photon_ids: np.ndarray, amps: np.ndarray) -> np.ndarray:
        return amps

    def on_check_announcement(
        self, photon_ids: np.ndarray, honest_angles: np.ndarray, amps: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        return honest_angles, amps

    def on_photon_return(
        self, trials: np.ndarray, photon_ids: np.ndarray, amps: np.ndarray
    ) -> np.ndarray:
        return amps

    def on_finish(self) -> np.ndarray | None:
        return None


@dataclass(frozen=True, eq=False)
class BatchResult:
    """The runs of one batch (``run_protocol_batch``), one per seed, as
    arrays with a leading trial axis: row t of each trial column is run t,
    and row i of each live column is run ``live[i]``. The arrays are the
    only result; ``len`` is the number of runs.
    """

    config: ProtocolConfig
    seeds: tuple[int, ...]
    num_photons: int
    messages: np.ndarray  # (trials, message bits)
    check_ids: np.ndarray  # (trials, checks), sorted
    check_outcomes: np.ndarray  # (trials, checks)
    check_probabilities: np.ndarray  # (trials, checks)
    announcements: np.ndarray  # (trials, checks, agents)
    first_passed: np.ndarray  # (trials,)
    # The trials that passed the first detection, and their rows below.
    live: np.ndarray  # (live,)
    payload_ids: np.ndarray  # (live, payload), sorted
    is_message: np.ndarray  # (live, payload), False at the second checks
    check_positions: np.ndarray  # (live, second checks), sorted positions in the payload
    # Whether each second check decoded to a bit other than its own: the
    # second detection's verdict, decided once by the engine.
    check_mismatched: np.ndarray  # (live, second checks)
    decoded_payload: np.ndarray  # (live, payload)
    recovery_probabilities: np.ndarray  # (live, payload)
    # The adversary's bit guess per (trial, photon), -1 for none; None when
    # the adversary guesses nothing.
    guesses: np.ndarray | None

    def __len__(self) -> int:
        return len(self.seeds)

    def counts(self) -> tuple[int, int, int, int, int, int]:
        """(trials, first-detection passes, decoded message bits, correctly
        decoded bits, guessed message bits, correct guesses), summed over the
        batch: the integers that ``analysis.summarize`` adds up."""
        messages = self.messages[self.live]
        decoded = self.decoded_payload[self.is_message].reshape(messages.shape)
        guessed = correct = 0
        if self.guesses is not None:
            ids = self.payload_ids[self.is_message].reshape(messages.shape)
            bits = self.guesses[self.live[:, None], ids]
            guessed = int(np.count_nonzero(bits >= 0))
            correct = int(np.count_nonzero(bits == messages))
        return (
            len(self),
            int(np.count_nonzero(self.first_passed)),
            messages.size,
            int(np.count_nonzero(decoded == messages)),
            guessed,
            correct,
        )


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
    rngs: list[np.random.Generator],
    adversary: NullAdversary,
) -> tuple[np.ndarray, np.ndarray]:
    """Every agent in turn rotates every photon by a fresh secret angle; the
    adversary's forward hook runs right after its own rotation.

    ``photons`` holds one row of photons per trial, shape (trials, n, 2), and
    ``rngs`` one generator per trial. Returns the encrypted photons and the
    ledger of committed angles: canonical, indexed (trial, agent, photon).
    """
    trials, n = photons.shape[:2]
    # Each trial draws photon-major, agent-minor: the order of the sequential protocol.
    angles = np.stack(
        [sample_angles(rng, config.angle_distribution, (n, config.num_agents)) for rng in rngs]
    )
    adv_pos = config.default_adversary_position()
    for k in range(config.num_agents):
        photons = rotate_photons(photons, angles[..., k])
        if k == adv_pos:
            photons = adversary.on_photon_forward(
                np.broadcast_to(np.arange(n), (trials, n)), photons
            )
    check_norms(photons)
    # Uniform draws and DISCRETE_ANGLES already lie in [0, 2*pi): the ledger
    # is canonical as drawn.
    return photons, angles.transpose(0, 2, 1)


def first_detection(
    photons: np.ndarray,
    ledger: np.ndarray,
    config: ProtocolConfig,
    rngs: list[np.random.Generator],
    adversary: NullAdversary,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Alice checks a random sample of each trial's photons: every agent
    announces its angle for each sampled photon, Alice undoes the announced
    sum and measures Z.

    Returns, per trial, the sorted check photon ids, their outcomes and the
    Born probabilities of those outcomes, each (trials, n_checks), and the
    announced angles, (trials, n_checks, n_agents). A trial passes when all
    its outcomes are 0.
    """
    trials, n = photons.shape[:2]
    n_checks = math.ceil(config.check_fraction_first * n)
    check_ids = np.sort(
        np.stack([rng.choice(n, size=n_checks, replace=False) for rng in rngs]), axis=1
    )
    batch = np.arange(trials)
    announced = disclosed_angles(ledger, batch, check_ids)
    adv_pos = config.default_adversary_position()
    announced[adv_pos], checked = adversary.on_check_announcement(
        check_ids, announced[adv_pos], photons[batch[:, None], check_ids]
    )
    checked = rotate_photons(checked, -sum_angles(announced))
    check_norms(checked)
    # Each trial draws its uniforms after its check ids, as a run alone does.
    uniforms = np.concatenate([rng.random(n_checks) for rng in rngs])
    outcomes, probs = measure_photons_z(checked.reshape(len(uniforms), -1), uniforms)
    return (
        check_ids,
        outcomes.reshape(trials, n_checks),
        probs.reshape(trials, n_checks),
        announced.transpose(1, 2, 0),
    )


def encode_message(photons: np.ndarray, bits) -> np.ndarray:
    """Alice encodes bit 1 with -i*sigma_y and leaves bit 0 alone; ``bits``
    has one entry per photon row of ``photons``."""
    bits = np.asarray(bits, dtype=int)
    if bits.shape != photons.shape[:-1]:
        raise ConfigError(
            f"message of shape {bits.shape} does not match {photons.shape[:-1]} message photons"
        )
    ones = bits == 1
    out = photons.copy()
    out[ones] = apply_photon_op(photons[ones], MINUS_I_SIGMA_Y)
    return out


def recovery_phase(
    photons: np.ndarray,
    photon_ids: np.ndarray,
    trials: np.ndarray,
    ledger: np.ndarray,
    rngs: list[np.random.Generator],
    adversary: NullAdversary,
) -> tuple[np.ndarray, np.ndarray]:
    """The receiver undoes every agent's rotation and reads each bit in Z.

    ``photons`` (t, p, D) and ``photon_ids`` (t, p) are the payload of the
    batch's trials ``trials``; ``ledger`` and ``rngs`` are the whole batch's.
    Returns the decoded bits and their Born probabilities, each (t, p).
    """
    # All agents must disclose before any photon is decoded.
    totals = sum_angles(disclosed_angles(ledger, trials, photon_ids))
    photons = adversary.on_photon_return(trials, photon_ids, photons)
    photons = rotate_photons(photons, -totals)
    check_norms(photons)
    uniforms = np.concatenate([rngs[t].random(photon_ids.shape[1]) for t in trials])
    outcomes, probs = measure_photons_z(photons.reshape(len(uniforms), -1), uniforms)
    return outcomes.reshape(photon_ids.shape), probs.reshape(photon_ids.shape)


def run_protocol_batch(
    config: ProtocolConfig, seeds, adversary_factory=None
) -> BatchResult:
    """Execute one protocol run of ``config`` per seed, all as one batch.

    The runs differ only in their seeds, so they share every shape: each
    phase is one set of array operations on the stacked photons of all
    runs. Each run draws from its own two generators, the streams of
    ``SeedSequence(seed, spawn_key=(0,))`` for the protocol and
    ``spawn_key=(1,)`` for the adversary (the children of
    ``SeedSequence(seed).spawn(2)``), exactly what it draws alone, in the
    same order, so its rows of the result do not depend on the batch: a run
    alone is ``run_protocol_batch(config, [seed])``. A run that fails the
    first detection leaves the batch and draws nothing more.

    ``adversary_factory`` takes the runs' dedicated adversary generators,
    one per run, and returns an adversary hook for the whole batch.
    """
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("a batch needs at least one seed")
    rngs = _spawned_generators(seeds, 0)
    if adversary_factory:
        adversary = adversary_factory(_spawned_generators(seeds, 1))
    else:
        adversary = NullAdversary()

    if config.message_bits is not None:
        messages = np.tile(np.array(config.message_bits, dtype=int), (len(seeds), 1))
    else:
        messages = np.stack([rng.integers(0, 2, size=config.message_length) for rng in rngs])
    n_total = config.sequence_length()
    photons = prepare_sequence(len(seeds) * n_total).reshape(len(seeds), n_total, 2)
    photons, ledger = encryption_phase(photons, config, rngs, adversary)
    check_ids, outcomes, probs, announced = first_detection(
        photons, ledger, config, rngs, adversary
    )
    first_passed = ~outcomes.any(axis=1)
    live = np.flatnonzero(first_passed)
    second = _second_phase(
        photons, live, check_ids[live], messages[live], ledger, rngs, adversary, config
    )
    return BatchResult(
        config, seeds, n_total, messages, check_ids, outcomes, probs, announced,
        first_passed, live, *second, adversary.on_finish(),
    )


def _spawned_generators(seeds, k: int) -> list[np.random.Generator]:
    """Generator ``k`` of each seed: the stream of ``SeedSequence(seed).spawn(2)[k]``,
    built without spawning its sibling."""
    return [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,))) for seed in seeds]


def _second_phase(photons, live, check_ids, messages, ledger, rngs, adversary, config) -> tuple:
    """Encoding and recovery for the trials ``live`` that passed the first
    detection, given their check ids and messages.

    Returns one row per live trial of: payload photon ids, which payload
    positions carry message bits, the second-check positions in the payload,
    which of those checks decoded to a bit other than their own (the second
    detection), decoded payload bits, and their Born probabilities.
    """
    n_payload, n_second = config.payload_length(), config.num_second_checks
    positions = np.zeros((len(live), n_second), dtype=int)
    if not live.size:
        no_payload = np.zeros((0, n_payload), dtype=int)
        return (
            no_payload, no_payload.astype(bool), positions, positions.astype(bool),
            no_payload, np.zeros((0, n_payload)),
        )
    second_bits = np.zeros((len(live), n_second), dtype=int)
    rows = np.arange(len(live))[:, None]
    is_payload = np.ones((len(live), photons.shape[1]), dtype=bool)
    is_payload[rows, check_ids] = False
    payload_ids = np.nonzero(is_payload)[1].reshape(len(live), n_payload)

    if n_second > 0:
        for i, rng in enumerate(rngs[t] for t in live):
            # Each trial draws its second-detection positions, then their bits.
            positions[i] = np.sort(rng.choice(n_payload, n_second, replace=False))
            second_bits[i] = rng.integers(0, 2, size=n_second)
    is_message = np.ones((len(live), n_payload), dtype=bool)
    is_message[rows, positions] = False
    payload_bits = np.zeros((len(live), n_payload), dtype=int)
    payload_bits[rows, positions] = second_bits
    payload_bits[is_message] = messages.ravel()

    encoded = encode_message(photons[live[:, None], payload_ids], payload_bits)
    decoded, probs = recovery_phase(encoded, payload_ids, live, ledger, rngs, adversary)
    mismatched = decoded[rows, positions] != second_bits
    return payload_ids, is_message, positions, mismatched, decoded, probs


def config_to_dict(config: ProtocolConfig) -> dict:
    out = {key: getattr(config, name) for key, name in CONFIG_KEYS.items()}
    if config.message_bits is not None:
        out["message_bits"] = list(config.message_bits)
    return out


def with_seed(config: ProtocolConfig, seed: int) -> ProtocolConfig:
    return replace(config, seed=seed)
