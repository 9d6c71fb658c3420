import re
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from qsslab.analysis import SweepGrid, derive_seed
from qsslab.attack import EntanglingAdversary, GuessRule, qgwz_spec
from qsslab.protocol import (
    DISCRETE_ANGLES,
    MAX_RUN_SIZE,
    ConfigError,
    NullAdversary,
    ProtocolConfig,
    disclosed_angles,
    encode_message,
    encryption_phase,
    first_detection,
    prepare_sequence,
    required_sequence_length,
    run_protocol_batch,
    sum_angles,
    with_seed,
)
from qsslab.quantum import (
    TWO_PI,
    State,
    canonical_angles,
    rotation_operator,
    rotate_photons,
)
from qsslab.transcript import InvariantPhaseError, Transcript, render_transcripts

from conftest import transcript_of
from scalar_reference import global_phase_equal, grid_specs, ket0


def small_config(**kw):
    defaults = dict(num_agents=3, message_length=8, num_second_checks=2,
                    check_fraction_first=0.5, seed=0)
    defaults.update(kw)
    return ProtocolConfig(**defaults)


def run_alone(config, adversary_factory=None):
    """``config``'s run at its own seed: a batch of one."""
    return run_protocol_batch(config, [config.seed], adversary_factory)


def decoded_messages(batch):
    """The decoded message bits of each run that passed the first detection,
    one row per ``batch.live``."""
    bits = batch.messages.shape[1]
    return batch.decoded_payload[batch.is_message].reshape(len(batch.live), bits)


def test_config_validation():
    # A config checks itself when it is built, so no method meets an
    # unchecked one.
    with pytest.raises(ConfigError, match=re.escape("num_agents must be >= 2 (secret sharing")):
        ProtocolConfig(num_agents=1)
    # With every photon a first-detection check, sequence_length would
    # never return.
    with pytest.raises(ConfigError, match=re.escape("check_fraction_first must lie in (0, 1)")):
        ProtocolConfig(num_agents=3, check_fraction_first=1.0)
    with pytest.raises(ConfigError, match="unknown angle_distribution 'gaussian'"):
        small_config(angle_distribution="gaussian")
    with pytest.raises(ConfigError, match="message_bits must contain only 0/1"):
        small_config(message_bits=(0, 2))
    with pytest.raises(ConfigError, match="adversary_position must be an integer, got 1.5"):
        small_config(adversary_position=1.5)
    small_config()
    # Photons x agents of a run is capped before anything is allocated; the
    # acceptance runs (at most 1000 photons x 3 agents) stay inside the cap.
    with pytest.raises(ConfigError, match="a run of 3 agents, 100002 payload photons"):
        small_config(message_length=MAX_RUN_SIZE)
    small_config(num_agents=3, message_length=500, num_second_checks=0)
    # An integral float from a scenario file names the same agent.
    assert small_config(adversary_position=1.0).default_adversary_position() == 1
    # A copy made with dataclasses.replace is checked too.
    with pytest.raises(ConfigError, match="num_agents must be >= 2"):
        replace(small_config(), num_agents=1)


@pytest.mark.parametrize("build, message", [
    (partial(ProtocolConfig, num_agents=3.5), "num_agents must be an integer, got 3.5"),
    (partial(ProtocolConfig, num_agents="3"), "num_agents must be an integer, got '3'"),
    (partial(ProtocolConfig, 3, message_length=4.5), "message_length must be an integer, got 4.5"),
    (partial(ProtocolConfig, 3, num_second_checks=1.5),
     "num_second_checks must be an integer, got 1.5"),
    (partial(ProtocolConfig, 3, seed=-1), "seed must be >= 0, got -1"),
    (partial(ProtocolConfig, 3, seed=1.5), "seed must be an integer, got 1.5"),
    (partial(ProtocolConfig, 3, check_fraction_first="0.5"),
     "check_fraction_first must be a finite number, got '0.5'"),
    (partial(ProtocolConfig, 3, message_bits=(True, False)),
     "message_bits must be an integer, got True"),
    (partial(ProtocolConfig, 3, message_bits=(1, 0), message_length=3),
     "message_length is 3 but message_bits has 2 bits"),
    (partial(SweepGrid, (0.5,), (0.5,), (0.1,), 2.5), "ancilla_dim must be an integer, got 2.5"),
    (partial(GuessRule, True, False), "eps_bit must be an integer, got True"),
])
def test_library_values_of_the_wrong_type_are_refused_when_built(build, message):
    # Each of these used to be accepted, or to fail later inside a run.
    with pytest.raises(ConfigError, match=re.escape(message)):
        build()


def test_integral_floats_are_stored_as_ints():
    config = small_config(num_agents=3.0, message_length=8.0, adversary_position=1.0, seed=2.0)
    values = (config.num_agents, config.message_length, config.adversary_position, config.seed)
    assert values == (3, 8, 1, 2) and {type(v) for v in values} == {int}
    grid = SweepGrid((0.5,), (0.5,), (0.1,), 4.0)
    assert type(grid.ancilla_dim) is int and grid.ancilla_dim == 4
    assert grid_specs(grid)[0].ancilla_dim == 4


def test_message_length_follows_the_message_bits():
    config = ProtocolConfig(num_agents=3, message_bits=[1, 0])
    assert (config.message_bits, config.message_length) == ((1, 0), 2)
    # A copy made with dataclasses.replace keeps the bits and their length.
    copy = with_seed(config, 9)
    assert (copy.message_bits, copy.message_length, copy.seed) == ((1, 0), 2, 9)
    assert ProtocolConfig(num_agents=3).message_length == 32


def test_required_sequence_length():
    for payload in (1, 7, 36):
        for f in (0.1, 0.5, 0.9):
            n = required_sequence_length(payload, f)
            assert n - int(np.ceil(f * n)) == payload
            # The bound a ProtocolConfig puts on the size of a run when it is built.
            assert n <= (payload + 1) / (1 - f)


def test_prepare_sequence():
    photons = prepare_sequence(5)
    assert photons.shape == (5, 2)
    for row in photons:
        assert np.allclose(row, ket0().amps)
    with pytest.raises(ConfigError):
        prepare_sequence(0)


class QuarterTurnRng:
    """Stand-in generator whose every uniform angle is pi/4."""

    def uniform(self, low, high, size):
        return np.full(size, np.pi / 4)


def test_encryption_two_agents_quarter_turns():
    config = ProtocolConfig(num_agents=2, message_bits=(0,), num_second_checks=0,
                            check_fraction_first=0.5, seed=0)
    # Drive the rotations with fixed angles through the encryption phase.
    photons, ledger = encryption_phase(prepare_sequence(1)[None], config, [QuarterTurnRng()],
                                       NullAdversary())
    assert ledger.shape == (1, 2, 1)
    totals = sum_angles(disclosed_angles(ledger, [0], [[0]]))
    assert totals[0, 0] == pytest.approx(np.pi / 2, abs=1e-12)
    assert np.allclose(photons[0, 0], [0, 1], atol=1e-12)  # cos(pi/2)=0


def test_ledger_sum_property():
    config = small_config(seed=3)
    rng = np.random.default_rng(np.random.SeedSequence(3))
    photons, ledger = encryption_phase(prepare_sequence(6)[None], config, [rng], NullAdversary())
    totals = sum_angles(disclosed_angles(ledger, [0], np.arange(6)[None]))[0]
    for j, row in enumerate(photons[0]):
        expected = State(rotation_operator(totals[j]) @ ket0().amps)
        assert np.max(np.abs(row - expected.amps)) <= 1e-12


def test_honest_runs_decode_exactly():
    for seed in range(30):
        config = small_config(seed=seed, num_agents=2 + seed % 3)
        batch = run_alone(config)
        assert batch.first_passed.all()
        assert not batch.check_mismatched.any()
        assert np.array_equal(decoded_messages(batch), batch.messages)
        assert (batch.check_probabilities >= 1 - 1e-12).all()
        assert (batch.recovery_probabilities >= 1 - 1e-12).all()


def test_discrete_angle_distribution_decodes():
    batch = run_alone(small_config(angle_distribution="discrete", seed=4))
    assert np.array_equal(decoded_messages(batch), batch.messages)


def test_fixed_message_bits_respected():
    bits = [1, 0, 1, 1, 0, 0, 1, 0]
    batch = run_alone(small_config(message_bits=tuple(bits)))
    assert batch.messages.tolist() == [bits]
    assert decoded_messages(batch).tolist() == [bits]


def test_encode_message_examples():
    photons = encode_message(prepare_sequence(2), (0, 1))
    assert np.allclose(photons[0], [1, 0], atol=1e-15)  # bit 0 unchanged
    assert np.allclose(photons[1], [0, 1], atol=1e-15)  # bit 1 flips |0> to |1>


def test_encode_shifts_angle_by_three_half_pi():
    theta = 1.3
    photons = rotate_photons(prepare_sequence(1), np.array([theta]))
    encoded = encode_message(photons, (1,))
    shifted = State(rotation_operator(theta - 3 * np.pi / 2) @ ket0().amps)
    assert global_phase_equal(State(encoded[0]), shifted, tol=1e-12)


def test_encode_length_mismatch():
    with pytest.raises(ConfigError):
        encode_message(prepare_sequence(2), (1,))


class PayloadFlipper(NullAdversary):
    """A tampering agent: flips every payload photon on its way back."""

    def on_photon_return(self, trials, photon_ids, amps):
        return encode_message(amps, np.ones(amps.shape[:-1], dtype=int))


def test_second_detection_verdicts():
    # The flips pass the first detection, which they never touch, and every
    # decoded bit comes out flipped, so every second check fails.
    config = small_config(message_length=8, num_second_checks=3)
    batch = run_protocol_batch(config, [1, 2, 3], lambda rngs: PayloadFlipper())
    assert batch.first_passed.all()
    assert batch.check_mismatched.shape == (3, 3) and batch.check_mismatched.all()
    assert np.array_equal(decoded_messages(batch), 1 - batch.messages)
    for positions, transcript in zip(batch.check_positions.tolist(), render_transcripts(batch)):
        last = ("phase=second-detection kind=Verdict party=Alice result=fail failed="
                + ",".join(map(str, positions)))
        assert transcript.to_lines()[-1] == last
    # Seed 1's second checks, pinned: they move only if the draws do.
    assert batch.check_positions[0].tolist() == [3, 5, 10]
    # With no second checks the verdict passes vacuously, flips and all.
    config, flipper = small_config(num_second_checks=0, seed=1), lambda rngs: PayloadFlipper()
    batch = run_alone(config, flipper)
    assert np.array_equal(decoded_messages(batch), 1 - batch.messages)
    assert batch.check_mismatched.shape == (1, 0)
    assert transcript_of(config, flipper).to_lines()[-1] == (
        "phase=second-detection kind=Verdict party=Alice result=pass failed=-"
    )


def test_transcript_phase_ordering():
    transcript_of(small_config(seed=5)).check_phase_order()


def test_check_phase_order_rejects_encryption_after_recovery():
    transcript = Transcript(
        "phase=recovery kind=Sent party=Alice photon=0 to=Zach\n"
        "phase=encryption kind=Rotated party=Bob photon=0\n"
    )
    with pytest.raises(InvariantPhaseError):
        transcript.check_phase_order()


def _bell_attack(adaptive):
    spec = qgwz_spec(State(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)))
    return lambda rng: EntanglingAdversary(spec, rng, GuessRule(), adaptive=adaptive)


# (config, adversary factory, whether the first detection passes)
TRANSCRIPT_RUNS = {
    "honest": (small_config(seed=11), None, True),
    "qgwz-adaptive": (small_config(seed=12), _bell_attack(adaptive=True), True),
    "naive-fails-first": (small_config(message_length=6, num_second_checks=0, seed=300),
                          _bell_attack(adaptive=False), False),
}


@pytest.mark.parametrize("name", TRANSCRIPT_RUNS)
def test_transcript_lines_match_run(name):
    config, factory, passes = TRANSCRIPT_RUNS[name]
    batch = run_alone(config, factory)
    transcript = next(render_transcripts(batch))
    assert batch.first_passed.tolist() == [passes]
    lines = transcript.to_lines()
    for line in lines:
        for token in line.split(" "):
            key, sep, value = token.partition("=")
            assert key and sep and value, line
    fields = transcript.records()
    n, k = batch.num_photons, config.num_agents
    checks, payload = batch.check_ids.shape[1], config.payload_length()
    expected = {"preparation": n, "encryption": n * (2 * k + 1),
                "first-detection": checks * (k + 2) + 1}
    if passes:
        expected.update({"encoding": payload, "recovery": 2 * payload, "second-detection": 1})
    assert Counter(f["phase"] for f in fields) == expected
    assert [f["angle"] for f in fields if "angle" in f] == [
        angle for row in batch.announcements[0].tolist() for angle in row
    ]
    assert [f["probability"] for f in fields if "probability" in f] == (
        batch.check_probabilities[0].tolist() + batch.recovery_probabilities.ravel().tolist()
    )


def test_transcript_determinism():
    a = run_alone(small_config(seed=6))
    b = run_alone(small_config(seed=6))
    assert transcript_of(small_config(seed=6)).serialize() == transcript_of(
        small_config(seed=6)
    ).serialize()
    assert np.array_equal(decoded_messages(a), decoded_messages(b))


def test_null_hook_matches_no_hook():
    a = transcript_of(small_config(seed=7))
    b = transcript_of(small_config(seed=7), lambda rng: NullAdversary())
    assert a.serialize() == b.serialize()


def test_first_detection_marks_roles_and_passes():
    config = small_config(seed=8)
    rng = np.random.default_rng(np.random.SeedSequence(8))
    photons, ledger = encryption_phase(prepare_sequence(10)[None], config, [rng], NullAdversary())
    (ids,), (outcomes,), (probs,), (announced,) = first_detection(
        photons, ledger, config, [rng], NullAdversary()
    )
    assert not outcomes.any()  # passes
    checked = ids.tolist()
    assert len(checked) == int(np.ceil(0.5 * 10))
    assert checked == sorted(set(checked))
    assert announced.shape == (len(checked), config.num_agents)
    for outcome, prob in zip(outcomes.tolist(), probs.tolist()):
        assert outcome == 0 and prob >= 1 - 1e-12


def test_transcript_never_logs_ledger_angles_in_encryption():
    for line in transcript_of(small_config(seed=10)).to_lines():
        if "kind=Rotated" in line:
            assert "angle=" not in line


@pytest.mark.parametrize("distribution", ["uniform", "discrete"])
def test_drawn_ledger_is_canonical(distribution):
    # The encryption phase returns its draws as the ledger, without a
    # canonical_angles pass: the pass must be a no-op on them, bit for bit.
    config = ProtocolConfig(num_agents=4, message_length=200, angle_distribution=distribution)
    n = config.sequence_length()
    rngs = [np.random.default_rng([21, t]) for t in range(6)]
    photons = prepare_sequence(6 * n).reshape(6, n, 2)
    _, ledger = encryption_phase(photons, config, rngs, NullAdversary())
    assert ledger.shape == (6, 4, n)
    assert np.array_equal(ledger.view(np.uint64), canonical_angles(ledger).view(np.uint64))


def test_angle_draws_lie_below_two_pi():
    # Generator.uniform(0, 2 pi) returns 2 pi times a uniform of at most
    # 1 - 2**-53, which rounds below 2 pi; the discrete angles are below it too.
    assert 2 * np.pi * (1.0 - 2.0**-53) < TWO_PI
    assert np.array_equal(DISCRETE_ANGLES.view(np.uint64),
                          canonical_angles(DISCRETE_ANGLES).view(np.uint64))


def test_spawn_key_streams_are_the_spawned_children():
    # Each run's generators are built as SeedSequence(seed, spawn_key=(k,)),
    # the k-th child of SeedSequence(seed).spawn(2), without the sibling.
    seeds = [*range(100), *(derive_seed(11, i) for i in range(200)), 2**32, 2**63 + 5]
    for seed in seeds:
        children = np.random.SeedSequence(seed).spawn(2)
        for k, child in enumerate(children):
            alone = np.random.SeedSequence(seed, spawn_key=(k,))
            assert np.array_equal(alone.generate_state(4, np.uint64),
                                  child.generate_state(4, np.uint64))
            assert (np.random.default_rng(alone).random(3).tolist()
                    == np.random.default_rng(child).random(3).tolist())
