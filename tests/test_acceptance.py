"""Acceptance suite: one test per acceptance criterion, one pass/fail line each.

Each test prints a single ``[PASS]``/``[FAIL]`` line directly to the terminal
(bypassing pytest capture) so the acceptance verdicts are visible in any run.
Tolerances are asserted exactly as stated per criterion. Criteria 2, 3 and 6
assert their group of the fixture table in ``qsslab.cli``, which ``qsslab
verify`` runs too.
"""
import numpy as np
import pytest

from qsslab.analysis import monte_carlo, run_batch, run_batches, summarize
from qsslab.attack import (
    EntanglerSpec,
    EntanglingAdversary,
    GuessRule,
    build_entangler,
    qgwz_spec,
)
from qsslab.cli import FIXTURES
from qsslab.protocol import ProtocolConfig, run_protocol_batch
from qsslab.quantum import State, basis_state, tensor
from qsslab.transcript import render_transcripts

from conftest import transcript_of
from scalar_reference import apply_ccy

BELL = State(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))


def verdict(capsys, name: str, passed: bool, detail: str):
    with capsys.disabled():
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_1_honest_protocol_correctness(capsys):
    """1000 seeded runs (3-5 agents, 32-bit messages, continuous angles) decode
    exactly, pass both detections, and every measurement is deterministic."""
    runs = 1000
    worst_prob_dev = 0.0
    ok = True
    # Seed s runs with 3 + s % 3 agents: one batch per agent count.
    for extra in range(3):
        config = ProtocolConfig(
            num_agents=3 + extra,
            message_length=32,
            check_fraction_first=0.5,
            num_second_checks=4,
            angle_distribution="uniform",
        )
        batch = run_protocol_batch(config, range(extra, runs, 3))
        ok &= bool(batch.first_passed.all()) and not batch.check_outcomes.any()
        ok &= not batch.check_mismatched.any()
        messages = batch.messages[batch.live]
        ok &= np.array_equal(batch.decoded_payload[batch.is_message].reshape(messages.shape),
                             messages)
        for probs in (batch.check_probabilities, batch.recovery_probabilities):
            worst_prob_dev = max(worst_prob_dev, float(np.abs(1.0 - probs).max(initial=0.0)))
    ok &= worst_prob_dev <= 1e-12
    verdict(
        capsys, "criterion-1 honest-protocol correctness", ok,
        f"{runs} runs decoded exactly with both detections passing; "
        f"max |1 - p(outcome)| = {worst_prob_dev:.3g} (<= 1e-12)",
    )


def fixture_group(criterion: int) -> tuple[dict, bool, str]:
    """The fixture-table group of ``criterion``: entries by name, whether all
    passed, and the names of any that failed."""
    group = FIXTURES[criterion]()
    failed = [fx.name for fx in group if not fx.passed]
    detail = f"; FAILED: {', '.join(failed)}" if failed else ""
    return {fx.name: fx for fx in group}, not failed, detail


def test_criterion_2_indistinguishability_theorem(capsys):
    """100 random entangler specs (ancilla dim 2/4/8) x 20 random angles:
    bit-conditioned ancilla states after the inverse entangler coincide."""
    fx, ok, failed = fixture_group(2)
    verdict(
        capsys, "criterion-2 indistinguishability theorem", ok,
        f"100 specs x 20 angles: max trace distance = "
        f"{fx['ancilla-indistinguishability'].value:.3g} (<= 1e-10), "
        f"max Helstrom bound = {fx['helstrom-bound'].value:.12g} (<= 0.5 + 5e-11), "
        f"max |E^dagger E - I| = {fx['entangler-inverse'].value:.3g} (<= 1e-10){failed}",
    )


def test_criterion_3_identical_attacker_factors(capsys):
    """The attacker-held two-qubit factors for bit 0 and bit 1 are identical
    (overlap of modulus 1), not orthogonal."""
    fx, ok, failed = fixture_group(3)
    verdict(
        capsys, "criterion-3 attacker factors identical", ok,
        f"min |<factor_0|factor_1>| = {1.0 - fx['attacker-factor-overlap'].value:.15g} "
        f"over 29 angles (= 1 within 1e-12; identical, not orthogonal); "
        f"HT pair: max |norm - 1| = {fx['HT-norm'].value:.3g}, "
        f"max ||<ht_0|ht_1>| - 1| = {fx['HT-overlap'].value:.3g} (<= 1e-12){failed}",
    )


def test_criterion_4_detection_escape_and_naive_failure(capsys):
    """Adaptive announcement passes every first detection with certainty;
    the non-adaptive control fails per check photon at |beta|^2 sin^2(theta')."""
    spec = qgwz_spec(BELL)
    runs = 1000
    config = ProtocolConfig(
        num_agents=3, message_length=4, check_fraction_first=0.5, num_second_checks=0,
    )
    batch = run_protocol_batch(
        config, range(runs), lambda rngs: EntanglingAdversary(spec, rngs, adaptive=True)
    )
    adaptive_ok = bool(batch.first_passed.all()) and not batch.check_outcomes.any()
    worst_prob_dev = float(np.abs(1.0 - batch.check_probabilities).max(initial=0.0))
    adaptive_ok &= worst_prob_dev <= 1e-10

    # Non-adaptive control: a 0.8/0.6 superposition with a generic rotation,
    # so the expected per-check failure rate is neither 0 nor 1/2.
    naive = EntanglerSpec(basis_state(1, 0), basis_state(1, 1), 0.8, 0.6, 1.1)
    expected = abs(naive.beta) ** 2 * np.sin(naive.theta_prime) ** 2
    config = ProtocolConfig(
        num_agents=2, message_length=250, check_fraction_first=0.8, num_second_checks=0,
    )
    # 100 runs x 1000 check photons = 1e5 samples.
    batch = run_protocol_batch(
        config, range(10_000, 10_100),
        lambda rngs: EntanglingAdversary(naive, rngs, adaptive=False),
    )
    samples = batch.check_outcomes.size
    failures = int(np.count_nonzero(batch.check_outcomes))
    assert samples == 100_000
    rate = failures / samples
    sigma = np.sqrt(expected * (1 - expected) / samples)
    naive_ok = abs(rate - expected) <= 4 * sigma
    verdict(
        capsys, "criterion-4 detection escape", adaptive_ok and naive_ok,
        f"adaptive: {runs} runs all passed, max |1 - p| = {worst_prob_dev:.3g} (<= 1e-10); "
        f"naive: failure rate {rate:.5f} vs |beta|^2 sin^2(theta') = {expected:.5f} "
        f"(|dev| = {abs(rate - expected) / sigma:.2f} sigma <= 4 sigma over {samples} samples)",
    )


def test_criterion_5_zero_information_extraction(capsys):
    """10^4 uniformly random message bits under the adaptive attack: guess
    accuracy stays in 0.5 +/- 0.02 for three distinct guess rules."""
    spec = qgwz_spec(BELL)
    config = ProtocolConfig(
        num_agents=3, message_length=500, check_fraction_first=0.5,
        num_second_checks=0, seed=55,
    )
    rules = [GuessRule(0, 1), GuessRule(1, 0), GuessRule(1, 1)]
    ok = True
    details = []
    for rule in rules:
        report = monte_carlo(config, attack=spec, rule=rule, trials=20)
        assert report.first_detection_pass_rate == 1.0  # all 10^4 bits guessed
        acc = report.attacker_accuracy
        ok &= abs(acc - 0.5) <= 0.02
        details.append(f"{rule!r} -> {acc:.4f}")
    verdict(
        capsys, "criterion-5 zero information extraction", ok,
        "accuracy over 10000 bits in 0.5 +/- 0.02 for " + "; ".join(details),
    )


def test_criterion_6_operator_identities(capsys):
    """Rotation additivity/commutation at 1e-12; the encoding operator equals
    the -i*sigma_y matrix entrywise at 1e-15 and shifts angles by -3*pi/2."""
    fx, ok, failed = fixture_group(6)
    verdict(
        capsys, "criterion-6 operator identities", ok,
        f"1000 pairs: max |U(a)U(b)-U(a+b)| = {fx['rotation-additivity'].value:.3g}, "
        f"max ||[U(a),U(b)]|| = {fx['rotation-commutation'].value:.3g} (<= 1e-12); "
        f"encoding matrix entrywise dev = {fx['encoding-matrix'].value:.3g} (<= 1e-15); "
        f"100 angles: min shift overlap = {1.0 - fx['encode-angle'].value:.15g}; "
        f"qgwz theta' dev = {fx['qgwz-theta-prime'].value:.3g} (<= 1e-12){failed}",
    )


def test_criterion_7_special_case_consistency(capsys):
    """The derived entangler and the direct controlled-controlled-(-i*sigma_y)
    circuit produce the same joint state on 100 random prepared inputs."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for i in range(100):
        anc = rng.normal(size=4) + 1j * rng.normal(size=4)
        ancilla = State(anc / np.linalg.norm(anc))
        chi = rng.normal(size=2) + 1j * rng.normal(size=2)
        photon = State(chi / np.linalg.norm(chi))
        spec = qgwz_spec(ancilla)
        entangler = build_entangler(spec, completion=("forward", "reversed")[i % 2])
        # Both realize the same physical joint state: the entangler acts on the
        # attacker's |eps> (x) photon input, the circuit on the full prepared
        # ancilla (x) photon input; the resulting amplitudes must coincide.
        via_entangler = entangler @ tensor(spec.epsilon, photon).amps
        via_circuit = apply_ccy(tensor(ancilla, photon)).amps
        worst = max(worst, float(np.max(np.abs(via_entangler - via_circuit))))
    ok = worst <= 1e-10
    verdict(
        capsys, "criterion-7 special-case consistency", ok,
        f"100 random (ancilla, photon) inputs, both completions: "
        f"max amplitude deviation entangler vs circuit = {worst:.3g} (<= 1e-10)",
    )


def test_criterion_8_determinism(capsys):
    """Identical (config, seed) give byte-identical transcripts and reports,
    including when the trials are aggregated in another order."""
    spec = qgwz_spec(BELL)
    config = ProtocolConfig(
        num_agents=4, message_length=16, check_fraction_first=0.5,
        num_second_checks=2, seed=88,
    )
    t1 = transcript_of(config, lambda rng: EntanglingAdversary(spec, rng))
    t2 = transcript_of(config, lambda rng: EntanglingAdversary(spec, rng))
    transcripts_ok = t1.serialize().encode() == t2.serialize().encode()
    rep_a = monte_carlo(config, attack=spec, trials=8)
    rep_b = monte_carlo(config, attack=spec, trials=8)
    reports_ok = rep_a.to_json_line().encode() == rep_b.to_json_line().encode()
    logs_a = [t.serialize() for b in run_batches(config, spec, GuessRule(), 8)
              for t in render_transcripts(b)]
    logs_b = [t.serialize() for b in run_batches(config, spec, GuessRule(), 8)
              for t in render_transcripts(b)]
    logs_ok = [l.encode() for l in logs_a] == [l.encode() for l in logs_b]
    reordered = summarize(
        config, spec, reversed([run_batch(config, [i], spec, GuessRule()) for i in range(8)])
    )
    reordered_ok = reordered.to_json_line().encode() == rep_a.to_json_line().encode()
    ok = transcripts_ok and reports_ok and logs_ok and reordered_ok
    verdict(
        capsys, "criterion-8 determinism", ok,
        "byte-identical transcripts, trial logs, and reports; "
        "report of the trials aggregated in reverse order matches serial byte-for-byte",
    )
