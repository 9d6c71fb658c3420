"""Acceptance suite: one test per acceptance criterion, one pass/fail line each.

Each test prints a single ``[PASS]``/``[FAIL]`` line directly to the terminal
(bypassing pytest capture) so the acceptance verdicts are visible in any run.
Every criterion is a group of the fixture table ``qsslab.cli.FIXTURES``,
which ``qsslab verify`` runs too: the configs, seeds, run counts and
tolerances are set there, and each test asserts every entry of its group.
The table is evaluated once per session (the ``fixture_table`` fixture of
conftest.py).
"""


def verdict(capsys, name: str, passed: bool, detail: str):
    with capsys.disabled():
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def fixture_group(table: dict, criterion: int) -> tuple[dict, bool, str]:
    """The group of ``criterion`` in the evaluated fixture ``table``: entries
    by name, whether all passed, and the names of any that failed."""
    group = table[criterion]
    failed = [fx.name for fx in group if not fx.passed]
    detail = f"; FAILED: {', '.join(failed)}" if failed else ""
    return {fx.name: fx for fx in group}, not failed, detail


def test_criterion_1_honest_protocol_correctness(capsys, fixture_table):
    """1000 seeded runs (3-5 agents, 32-bit messages, continuous angles) decode
    exactly, pass both detections, and every measurement is deterministic."""
    fx, ok, failed = fixture_group(fixture_table, 1)
    verdict(
        capsys, "criterion-1 honest-protocol correctness", ok,
        f"1000 runs decoded exactly with both detections passing; "
        f"max |1 - p(outcome)| = {fx['honest-born-deviation'].value:.3g} (<= 1e-12){failed}",
    )


def test_criterion_2_indistinguishability_theorem(capsys, fixture_table):
    """100 random entangler specs (ancilla dim 2/4/8) x 20 random angles:
    bit-conditioned ancilla states after the inverse entangler coincide."""
    fx, ok, failed = fixture_group(fixture_table, 2)
    verdict(
        capsys, "criterion-2 indistinguishability theorem", ok,
        f"100 specs x 20 angles: max trace distance = "
        f"{fx['ancilla-indistinguishability'].value:.3g} (<= 1e-10), "
        f"max Helstrom bound = {fx['helstrom-bound'].value:.12g} (<= 0.5 + 5e-11), "
        f"max |E^dagger E - I| = {fx['entangler-inverse'].value:.3g} (<= 1e-10){failed}",
    )


def test_criterion_3_identical_attacker_factors(capsys, fixture_table):
    """The special attack, run through the controlled-controlled -i*sigma_y
    circuit, a later rotation, the encoding and the inverse circuit, returns
    the attacker's pair unentangled and identical for bit 0 and bit 1."""
    fx, ok, failed = fixture_group(fixture_table, 3)
    verdict(
        capsys, "criterion-3 attacker factors identical", ok,
        f"29 angles through the circuit: "
        f"min |<pair_0|pair_1>| = {1.0 - fx['attacker-factor-overlap'].value:.15g} "
        f"(= 1 within 1e-12; identical, not orthogonal); "
        f"max |Schmidt weight - 1| = {fx['HT-norm'].value:.3g}, "
        f"max ||<pair_b|ht>| - 1| = {fx['HT-overlap'].value:.3g} (<= 1e-12){failed}",
    )


def test_criterion_4_detection_escape_and_naive_failure(capsys, fixture_table):
    """Adaptive announcement passes every first detection with certainty;
    the non-adaptive control fails per check photon at |beta|^2 sin^2(theta')."""
    fx, ok, failed = fixture_group(fixture_table, 4)
    verdict(
        capsys, "criterion-4 detection escape", ok,
        f"adaptive: 1000 runs all passed, "
        f"max |1 - p| = {fx['adaptive-born-deviation'].value:.3g} (<= 1e-10); "
        f"naive: |failure rate - |beta|^2 sin^2(theta')| = "
        f"{fx['naive-failure-rate-sigma'].value:.2f} sigma <= 4 sigma "
        f"over 100000 samples{failed}",
    )


def test_criterion_5_zero_information_extraction(capsys, fixture_table):
    """10^4 uniformly random message bits under the adaptive attack: guess
    accuracy stays in 0.5 +/- 0.02 for three distinct guess rules."""
    fx, ok, failed = fixture_group(fixture_table, 5)
    # Entry guess-accuracy-AB is the rule that guesses A for eps, B for eps_perp.
    accuracies = "; ".join(f"({name[-2]}, {name[-1]}) -> {entry.value:.4f}"
                           for name, entry in fx.items() if name.startswith("guess-accuracy-"))
    verdict(
        capsys, "criterion-5 zero information extraction", ok,
        "|accuracy - 0.5| over 10000 bits <= 0.02 for guess rules "
        f"(eps_bit, eps_perp_bit) = {accuracies}{failed}",
    )


def test_criterion_6_operator_identities(capsys, fixture_table):
    """Rotation additivity/commutation at 1e-12; the encoding operator equals
    the -i*sigma_y matrix entrywise at 1e-15 and shifts angles by -3*pi/2."""
    fx, ok, failed = fixture_group(fixture_table, 6)
    verdict(
        capsys, "criterion-6 operator identities", ok,
        f"1000 pairs: max |U(a)U(b)-U(a+b)| = {fx['rotation-additivity'].value:.3g}, "
        f"max ||[U(a),U(b)]|| = {fx['rotation-commutation'].value:.3g} (<= 1e-12); "
        f"encoding matrix entrywise dev = {fx['encoding-matrix'].value:.3g} (<= 1e-15); "
        f"100 angles: min shift overlap = {1.0 - fx['encode-angle'].value:.15g}; "
        f"qgwz theta' dev = {fx['qgwz-theta-prime'].value:.3g} (<= 1e-12){failed}",
    )


def test_criterion_7_special_case_consistency(capsys, fixture_table):
    """The derived entangler and the direct controlled-controlled-(-i*sigma_y)
    circuit produce the same joint state on 100 random prepared inputs."""
    fx, ok, failed = fixture_group(fixture_table, 7)
    verdict(
        capsys, "criterion-7 special-case consistency", ok,
        f"100 random (ancilla, photon) inputs, both completions: "
        f"max amplitude deviation entangler vs circuit = "
        f"{fx['entangler-vs-circuit'].value:.3g} (<= 1e-10){failed}",
    )


def test_criterion_8_determinism(capsys, fixture_table):
    """Identical (config, seed) give byte-identical transcripts and reports,
    including when the trials are aggregated in another order."""
    _, ok, failed = fixture_group(fixture_table, 8)
    verdict(
        capsys, "criterion-8 determinism", ok,
        "byte-identical transcripts, trial logs, and reports; "
        f"report of the trials aggregated in reverse order matches serial byte-for-byte{failed}",
    )
