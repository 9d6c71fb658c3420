import numpy as np
import pytest

from qsslab import attack
from qsslab.attack import (
    EntanglerSpec,
    EntanglingAdversary,
    GuessRule,
    build_entangler,
    build_entanglers,
    entangler_blocks,
    qgwz_spec,
    random_entangler_spec,
    spec_arrays,
)
from qsslab.cli import CCY_CIRCUIT
from qsslab.protocol import ProtocolConfig, run_protocol_batch
from qsslab.quantum import (
    MINUS_I_SIGMA_Y,
    InvariantError,
    State,
    apply_unitary,
    basis_state,
    canonical_angle,
    rotation_operator,
    rotate_photons,
)

from conftest import random_state
from scalar_reference import (
    apply_ccy,
    global_phase_equal,
    ket0,
    overlap,
    partial_trace,
    split_product,
    tensor,
    trace_distance,
)

BELL = State(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))


def chi_state(theta):
    return State(rotation_operator(theta) @ ket0().amps)


def eq4_rhs(spec, chi):
    rotated = State(rotation_operator(spec.theta_prime) @ chi.amps)
    return (
        spec.alpha * tensor(spec.epsilon, chi).amps
        + spec.beta * tensor(spec.epsilon_perp, rotated).amps
    )


# --- spec validation ---

def test_spec_rejects_unnormalized_weights():
    with pytest.raises(InvariantError):
        EntanglerSpec(basis_state(1, 0), basis_state(1, 1), 1.0, 1.0, 0.5)
    for alpha in (complex(np.nan, 0.0), 1e200):
        with pytest.raises(InvariantError):
            EntanglerSpec(basis_state(1, 0), basis_state(1, 1), alpha, 0.0, 0.5)


def test_spec_rejects_non_finite_theta_prime():
    for theta_prime in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvariantError, match="theta_prime"):
            EntanglerSpec(basis_state(1, 0), basis_state(1, 1), 0.6, 0.8, theta_prime)


def test_spec_rejects_nonorthogonal_ancillas():
    plus = State(np.array([1, 1]) / np.sqrt(2))
    with pytest.raises(InvariantError):
        EntanglerSpec(basis_state(1, 0), plus, 0.6, 0.8, 0.5)
    # A norm^2 of 1 + 1e-10 passes State, not the pair's tighter bound.
    long_eps = State(basis_state(2, 0).amps * np.sqrt(1 + 1e-10))
    with pytest.raises(InvariantError, match="must be orthonormal"):
        EntanglerSpec(long_eps, basis_state(2, 3), 0.6, 0.8, 0.5)


@pytest.mark.parametrize("field, value", [
    ("epsilon", np.array([1.0, 0.0])),
    ("epsilon", None),
    ("epsilon_perp", [0.0, 1.0]),
    ("theta_prime", "x"),
    ("theta_prime", None),
    ("theta_prime", 1j),
    ("alpha", "x"),
    ("alpha", [1, 0]),
    ("alpha", None),
    ("alpha", True),
    ("beta", "0.8"),
], ids=lambda v: str(v)[:20])
def test_spec_refuses_a_field_of_the_wrong_type(field, value):
    # Refused by the spec's own check, naming the field, as its other checks
    # are: never an AttributeError, TypeError or ValueError.
    fields = dict(epsilon=basis_state(1, 0), epsilon_perp=basis_state(1, 1),
                  alpha=0.6, beta=0.8, theta_prime=0.5)
    fields[field] = value
    with pytest.raises(InvariantError, match=f"^{field} must be of type "):
        EntanglerSpec(**fields)


def test_spec_takes_numpy_scalars():
    spec = EntanglerSpec(basis_state(1, 0), basis_state(1, 1),
                         np.complex128(0.6), np.float64(0.8), np.int64(1))
    assert (spec.alpha, spec.beta, spec.theta_prime) == (0.6, 0.8, 1.0)
    assert type(spec.alpha) is complex and type(spec.theta_prime) is float


def test_spec_rejects_dim_mismatch():
    with pytest.raises(InvariantError):
        EntanglerSpec(basis_state(1, 0), basis_state(2, 3), 0.6, 0.8, 0.5)


def test_spec_canonicalizes_theta_prime():
    spec = EntanglerSpec(basis_state(1, 0), basis_state(1, 1), 0.6, 0.8, -3 * np.pi / 2)
    assert spec.theta_prime == pytest.approx(np.pi / 2)


# --- entangler construction ---

def test_entangler_unitary_random_specs(rng):
    for _ in range(100):
        spec = random_entangler_spec(rng)
        ent = build_entangler(spec)
        eye = np.eye(ent.shape[0])
        assert np.max(np.abs(ent.conj().T @ ent - eye)) <= 1e-10


def test_entangler_subspace_contract(rng):
    for _ in range(100):
        spec = random_entangler_spec(rng)
        ent = build_entangler(spec)
        chi = random_state(rng, 1)
        out = ent @ tensor(spec.epsilon, chi).amps
        assert np.max(np.abs(out - eq4_rhs(spec, chi))) <= 1e-10


def test_entangler_identity_when_beta_zero():
    spec = EntanglerSpec(basis_state(1, 0), basis_state(1, 1), 1.0, 0.0, 1.1)
    ent = build_entangler(spec)
    for theta in (0.0, 0.4, 2.2):
        chi = chi_state(theta)
        out = ent @ tensor(spec.epsilon, chi).amps
        assert np.max(np.abs(out - tensor(spec.epsilon, chi).amps)) <= 1e-12


def test_entangler_explicit_image_on_ket0():
    spec = EntanglerSpec(basis_state(1, 0), basis_state(1, 1), 0.6, 0.8, 0.9)
    ent = build_entangler(spec)
    out = ent @ tensor(spec.epsilon, ket0()).amps
    expected = np.zeros(4, dtype=complex)
    expected[0] = 0.6                  # alpha |eps>|0>
    expected[2] = 0.8 * np.cos(0.9)    # beta |eps_perp>(cos|0> + sin|1>)
    expected[3] = 0.8 * np.sin(0.9)
    assert np.max(np.abs(out - expected)) <= 1e-12


def test_completions_agree_observationally(rng):
    # Different unitary completions act identically on the attack-relevant
    # subspace and produce identical measurement statistics end to end.
    for _ in range(20):
        spec = random_entangler_spec(rng)
        fwd = build_entangler(spec, "forward")
        rev = build_entangler(spec, "reversed")
        chi = random_state(rng, 1)
        src = tensor(spec.epsilon, chi).amps
        assert np.max(np.abs(fwd @ src - rev @ src)) <= 1e-12
        for m in (0, 1):
            encoded = fwd @ src
            if m == 1:
                encoded = apply_unitary(State(encoded), MINUS_I_SIGMA_Y).amps
            assert np.max(np.abs(fwd.conj().T @ encoded - rev.conj().T @ (
                rev @ src if m == 0 else apply_unitary(State(rev @ src), MINUS_I_SIGMA_Y).amps
            ))) <= 1e-12


@pytest.mark.parametrize("completion", ["forward", "reversed"])
def test_stack_rows_equal_single_builds(rng, completion):
    # Every operator and every block of a stack has the bits of its spec
    # built alone, whatever the stack's size.
    for dim in (2, 4, 8):
        specs = [random_entangler_spec(rng, dim) for _ in range(40)]
        alone = [entangler_blocks(*spec_arrays([spec])[2:])[0] for spec in specs]
        for size in (1, 2, 3, 7, 16, 40):
            fields = spec_arrays(specs[:size])
            stack = build_entanglers(*fields, completion)
            assert stack.shape == (size, 2 * dim, 2 * dim)
            for entangler, spec in zip(stack, specs):
                assert np.array_equal(entangler, build_entangler(spec, completion))
            blocks = entangler_blocks(*fields[2:])
            assert blocks.shape == (size, 4, 4)
            for block, want in zip(blocks, alone):
                assert np.array_equal(block, want)


@pytest.mark.parametrize("completion", ["forward", "reversed"])
def test_entangler_acts_on_the_span_as_its_block(completion):
    # E V = V B for V = (|eps>, |eps_perp>) (x) I, on 150 specs, 50 of each
    # ancilla dimension; the reversed E flips the photon of B's eps_perp
    # columns.
    rng = np.random.default_rng(3001)
    for dim in (2, 4, 8):
        fields = spec_arrays([random_entangler_spec(rng, dim) for _ in range(50)])
        frame = np.zeros((50, dim, 2, 2, 2), dtype=complex)
        frame[:, :, 0, :, 0] = frame[:, :, 1, :, 1] = np.stack(fields[:2], axis=-1)
        frame = frame.reshape(50, 2 * dim, 4)
        via_entangler = build_entanglers(*fields, completion) @ frame
        blocks = entangler_blocks(*fields[2:])
        if completion == "reversed":
            blocks = blocks[:, :, [0, 1, 3, 2]]
        via_block = frame @ blocks
        assert np.abs(via_entangler - via_block).max() <= 1e-14


def test_blocks_refuse_weights_off_the_unit_circle():
    # Raw alpha and beta that bypass EntanglerSpec, with
    # |alpha|^2 + |beta|^2 = 1 + 1e-9.
    alpha, beta = np.sqrt(0.36 * (1 + 1e-9)), np.sqrt(0.64 * (1 + 1e-9)) * 1j
    assert abs(alpha**2 + abs(beta) ** 2 - 1 - 1e-9) <= 1e-15
    kets = np.eye(4, dtype=complex)[None, :2]
    with pytest.raises(InvariantError, match="not unitary"):
        entangler_blocks([alpha], [beta], [0.7])
    for completion in ("forward", "reversed"):
        with pytest.raises(InvariantError, match="not unitary"):
            build_entanglers(kets[:, 0], kets[:, 1], [alpha], [beta], [0.7], completion)


def test_completions_differ_off_the_pinned_columns(rng):
    # Otherwise the completion tests, and criterion 7, would pass vacuously.
    for _ in range(30):
        spec = random_entangler_spec(rng)
        off = np.eye(2 * spec.ancilla_dim) - np.kron(
            np.outer(spec.epsilon.amps, spec.epsilon.amps.conj()), np.eye(2)
        )
        diff = (build_entangler(spec, "forward") - build_entangler(spec, "reversed")) @ off
        assert np.max(np.abs(diff)) >= 0.1


def test_stack_is_checked_unitary_once(rng, monkeypatch):
    checked = []
    monkeypatch.setattr(attack, "check_unitary", lambda ops: checked.append(ops.shape))
    specs = [random_entangler_spec(rng, 4) for _ in range(5)]
    build_entanglers(*spec_arrays(specs))
    assert checked == [(5, 8, 8)]
    checked.clear()
    entangler_blocks(*spec_arrays(specs)[2:])
    assert checked == [(5, 4, 4)]


def near_orthonormal(rng, dim, size):
    """A random orthonormal pair, each vector's norm^2 and their overlap
    moved by up to ``size``."""
    eps = random_state(rng, dim.bit_length() - 1).amps
    perp = random_state(rng, dim.bit_length() - 1).amps
    perp = perp - np.vdot(eps, perp) * eps
    perp = perp / np.linalg.norm(perp)
    perp = perp + rng.uniform(-size, size) * eps
    return (State(eps * np.sqrt(1 + rng.uniform(-size, size))),
            State(perp * np.sqrt(1 + rng.uniform(-size, size))))


def test_every_accepted_spec_builds_a_unitary_entangler(rng):
    # Pairs and weights up to 2.5e-11 from orthonormal: a spec is refused, or
    # both completions of its entangler pass the unitarity check.
    accepted = refused = 0
    for i in range(400):
        eps, perp = near_orthonormal(rng, (2, 4, 8)[i % 3], 2.5e-11)
        mix = rng.uniform(0.0, np.pi / 2)
        scale = np.sqrt(1 + rng.uniform(-2.5e-11, 2.5e-11))
        try:
            spec = EntanglerSpec(eps, perp, scale * np.cos(mix), scale * np.sin(mix) * 1j,
                                 rng.uniform(0, 2 * np.pi))
        except InvariantError:
            refused += 1
            continue
        accepted += 1
        build_entangler(spec, "forward")
        build_entangler(spec, "reversed")
    assert accepted >= 50 and refused >= 50


# --- controlled-gate special case ---

def test_qgwz_spec_basis_cases():
    spec00 = qgwz_spec(basis_state(2, 0))
    assert spec00.alpha == pytest.approx(1.0)
    assert spec00.beta == pytest.approx(0.0)
    spec11 = qgwz_spec(basis_state(2, 3))
    assert spec11.alpha == pytest.approx(0.0)
    assert abs(spec11.beta) == pytest.approx(1.0)


def test_qgwz_spec_bell_state():
    spec = qgwz_spec(BELL)
    assert abs(spec.alpha) == pytest.approx(1 / np.sqrt(2))
    assert abs(spec.beta) == pytest.approx(1 / np.sqrt(2))
    assert spec.theta_prime == pytest.approx(canonical_angle(-3 * np.pi / 2))
    assert np.allclose(rotation_operator(spec.theta_prime), MINUS_I_SIGMA_Y, atol=1e-15)


def test_qgwz_entangler_matches_direct_controlled_circuit(rng):
    # E on |eps> (x) |chi| reproduces the controlled-controlled gate applied
    # to the prepared ancilla (x) photon: the realized joint states coincide.
    # The 8 x 8 matrix that criterion 7's fixture applies is the same gate.
    for _ in range(100):
        ancilla = random_state(rng, 2)
        spec = qgwz_spec(ancilla)
        ent = build_entangler(spec)
        chi = random_state(rng, 1)
        via_entangler = ent @ tensor(spec.epsilon, chi).amps
        via_circuit = apply_ccy(tensor(ancilla, chi))
        assert np.max(np.abs(via_entangler - via_circuit.amps)) <= 1e-10
        via_matrix = CCY_CIRCUIT @ tensor(ancilla, chi).amps
        assert np.array_equal(via_matrix, via_circuit.amps)


# --- adaptive announcement ---

def entangled_joint(spec, theta, entangler=None):
    ent = entangler if entangler is not None else build_entangler(spec)
    joint = tensor(spec.epsilon, chi_state(theta))
    return apply_unitary(joint, ent)


THETAS = np.array([0.4, 0.9, 2.2, 3.7, 5.5])


def chi_rows(thetas):
    """One trial's photons in the states chi(theta): shape (1, len(thetas), 2)."""
    return np.array([[chi_state(t).amps for t in thetas]])


def test_respond_announces_honest_when_beta_zero(rng):
    spec = EntanglerSpec(basis_state(1, 0), basis_state(1, 1), 1.0, 0.0, 0.7)
    adv = EntanglingAdversary(spec, [rng])
    ids = np.arange(len(THETAS))[None]
    state = adv.on_photon_forward(ids, chi_rows(THETAS))
    announced, _ = adv.on_check_announcement(ids, np.full(ids.shape, 1.0), state)
    assert announced == pytest.approx(1.0)


def test_respond_announces_shifted_when_alpha_zero(rng):
    spec = EntanglerSpec(basis_state(1, 0), basis_state(1, 1), 0.0, 1.0, 0.7)
    adv = EntanglingAdversary(spec, [rng])
    ids = np.arange(len(THETAS))[None]
    state = adv.on_photon_forward(ids, chi_rows(THETAS))
    announced, _ = adv.on_check_announcement(ids, np.full(ids.shape, 1.0), state)
    assert announced == pytest.approx(canonical_angle(1.0 + 0.7))


def test_respond_collapses_to_definite_angle(rng):
    spec = random_entangler_spec(rng, ancilla_dim=4)
    adv = EntanglingAdversary(spec, [rng])
    ids = np.arange(len(THETAS))[None]
    state = adv.on_photon_forward(ids, chi_rows(THETAS))
    announced, collapsed = adv.on_check_announcement(ids, THETAS[None], state)
    # Un-rotating by the announced sum must return the photon to |0> exactly.
    undone = rotate_photons(collapsed, -announced)
    for row in undone[0]:
        joint = State(row)
        rho = partial_trace(joint, [joint.num_qubits - 1])
        assert rho[0, 0].real >= 1 - 1e-10


def test_announcement_refuses_residual_outcome():
    # For the Bell ancilla, eps = |00> and eps_perp = |11>: an ancilla in |01>
    # lies outside their span and can only give the residual outcome.
    adv = EntanglingAdversary(qgwz_spec(BELL), [np.random.default_rng(0)])
    outside = tensor(basis_state(2, 1), chi_state(0.3)).amps
    with pytest.raises(InvariantError, match="residual outcome"):
        adv.on_check_announcement(np.array([[0]]), np.array([[0.2]]), outside[None, None, :])


def test_return_refuses_photon_still_entangled(rng):
    spec = random_entangler_spec(rng, ancilla_dim=4)
    adv = EntanglingAdversary(spec, [rng])
    ids = np.arange(len(THETAS))[None]
    state = adv.on_photon_forward(ids, chi_rows(THETAS))
    photons = adv.on_photon_return(np.array([0]), ids, state)
    for row, theta in zip(photons[0], THETAS):
        assert global_phase_equal(State(row), chi_state(theta), tol=1e-12)
    # The same photons re-entangled with eps_perp do not split off |eps>.
    wrong = np.array([tensor(spec.epsilon_perp, chi_state(t)).amps for t in THETAS])
    with pytest.raises(InvariantError, match="Schmidt weight"):
        adv.on_photon_return(np.array([0]), ids, (wrong @ adv.entangler.T)[None])


def test_checks_run_on_every_trial_of_a_batch(rng):
    # Three trials stacked: a bad row in the middle trial alone trips the
    # residual-outcome check and the Schmidt-weight check.
    spec = qgwz_spec(BELL)
    adv = EntanglingAdversary(spec, [np.random.default_rng(s) for s in range(3)])
    ids = np.tile(np.arange(len(THETAS)), (3, 1))
    state = adv.on_photon_forward(ids, np.repeat(chi_rows(THETAS), 3, axis=0))
    outside = state.copy()
    outside[1, 2] = tensor(basis_state(2, 1), chi_state(0.3)).amps
    with pytest.raises(InvariantError, match="residual outcome"):
        adv.on_check_announcement(ids, np.zeros(ids.shape), outside)
    entangled = state.copy()
    entangled[1, 2] = tensor(spec.epsilon_perp, chi_state(0.3)).amps @ adv.entangler.T
    with pytest.raises(InvariantError, match="Schmidt weight"):
        adv.on_photon_return(np.arange(3), ids, entangled)
    photons = adv.on_photon_return(np.arange(3), ids, state)
    assert photons.shape == (3, len(THETAS), 2)


def test_respond_frequency_matches_alpha_squared():
    # E(|eps>|chi>) = alpha |eps>|chi> + beta |eps_perp> U(theta')|chi>: the
    # announcement measurement gives eps with probability |alpha|^2 and
    # collapses the row onto |eps>|chi>, or onto |eps_perp> U(theta')|chi>.
    alpha, beta, theta_prime, theta = 0.6, 0.8, 1.3, 0.8
    spec = EntanglerSpec(basis_state(1, 0), basis_state(1, 1), alpha, beta, theta_prime)
    n = 100_000
    # One trial of n photons: its generator's n scalar draws, one per measurement.
    adv = EntanglingAdversary(spec, [np.random.default_rng(1234)])
    honest = np.full((1, n), theta)
    rows = np.tile(entangled_joint(spec, theta).amps, (1, n, 1))
    announced, collapsed = adv.on_check_announcement(np.arange(n)[None], honest, rows)
    on_eps = announced[0] == theta
    assert np.all(announced[0][~on_eps] == canonical_angle(theta + theta_prime))
    hits = int(np.count_nonzero(on_eps))
    p = alpha**2
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) <= 4 * sigma
    # The photon's weight divides out exactly when it is |alpha|^2 (|beta|^2).
    kept = tensor(spec.epsilon, chi_state(theta)).amps
    rotated = tensor(spec.epsilon_perp, chi_state(theta + theta_prime)).amps
    assert np.max(np.abs(collapsed[0][on_eps] - kept)) <= 1e-12
    assert np.max(np.abs(collapsed[0][~on_eps] - rotated)) <= 1e-12


def test_finish_refuses_ancilla_outside_span():
    # For the Bell ancilla, eps = |00> and eps_perp = |11>: a kept ancilla
    # 0.1 |00> + sqrt(0.99) |01> gives the residual outcome with probability
    # 0.99, the weight it has outside their span.
    spec = qgwz_spec(BELL)
    ids = np.tile(np.arange(len(THETAS)), (2, 1))

    def returned():
        adv = EntanglingAdversary(spec, [np.random.default_rng(s) for s in range(2)])
        # E^-1 right after E: every kept ancilla is back on |eps>.
        state = adv.on_photon_forward(ids, np.repeat(chi_rows(THETAS), 2, axis=0))
        adv.on_photon_return(np.arange(2), ids, state)
        return adv

    assert np.array_equal(returned().on_finish(), np.zeros(ids.shape, dtype=int))
    adv = returned()
    _, _, ancillas = adv._returned
    ancillas[len(THETAS):] = 0.1 * basis_state(2, 0).amps + np.sqrt(0.99) * basis_state(2, 1).amps
    with pytest.raises(InvariantError, match="final ancilla outcome outside span"):
        adv.on_finish()


# --- inverse entangler and indistinguishability ---

def test_disentangle_round_trip_both_bits(rng):
    for _ in range(100):
        spec = random_entangler_spec(rng)
        ent = build_entangler(spec)
        theta = float(rng.uniform(0, 2 * np.pi))
        joint = entangled_joint(spec, theta, ent)
        rhos = {}
        for m in (0, 1):
            st = joint
            if m == 1:
                st = apply_unitary(st, MINUS_I_SIGMA_Y)
            separated = apply_unitary(st, ent.conj().T)
            ancilla, photon = split_product(separated, spec.epsilon.num_qubits)
            assert abs(abs(overlap(ancilla, spec.epsilon)) - 1.0) <= 1e-8
            expected = chi_state(theta) if m == 0 else State(MINUS_I_SIGMA_Y @ chi_state(theta).amps)
            assert global_phase_equal(photon, expected, tol=1e-8)
            rhos[m] = partial_trace(separated, list(range(spec.epsilon.num_qubits)))
        assert trace_distance(rhos[0], rhos[1]) <= 1e-10


def test_guess_outcome_always_epsilon(rng):
    spec = random_entangler_spec(rng, ancilla_dim=4)
    config = ProtocolConfig(num_agents=3, message_length=16, num_second_checks=2,
                            check_fraction_first=0.5, seed=21)
    adversaries = []

    def factory(arng):
        adv = EntanglingAdversary(spec, arng)
        adversaries.append(adv)
        return adv

    batch = run_protocol_batch(config, [config.seed], factory)
    assert batch.first_passed.all()
    decoded = batch.decoded_payload[batch.is_message].reshape(batch.messages.shape)
    assert np.array_equal(decoded, batch.messages)
    adv = adversaries[0]
    measured = adv.final_outcomes[0][adv.final_outcomes[0] >= 0]
    assert measured.size  # attack ran
    assert all(o == 0 for o in measured.tolist())
    # Default rule therefore guesses all zeros.
    guesses = batch.guesses[batch.guesses >= 0]
    assert guesses.size and not guesses.any()


def test_guess_accuracy_near_half(rng):
    spec = qgwz_spec(BELL)
    config = ProtocolConfig(num_agents=3, message_length=50, num_second_checks=0,
                            check_fraction_first=0.2)
    batch = run_protocol_batch(
        config, range(100, 120), lambda arngs: EntanglingAdversary(spec, arngs)
    )
    assert batch.first_passed.all()
    # Every message photon is guessed: its guess against its bit.
    message_ids = batch.payload_ids[batch.is_message].reshape(batch.messages.shape)
    guesses = np.take_along_axis(batch.guesses, message_ids, axis=1)
    assert (guesses >= 0).all()
    total, correct = guesses.size, int(np.count_nonzero(guesses == batch.messages))
    sigma = 0.5 / np.sqrt(total)
    assert abs(correct / total - 0.5) <= 4 * sigma


def test_naive_attack_fails_detection_at_known_rate():
    spec = qgwz_spec(BELL)  # |beta|^2 = 1/2, theta' = pi/2 -> fail prob 1/2
    config = ProtocolConfig(num_agents=3, message_length=40, num_second_checks=0,
                            check_fraction_first=0.5)
    batch = run_protocol_batch(
        config, range(300, 310), lambda arngs: EntanglingAdversary(spec, arngs, adaptive=False)
    )
    total, fails = batch.check_outcomes.size, int(np.count_nonzero(batch.check_outcomes))
    p = 0.5
    sigma = np.sqrt(p * (1 - p) / total)
    assert abs(fails / total - p) <= 4 * sigma


def test_guess_rule_validation_and_mapping():
    rule = GuessRule(1, 0)
    assert rule(0) == 1 and rule(1) == 0
    with pytest.raises(ValueError):
        GuessRule(2, 0)

