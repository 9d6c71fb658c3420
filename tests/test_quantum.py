import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsslab.quantum import (
    ATOL_STATE,
    MINUS_I_SIGMA_Y,
    TWO_PI,
    InvariantError,
    State,
    apply_unitary,
    basis_state,
    canonical_angle,
    canonical_angles,
    check_norms,
    check_unitary,
    ket0,
    measure_photons_z,
    rotate_photons,
    rotation_operator,
    sample_outcomes,
    tensor,
)

from conftest import projector, random_state, random_unitary
from scalar_reference import apply_controlled, global_phase_equal, partial_trace, trace_distance

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


# --- rotation operator ---

def test_rotation_zero_is_identity():
    assert np.allclose(rotation_operator(0.0), np.eye(2), atol=1e-15)


def test_rotation_on_ket0():
    theta = 0.7
    out = rotation_operator(theta) @ ket0().amps
    assert np.allclose(out, [np.cos(theta), np.sin(theta)], atol=1e-15)


def test_rotation_minus_three_half_pi_is_encoding_matrix():
    assert np.allclose(rotation_operator(-3 * np.pi / 2), MINUS_I_SIGMA_Y, atol=1e-15)
    assert np.allclose(rotation_operator(canonical_angle(-3 * np.pi / 2)), MINUS_I_SIGMA_Y, atol=1e-15)


@given(angles, angles)
@settings(max_examples=200)
def test_rotation_additivity(a, b):
    lhs = rotation_operator(a) @ rotation_operator(b)
    assert np.max(np.abs(lhs - rotation_operator(a + b))) <= 1e-12


@given(angles, angles)
@settings(max_examples=200)
def test_rotations_commute(a, b):
    comm = rotation_operator(a) @ rotation_operator(b) - rotation_operator(b) @ rotation_operator(a)
    assert np.max(np.abs(comm)) <= 1e-12


@given(angles)
def test_rotation_adjoint_is_negative_angle(a):
    assert np.max(np.abs(rotation_operator(a).conj().T - rotation_operator(-a))) <= 1e-12


def test_canonical_angle_range():
    for t in (-7.5, 0.0, 2 * np.pi, 13.2, -2 * np.pi):
        c = canonical_angle(t)
        assert 0.0 <= c < 2 * np.pi
        assert np.allclose(rotation_operator(c), rotation_operator(t), atol=1e-12)


def _near_multiple_of_two_pi(k, step):
    """k * 2pi, or its neighbouring float below (step -1) or above (step 1)."""
    x = k * TWO_PI
    return math.nextafter(x, step * math.inf) if step else x


hard_angles = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300),
    st.builds(_near_multiple_of_two_pi, st.integers(-50, 50), st.sampled_from((-1, 0, 1))),
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308)),
)


@given(hard_angles)
@settings(max_examples=500)
@example(-5e-324)  # the fold: -tiny % 2pi rounds to 2pi itself
def test_canonical_angle_is_canonical_angles_bit_for_bit(x):
    c = canonical_angle(x)
    assert type(c) is float
    assert c.hex() == float(canonical_angles(x)).hex()
    assert 0.0 <= c < TWO_PI


# --- state construction ---

def test_state_rejects_unnormalized():
    with pytest.raises(InvariantError):
        State(np.array([1.0, 1.0]))


def test_state_rejects_nan():
    with pytest.raises(InvariantError):
        State(np.array([np.nan, 0.0]))


def test_state_rejects_bad_length():
    with pytest.raises(ValueError):
        State(np.array([1.0, 0.0, 0.0]))


def test_tensor_pins_msb_convention():
    one, zero = basis_state(1, 1), basis_state(1, 0)
    assert np.argmax(np.abs(tensor(zero, zero).amps)) == 0
    assert np.argmax(np.abs(tensor(one, zero).amps)) == 2  # |10> is index 2
    theta = 0.3
    rotated = State(rotation_operator(theta) @ zero.amps)
    joint = tensor(rotated, zero)
    assert np.allclose(joint.amps, [np.cos(theta), 0, np.sin(theta), 0], atol=1e-15)


# --- apply_unitary ---

def test_check_unitary_rejects_non_unitary():
    check_unitary(random_unitary(np.random.default_rng(1), 8))
    with pytest.raises(InvariantError):
        check_unitary(np.diag([1.0, 1.0 + 1e-9]))
    with pytest.raises(InvariantError):
        check_unitary(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        check_unitary(np.eye(2)[:1])


def test_apply_identity_leaves_state():
    st_ = random_state(np.random.default_rng(0), 3)
    for op in (np.eye(2), np.eye(8)):
        out = apply_unitary(st_, op)
        assert np.allclose(out.amps, st_.amps, atol=1e-15)


def test_apply_rotation_on_single_qubit():
    theta = 1.1
    out = apply_unitary(ket0(), rotation_operator(theta))
    assert np.allclose(out.amps, [np.cos(theta), np.sin(theta)], atol=1e-15)


def test_rotation_on_other_qubit_is_local():
    out = apply_unitary(ket0(2), rotation_operator(0.9))
    rho = partial_trace(out, [0])
    assert np.allclose(rho, [[1, 0], [0, 0]], atol=1e-12)


def test_apply_unitary_rejects_bad_targets():
    # Only the whole register or its last qubit can be targeted: a two-qubit
    # op on three qubits (a middle pair) and ops too large or not square fail.
    st_ = ket0(3)
    with pytest.raises(ValueError):
        apply_unitary(st_, np.eye(4))
    with pytest.raises(ValueError):
        apply_unitary(ket0(2), np.eye(8))
    with pytest.raises(ValueError):
        apply_unitary(st_, np.eye(2)[:1])


def test_apply_unitary_preserves_norm(rng):
    for _ in range(50):
        n = int(rng.integers(1, 5))
        st_ = random_state(rng, n)
        k = 1 if rng.integers(0, 2) else n
        out = apply_unitary(st_, random_unitary(rng, 2**k))
        assert abs(np.linalg.norm(out.amps) - 1.0) <= 1e-12


def test_apply_unitary_matches_kron_oracle(rng):
    # Oracle: explicit full matrix I (x) U (x) I. A 2x2 U acts on the last
    # qubit; on any other qubit it is applied as the full matrix.
    for n in (2, 3):
        for target in range(n):
            st_ = random_state(rng, n)
            u = random_unitary(rng, 2)
            full = np.eye(1)
            for q in range(n):
                full = np.kron(full, u if q == target else np.eye(2))
            expected = full @ st_.amps
            out = apply_unitary(st_, u if target == n - 1 else full)
            assert np.max(np.abs(out.amps - expected)) <= 1e-12


# --- apply_controlled ---

def _controlled_matrix_oracle(n, controls, target, op):
    """Explicit 2^n x 2^n construction: sum over basis projectors."""
    full = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(2**n):
        bits = [(i >> (n - 1 - q)) & 1 for q in range(n)]
        ket = np.zeros(2**n)
        ket[i] = 1.0
        if all(bits[c] == 1 for c in controls):
            col = np.zeros(2**n, dtype=complex)
            for t_out in (0, 1):
                j_bits = list(bits)
                j_bits[target] = t_out
                j = int("".join(map(str, j_bits)), 2)
                col[j] = op[t_out, bits[target]]
            full[:, i] = col
        else:
            full[:, i] = ket
    return full


def test_controlled_inactive_when_any_control_zero():
    chi = State(rotation_operator(0.4) @ ket0().amps)
    joint = tensor(tensor(basis_state(1, 0), basis_state(1, 1)), chi)  # controls |01>
    out = apply_controlled(joint, [0, 1], 2, MINUS_I_SIGMA_Y)
    assert np.allclose(out.amps, joint.amps, atol=1e-15)


def test_controlled_active_flips_target():
    joint = basis_state(3, 0b110)  # controls |11>, target |0>
    out = apply_controlled(joint, [0, 1], 2, MINUS_I_SIGMA_Y)
    assert np.allclose(out.amps, basis_state(3, 0b111).amps, atol=1e-15)


def test_controlled_active_on_one_gives_minus_zero():
    joint = basis_state(3, 0b111)
    out = apply_controlled(joint, [0, 1], 2, MINUS_I_SIGMA_Y)
    expected = np.zeros(8, dtype=complex)
    expected[0b110] = -1.0
    assert np.allclose(out.amps, expected, atol=1e-15)


def test_controlled_rejects_overlap_and_empty():
    with pytest.raises(ValueError):
        apply_controlled(ket0(2), [0], 0, np.eye(2))
    with pytest.raises(ValueError):
        apply_controlled(ket0(2), [], 1, np.eye(2))


def test_controlled_matches_brute_force_matrix(rng):
    for _ in range(30):
        n = int(rng.integers(2, 4))
        qubits = list(rng.permutation(n))
        n_controls = int(rng.integers(1, n))
        controls, target = qubits[:n_controls], qubits[n_controls]
        op = random_unitary(rng, 2)
        st_ = random_state(rng, n)
        expected = _controlled_matrix_oracle(n, controls, target, op) @ st_.amps
        out = apply_controlled(st_, controls, target, op)
        assert np.max(np.abs(out.amps - expected)) <= 1e-12


# --- measurement ---

def test_measure_ket0_z():
    outcomes, probs = measure_photons_z(ket0().amps[None, :], np.array([0.999]))
    assert outcomes.tolist() == [0] and probs[0] == pytest.approx(1.0, abs=1e-15)


def test_measure_rotated_state_probability():
    st_ = State(rotation_operator(np.pi / 4) @ ket0().amps)
    outcomes, probs = measure_photons_z(st_.amps[None, :], np.array([0.0]))
    assert outcomes.tolist() == [0]
    assert probs[0] == pytest.approx(0.5, abs=1e-12)


def test_measure_frequencies_match_born_rule():
    theta = 0.6
    st_ = State(rotation_operator(theta) @ ket0().amps)
    rng = np.random.default_rng(99)
    n = 100_000
    # rng.random(n) is the stream of n scalar draws, one per measurement.
    outcomes, _ = measure_photons_z(np.tile(st_.amps, (n, 1)), rng.random(n))
    ones = int(np.sum(outcomes))
    p1 = np.sin(theta) ** 2
    sigma = np.sqrt(p1 * (1 - p1) / n)
    assert abs(ones / n - p1) <= 4 * sigma


def test_measure_entangler_subspace_probability():
    # alpha |eps>|chi> + beta |eps_perp>(...) measured on the ancilla gives
    # the eps outcome with probability |alpha|^2. The ancilla is measured as
    # the adversary does: contract with <eps| (x) I and <eps_perp| (x) I and
    # take the squared norms of the photons left over as outcome weights.
    alpha, beta = 0.6, 0.8
    eps, perp = basis_state(1, 0), basis_state(1, 1)
    chi = State(rotation_operator(0.3) @ ket0().amps)
    rotated = State(rotation_operator(0.3 + 1.2) @ ket0().amps)
    joint = State(alpha * tensor(eps, chi).amps + beta * tensor(perp, rotated).amps)
    bras = np.kron(np.stack([eps.amps, perp.amps]).T.conj(), np.eye(2))
    photon = (joint.amps @ bras).reshape(2, 2)
    weights = np.sum(np.abs(photon) ** 2, axis=1)
    # The weights are the projector expectations <psi| P (x) I |psi>.
    for state, weight in zip([eps, perp], weights):
        p = np.kron(projector(state), np.eye(2))
        assert weight == pytest.approx(np.vdot(joint.amps, p @ joint.amps).real, abs=1e-15)
    rng = np.random.default_rng(5)
    n = 2000
    outcomes = sample_outcomes(np.tile(weights, (n, 1)), rng.random(n))
    hits = int(np.count_nonzero(outcomes == 0))
    probs = weights[outcomes]
    assert probs[outcomes == 0] == pytest.approx(alpha**2, abs=1e-12)
    assert probs[outcomes == 1] == pytest.approx(beta**2, abs=1e-12)
    check_norms(photon[outcomes] / np.sqrt(weights[outcomes])[:, None])
    sigma = np.sqrt(alpha**2 * beta**2 / n)
    assert abs(hits / n - alpha**2) <= 4 * sigma


# The largest double below 1: the highest uniform a generator can draw.
TOP_UNIFORM = np.array([1.0 - 2.0**-53])


def test_measure_fall_through_picks_last_possible_outcome():
    # The norm may drift from 1 within the State tolerance, so the Born
    # probabilities can sum to less than r. The outcome must then be the last
    # one with positive probability, never a zero-probability one.
    drift = 1.0 - 1e-11
    probs = np.array([[0.36 * drift, 0.64 * drift, 0.0], [drift, 0.0, 0.0]])
    assert sample_outcomes(probs, np.repeat(TOP_UNIFORM, 2)).tolist() == [1, 0]
    # Below the total, the first outcome whose cumulative probability exceeds r.
    assert sample_outcomes(probs, np.array([0.36 * drift, 0.0])).tolist() == [1, 0]

    edge = State(np.array([np.sqrt(drift), 0.0], dtype=complex))
    outcomes, probs = measure_photons_z(edge.amps[None, :], TOP_UNIFORM)
    assert outcomes.tolist() == [0] and probs[0] == pytest.approx(drift, abs=1e-15)


# --- partial trace ---

def test_partial_trace_of_product_state(rng):
    a, b = random_state(rng, 1), random_state(rng, 2)
    joint = tensor(a, b)
    assert np.max(np.abs(partial_trace(joint, [0]) - projector(a))) <= 1e-12
    assert np.max(np.abs(partial_trace(joint, [1, 2]) - projector(b))) <= 1e-12


def test_partial_trace_of_bell_state():
    bell = State(np.array([1, 0, 0, 1]) / np.sqrt(2))
    assert np.max(np.abs(partial_trace(bell, [0]) - np.eye(2) / 2)) <= 1e-12


def test_partial_trace_entangler_state_diagonal():
    # theta' = pi/2 makes <chi|U(theta')|chi> = 0, so the ancilla state is
    # exactly |alpha|^2 P_eps + |beta|^2 P_perp.
    alpha, beta = 0.6, 0.8
    theta = 0.7
    eps, perp = basis_state(1, 0), basis_state(1, 1)
    chi = State(rotation_operator(theta) @ ket0().amps)
    rotated = State(rotation_operator(theta + np.pi / 2) @ ket0().amps)
    joint = State(alpha * tensor(eps, chi).amps + beta * tensor(perp, rotated).amps)
    rho = partial_trace(joint, [0])
    expected = alpha**2 * projector(eps) + beta**2 * projector(perp)
    assert np.max(np.abs(rho - expected)) <= 1e-12


def check_density_matrix(rho: np.ndarray, atol: float = ATOL_STATE) -> None:
    if np.max(np.abs(rho - rho.conj().T)) > atol:
        raise InvariantError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > atol:
        raise InvariantError(f"density matrix trace {np.trace(rho)} deviates from 1")
    if np.min(np.linalg.eigvalsh(rho)) < -atol:
        raise InvariantError("density matrix has a negative eigenvalue")


def test_partial_trace_output_is_density_matrix(rng):
    for _ in range(30):
        n = int(rng.integers(2, 5))
        st_ = random_state(rng, n)
        k = int(rng.integers(1, n))
        keep = list(rng.choice(n, size=k, replace=False))
        check_density_matrix(partial_trace(st_, keep))


def test_partial_trace_rejects_empty_keep():
    with pytest.raises(ValueError):
        partial_trace(ket0(2), [])


# --- trace distance ---

def test_trace_distance_identical_is_zero(rng):
    rho = partial_trace(random_state(rng, 2), [0])
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-15)


def test_trace_distance_orthogonal_pure_states():
    assert trace_distance(projector(basis_state(1, 0)), projector(basis_state(1, 1))) == pytest.approx(1.0, abs=1e-12)


def test_trace_distance_pure_states_is_sine():
    for theta in (0.2, 1.0, 2.5):
        rotated = State(rotation_operator(theta) @ ket0().amps)
        td = trace_distance(projector(ket0()), projector(rotated))
        assert td == pytest.approx(abs(np.sin(theta)), abs=1e-12)


def test_trace_distance_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        trace_distance(np.eye(2), np.eye(4))


# --- global phase comparison ---

def test_global_phase_equal_cases(rng):
    psi = random_state(rng, 2)
    assert global_phase_equal(psi, State(-psi.amps))
    assert global_phase_equal(psi, State(1j * psi.amps))
    assert not global_phase_equal(basis_state(1, 0), basis_state(1, 1))


def test_row_checks_cover_every_row_of_a_trial_batch(rng):
    # Rows of shape (trials, photons, D): one bad entry anywhere is caught.
    amps = rng.normal(size=(2, 3, 4)) + 1j * rng.normal(size=(2, 3, 4))
    amps /= np.linalg.norm(amps, axis=-1, keepdims=True)
    thetas = rng.uniform(0, 2 * np.pi, size=(2, 3))
    rotated = rotate_photons(amps, thetas)
    check_norms(rotated)
    for t in range(2):
        for j in range(3):
            alone = rotate_photons(amps[t, j][None], thetas[t, j][None])[0]
            assert np.array_equal(rotated[t, j], alone)
    bad_angle = thetas.copy()
    bad_angle[1, 2] = np.nan
    with pytest.raises(InvariantError, match="rotation is not unitary"):
        rotate_photons(amps, bad_angle)
    bad_row = rotated.copy()
    bad_row[1, 0] *= 1.001
    with pytest.raises(InvariantError, match="norm"):
        check_norms(bad_row)
