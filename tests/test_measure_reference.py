"""The adversary's ancilla contractions against the projector reference.

``EntanglingAdversary`` measures its ancilla twice: at the first-detection
announcement, on the joint (ancilla, photon) rows, and at the end, on the
kept ancillas. Both measurements contract the rows with <eps| and
<eps_perp|: the outcome weights are the squared norms of what is left, the
residual outcome takes the rest, and the collapsed row is |eps> (or
|eps_perp>) times the photon left over, renormalized.

The reference below is the earlier path, kept verbatim with its own
projector kernel: projector sets {P_eps, P_eps_perp, rest} of shape
(3, 2d, 2d) and (3, d, d), checked once per spec and applied through an
``einsum``. Both paths draw the same uniforms from identically seeded
generators, and must pick the same outcomes. For a basis |eps> the
contraction reads and writes the same amplitudes as the projectors, so
probabilities and collapsed rows are equal; for any other |eps> both sum
in different orders, and they may differ in the last bits, within 2e-15. A
whole benchmark-shaped qgwz campaign keeps every discrete field and every
recovery probability.
"""
import dataclasses
import sys
from functools import lru_cache

import numpy as np
import pytest

from qsslab import attack
from qsslab.analysis import derive_seed
from qsslab.attack import EntanglerSpec, EntanglingAdversary, qgwz_spec, random_entangler_spec
from qsslab.protocol import BatchResult, ProtocolConfig, run_protocol_batch
from qsslab.quantum import (
    ATOL_STATE,
    InvariantError,
    State,
    basis_state,
    canonical_angles,
    check_norms,
    sample_outcomes,
)

# Largest difference allowed between the two paths for a non-basis |eps>.
ATOL = 2e-15


# -- the reference: the projector path, verbatim -----------------------------


def projector(state: State) -> np.ndarray:
    return np.outer(state.amps, state.amps.conj())


def check_projectors(projectors: list[np.ndarray], dim: int) -> None:
    total = sum(projectors)
    if np.max(np.abs(total - np.eye(dim))) > ATOL_STATE:
        raise InvariantError("projectors do not sum to the identity")
    for i in range(len(projectors)):
        for j in range(i + 1, len(projectors)):
            if np.max(np.abs(projectors[i] @ projectors[j])) > ATOL_STATE:
                raise InvariantError(f"projectors {i} and {j} are not orthogonal")


def measure_projective_rows(
    amps: np.ndarray, projectors: np.ndarray, r: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Born-rule measurement of every row of ``amps`` (n, D) against one
    complete orthogonal projector set (k, D, D), with uniforms ``r`` (n,).

    Returns (outcomes, collapsed rows, outcome probabilities). The projector
    set is not validated here; callers check it once with ``check_projectors``.
    """
    projected = np.einsum("kij,nj->nki", projectors, amps)
    probs = np.einsum("nj,nkj->nk", amps.conj(), projected).real
    outcomes = sample_outcomes(probs, r)
    rows = np.arange(len(amps))
    p = probs[rows, outcomes]
    collapsed = projected[rows, outcomes] / np.sqrt(p)[:, None]
    check_norms(collapsed)
    return outcomes, collapsed, p


def ancilla_projectors(spec: EntanglerSpec, with_photon: bool) -> list[np.ndarray]:
    """{P_eps, P_eps_perp, rest} on the ancilla, optionally extended over the photon."""
    p_eps = projector(spec.epsilon)
    p_perp = projector(spec.epsilon_perp)
    if with_photon:
        eye2 = np.eye(2, dtype=complex)
        p_eps = np.kron(p_eps, eye2)
        p_perp = np.kron(p_perp, eye2)
    rest = np.eye(p_eps.shape[0], dtype=complex) - p_eps - p_perp
    return [p_eps, p_perp, rest]


@lru_cache(maxsize=16)
def _projector_sets(spec: EntanglerSpec) -> tuple[np.ndarray, np.ndarray]:
    """The adversary's (joint, ancilla-only) projector sets for ``spec``, each
    built and checked once and returned read-only, like the entangler."""
    joint = np.array(ancilla_projectors(spec, with_photon=True))
    ancilla = np.array(ancilla_projectors(spec, with_photon=False))
    check_projectors(list(joint), 2 * spec.ancilla_dim)
    check_projectors(list(ancilla), spec.ancilla_dim)
    joint.flags.writeable = ancilla.flags.writeable = False
    return joint, ancilla


class ProjectorAdversary(EntanglingAdversary):
    """The adversary with its two measurements on the projector sets."""

    def __init__(self, spec, rngs, rule=attack.DEFAULT_GUESS_RULE, adaptive=True):
        super().__init__(spec, rngs, rule, adaptive)
        self._joint_projs, self._ancilla_projs = _projector_sets(spec)

    def on_check_announcement(
        self, photon_ids: np.ndarray, honest_angles: np.ndarray, amps: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        if not self.adaptive:
            return honest_angles, amps
        outcomes, collapsed, probs = measure_projective_rows(
            amps.reshape(-1, amps.shape[-1]),
            self._joint_projs,
            np.concatenate([rng.random(amps.shape[1]) for rng in self.rngs]),
        )
        residual = np.flatnonzero(outcomes == 2)
        if residual.size:
            raise InvariantError(
                "residual outcome outside span(eps, eps_perp) with probability "
                f"{probs[residual[0]]}"
            )
        shifted = canonical_angles(honest_angles + self.spec.theta_prime)
        announced = np.where(outcomes.reshape(honest_angles.shape) == 0, honest_angles, shifted)
        return announced, collapsed.reshape(amps.shape)

    def on_finish(self) -> np.ndarray:
        """Measure the kept ancillas; the bit guess per (trial, photon), -1
        for a photon whose ancilla was not measured: every check photon, and
        every photon of a trial whose photons never returned."""
        if self._returned is not None:
            trials, photon_ids, ancillas = self._returned
            outcomes, _, probs = measure_projective_rows(
                ancillas,
                self._ancilla_projs,
                np.concatenate([self.rngs[t].random(photon_ids.shape[1]) for t in trials]),
            )
            residual = np.flatnonzero(outcomes == 2)
            if residual.size:
                raise InvariantError(
                    "final ancilla outcome outside span(eps, eps_perp), probability "
                    f"{probs[residual[0]]}"
                )
            self.final_outcomes[trials[:, None], photon_ids] = outcomes.reshape(photon_ids.shape)
        return np.where(self.final_outcomes < 0, -1, self.rule(self.final_outcomes))


# -- the comparisons ---------------------------------------------------------


def basis_spec(rng: np.random.Generator, dim: int) -> EntanglerSpec:
    """|eps> and |eps_perp> two distinct basis states, random weights and angle."""
    i, j = rng.choice(dim, size=2, replace=False)
    qubits = dim.bit_length() - 1
    mix = rng.uniform(0.0, np.pi / 2)
    return EntanglerSpec(
        basis_state(qubits, int(i)),
        basis_state(qubits, int(j)),
        np.cos(mix) * np.exp(1j * rng.uniform(0.0, 2 * np.pi)),
        np.sin(mix) * np.exp(1j * rng.uniform(0.0, 2 * np.pi)),
        float(rng.uniform(0.0, 2 * np.pi)),
    )


SPECS = [
    pytest.param(kind, dim, seed, id=f"{kind}-d{dim}-{seed}")
    for kind in ("basis", "random")
    for dim in (2, 4, 8)
    for seed in range(3)
]


def make_spec(kind: str, dim: int, seed: int) -> EntanglerSpec:
    rng = np.random.default_rng([dim, seed])
    return basis_spec(rng, dim) if kind == "basis" else random_entangler_spec(rng, dim)


@pytest.fixture
def sampled(monkeypatch):
    """The (probabilities, outcomes) of every ``sample_outcomes`` call, per path."""
    calls = {"contraction": [], "reference": []}
    real = sample_outcomes

    def spy(path):
        def sample(probs, r):
            outcomes = real(probs, r)
            calls[path].append((probs.copy(), outcomes.copy()))
            return outcomes
        return sample

    monkeypatch.setattr(attack, "sample_outcomes", spy("contraction"))
    monkeypatch.setattr(sys.modules[__name__], "sample_outcomes", spy("reference"))
    return calls


def assert_close(got, want, exact):
    if exact:
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want), initial=0.0) <= ATOL


def assert_same_draws(sampled, exact):
    """Same outcomes, and the same weights on eps and eps_perp, in every call."""
    assert len(sampled["contraction"]) == len(sampled["reference"]) == 1
    (probs, outcomes), (probs_ref, outcomes_ref) = (sampled[p][0] for p in sampled)
    assert np.array_equal(outcomes, outcomes_ref)
    assert_close(probs[:, :2], probs_ref[:, :2], exact)


def adversaries(spec, trials):
    """The contraction and the reference, each with its own generators seeded alike."""
    return [cls(spec, [np.random.default_rng([7, t]) for t in range(trials)])
            for cls in (EntanglingAdversary, ProjectorAdversary)]


@pytest.mark.parametrize("kind, dim, seed", SPECS)
def test_announcement_matches_reference(sampled, kind, dim, seed):
    spec = make_spec(kind, dim, seed)
    rng = np.random.default_rng([dim, seed, 1])
    trials, photons = 3, 40
    thetas = rng.uniform(0.0, 2 * np.pi, size=(trials, photons))
    chi = np.stack([np.cos(thetas), np.sin(thetas)], axis=-1).astype(complex)
    ids = np.tile(np.arange(photons), (trials, 1))
    honest = rng.uniform(0.0, 2 * np.pi, size=ids.shape)
    new, ref = adversaries(spec, trials)
    rows = new.on_photon_forward(ids, chi)
    assert np.array_equal(rows, ref.on_photon_forward(ids, chi))
    announced, collapsed = new.on_check_announcement(ids, honest, rows)
    announced_ref, collapsed_ref = ref.on_check_announcement(ids, honest, rows)
    assert np.array_equal(announced, announced_ref)
    assert_close(collapsed, collapsed_ref, exact=kind == "basis")
    assert_same_draws(sampled, exact=kind == "basis")
    # The draws left both generators at the same point.
    assert [g.random() for g in new.rngs] == [g.random() for g in ref.rngs]


@pytest.mark.parametrize("kind, dim, seed", SPECS)
def test_final_measurement_matches_reference(sampled, kind, dim, seed):
    spec = make_spec(kind, dim, seed)
    rng = np.random.default_rng([dim, seed, 2])
    trials, photons = 4, 30
    ids = np.tile(np.arange(photons), (trials, 1))
    # Kept ancillas anywhere in span(eps, eps_perp), so that both outcomes
    # occur; the attack itself always returns |eps>. Trial 2 never returned.
    weights = rng.normal(size=(2, 3 * photons, 1)) + 1j * rng.normal(size=(2, 3 * photons, 1))
    ancillas = weights[0] * spec.epsilon.amps + weights[1] * spec.epsilon_perp.amps
    ancillas /= np.linalg.norm(ancillas, axis=1, keepdims=True)
    kept = np.array([0, 1, 3])
    guesses = []
    for adv in adversaries(spec, trials):
        adv.on_photon_forward(ids, np.zeros((trials, photons, 2)))
        adv._returned = (kept, ids[kept], ancillas.copy())
        guesses.append(adv.on_finish())
    assert np.array_equal(guesses[0], guesses[1])
    assert set(np.unique(guesses[0]).tolist()) == {-1, 0, 1}
    assert_same_draws(sampled, exact=kind == "basis")


def random_ancilla(rng: np.random.Generator) -> State:
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    return State(amps / np.linalg.norm(amps))


@pytest.mark.parametrize("seed", range(10))
def test_campaign_matches_reference(seed):
    # Shaped like the benchmark's qgwz workload: 3 agents, 100-bit messages,
    # 136 photons, a random two-qubit ancilla and 10 trials in one batch.
    rng = np.random.default_rng([14, seed])
    config = ProtocolConfig(num_agents=3, message_length=100, check_fraction_first=0.25,
                            num_second_checks=2, seed=int(rng.integers(2**31)))
    spec = qgwz_spec(random_ancilla(rng))
    seeds = [derive_seed(config.seed, i) for i in range(10)]
    batch, ref = (run_protocol_batch(config, seeds, lambda rngs, cls=cls: cls(spec, rngs))
                  for cls in (EntanglingAdversary, ProjectorAdversary))
    assert batch.first_passed.all() and (batch.guesses >= 0).any()
    for field in dataclasses.fields(BatchResult):
        got, want = getattr(batch, field.name), getattr(ref, field.name)
        if field.name == "check_probabilities":
            assert_close(got, want, exact=False)
        elif isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and np.array_equal(got, want), field.name
        else:
            assert got == want, field.name
