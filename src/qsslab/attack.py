"""Generalized entangling participant attack and its controlled-gate special case.

The dishonest agent prepares an ancilla in |eps>, entangles it with each
transiting photon via a unitary E acting as

    E(|eps> (x) |chi>) = alpha |eps>|chi> + beta |eps_perp> U(theta') |chi>

for every single-qubit |chi>, adaptively announces either its committed angle
theta_c or theta_c + theta' depending on an ancilla measurement (escaping the
first detection), applies E^-1 when the photon returns, and measures the
ancilla to guess the encoded bit. The ancilla always comes back to |eps>
whatever the bit was, so every guess rule is uninformative.

E is pinned only on |eps> (x) C^2, so every completion of it is the same
attack. The attack and the exact analysis read only the ``EntanglerSpec``'s
block of E and Gram matrix, built once with the spec; ``build_entanglers``
writes one completion of the whole E.

The controlled-controlled -i*sigma_y special attack is ``qgwz_spec``; its
circuit, ``cli.CCY_CIRCUIT``, is what criteria 3 and 7 of ``qsslab verify`` run.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .protocol import ConfigError, as_integer
from .quantum import (
    ATOL_STATE,
    InvariantError,
    State,
    # Not called in this module; kept importable because qssbench/selftest.py
    # checks that the benchmark's tracer patches it here.
    apply_unitary,  # noqa: F401
    basis_state,
    canonical_angle,
    canonical_angles,
    check_norms,
    check_unitary,
    sample_outcomes,
)

# Largest ancilla dimension d of an attack or a sweep. An attacked photon's
# row holds 4 amplitudes whatever d is (``EntanglingAdversary``); d sizes
# only the spec's vectors and the S (2d)^2 amplitudes of a stack of S
# entanglers (``build_entanglers``).
MAX_ANCILLA_DIM = 8

# Angle by which the receiver's message-encoding rotation shifts the photon:
# encoding with -i*sigma_y sends angle theta to theta - 3*pi/2.
ENCODING_SHIFT = -3 * np.pi / 2


@dataclass(frozen=True, eq=False)
class EntanglerSpec:
    """Parameters (d, |eps>, |eps_perp>, alpha, beta, theta') of the entangler,
    and the two operators that the attack and the exact analysis read, built
    and checked once here, read-only: the pair's Gram matrix ``gram``
    (``gram_matrices``) and E's 4 x 4 block ``block`` on
    span(eps, eps_perp) (x) C^2 (``entangler_blocks``)."""

    epsilon: State
    epsilon_perp: State
    alpha: complex
    beta: complex
    theta_prime: float
    gram: np.ndarray = field(init=False, repr=False)
    block: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # Each check is written so that a NaN fails it.
        for name, kind in (("epsilon", State), ("epsilon_perp", State), ("alpha", numbers.Complex),
                           ("beta", numbers.Complex), ("theta_prime", numbers.Real)):
            value = getattr(self, name)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise InvariantError(f"{name} must be of type {kind.__name__}, got {value!r}")
        if not math.isfinite(self.theta_prime):
            raise InvariantError(f"theta_prime must be finite, got {self.theta_prime}")
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        object.__setattr__(self, "theta_prime", canonical_angle(self.theta_prime))
        dim = self.epsilon.dim
        if dim != self.epsilon_perp.dim:
            raise InvariantError(
                f"ancilla dimension mismatch: {dim} vs {self.epsilon_perp.dim}"
            )
        if dim < 2:
            raise InvariantError("ancilla dimension must be >= 2")
        if dim > MAX_ANCILLA_DIM:
            raise InvariantError(
                f"ancilla dimension {dim} exceeds MAX_ANCILLA_DIM = {MAX_ANCILLA_DIM}"
            )
        # a * a rather than a ** 2: a float power raises OverflowError on huge input.
        a, b = abs(self.alpha), abs(self.beta)
        eta = a * a + b * b - 1.0
        if not abs(eta) <= ATOL_STATE:
            raise InvariantError("|alpha|^2 + |beta|^2 must equal 1")
        # E^dagger E - I = W (eta I + (B - I)^dagger D (B - I)) W^dagger for
        # W = (|eps>, |eps_perp>) (x) I, D = W^dagger W - I and B the block of
        # ``entangler_blocks``, with ||B - I|| <= 2: so E passes its unitarity
        # check when |eta| + 4 ||D|| <= ATOL_STATE, which asks more of the
        # pair than each State alone meets.
        gram = gram_matrices(self.epsilon.amps[None], self.epsilon_perp.amps[None])[0]
        bound = abs(eta) + 4 * float(np.linalg.norm(gram - np.eye(2)))
        if not bound <= ATOL_STATE:
            raise InvariantError(
                f"|eps> and |eps_perp> must be orthonormal: with alpha and beta they leave "
                f"the entangler up to {bound:.3e} from unitary, more than {ATOL_STATE}"
            )
        block = entangler_blocks([self.alpha], [self.beta], [self.theta_prime])[0]
        for name, value in (("gram", gram), ("block", block)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def ancilla_dim(self) -> int:
        return self.epsilon.dim


class GuessRule:
    """Maps final ancilla outcomes (eps vs eps_perp) to bit guesses; each bit
    is an integer 0 or 1, checked when the rule is built (``ConfigError``)."""

    def __init__(self, eps_bit: int = 0, eps_perp_bit: int = 1):
        self.eps_bit = as_integer(eps_bit, "eps_bit")
        self.eps_perp_bit = as_integer(eps_perp_bit, "eps_perp_bit")
        if self.eps_bit not in (0, 1) or self.eps_perp_bit not in (0, 1):
            raise ConfigError("guess rule bits must be 0 or 1")

    def __call__(self, outcomes) -> np.ndarray:
        """The guess for each outcome (0 for eps) of ``outcomes``, elementwise."""
        return np.where(np.asarray(outcomes) == 0, self.eps_bit, self.eps_perp_bit)

    def __repr__(self):
        return f"GuessRule(eps_bit={self.eps_bit}, eps_perp_bit={self.eps_perp_bit})"


DEFAULT_GUESS_RULE = GuessRule()


def gram_matrices(epsilon, epsilon_perp) -> np.ndarray:
    """The Gram matrices Gamma (S, 2, 2) of S pairs given as (S, d) arrays,
    Gamma[k, l] = <k|l> for k, l in (eps, eps_perp): one ``np.einsum``
    without ``optimize``, so no BLAS kernel picks the bits."""
    pair = np.stack([epsilon, epsilon_perp], axis=1)
    return np.einsum("ska,sla->skl", pair.conj(), pair, optimize=False)


def entangler_blocks(alpha, beta, theta_prime) -> np.ndarray:
    """The blocks B (S, 4, 4) of S entanglers on span(eps, eps_perp) (x) C^2,
    from their alpha, beta and canonical theta' (S,): E V = V B for
    V = (|eps>, |eps_perp>) (x) I. Rows and columns are (k, p) as 2k + p,
    for k = 0 on |eps>, k = 1 on |eps_perp> and p the photon.

    B is [[alpha I, -conj(beta) U^T], [beta U, conj(alpha) I]] for
    U = U(theta'). Each entry is at most one elementwise product, so a block
    has the same bits in any stack; the stack is checked unitary once.
    """
    alpha = np.asarray(alpha, dtype=complex)
    beta = np.asarray(beta, dtype=complex)
    c, s = np.cos(theta_prime), np.sin(theta_prime)
    turned, back_turned = s * beta, s * beta.conj()
    blocks = np.zeros((len(alpha), 4, 4), dtype=complex)
    blocks[:, 0, 0] = blocks[:, 1, 1] = alpha
    blocks[:, 2, 0] = blocks[:, 3, 1] = c * beta
    blocks[:, 3, 0], blocks[:, 2, 1] = turned, -turned
    blocks[:, 2, 2] = blocks[:, 3, 3] = alpha.conj()
    blocks[:, 0, 2] = blocks[:, 1, 3] = -(c * beta.conj())
    blocks[:, 1, 2], blocks[:, 0, 3] = back_turned, -back_turned
    check_unitary(blocks)
    return blocks


def build_entanglers(specs) -> np.ndarray:
    """The entanglers E (S, 2d, 2d) of ``specs``, S specs of one ancilla
    dimension d.

    E is pinned only on |eps> (x) C^2, where it maps |eps>|chi> to
    alpha |eps>|chi> + beta |eps_perp> U(theta')|chi>, so every completion
    of E is the same attack. This one is, in closed form, each spec's
    ``block`` on span(eps, eps_perp) (x) C^2 and the identity on the rest
    of the ancilla; its coefficients are read from that block. Each entry is
    a few elementwise products and sums, so an operator has the same bits in
    any stack; the stack is checked unitary once.
    """
    specs = list(specs)
    eps = np.stack([spec.epsilon.amps for spec in specs])
    perp = np.stack([spec.epsilon_perp.amps for spec in specs])
    # Columns (S, 1) of the block: B[0, 0] = alpha, B[2, 0] = c beta,
    # B[3, 0] = s beta, B[2, 2] = conj(alpha), B[0, 2] = -c conj(beta) and
    # B[1, 2] = s conj(beta), for c, s = cos theta', sin theta'.
    blocks = np.stack([spec.block for spec in specs])[..., None]
    d = eps.shape[1]

    def outer(u, v):
        """|u><v| of each spec, (S, d, d)."""
        return u[:, :, None] * v.conj()[:, None, :]

    # E's ancilla blocks (S, d, d) for photon out p, in q: kept + back where
    # p = q, turned + back_turned where (p, q) = (1, 0), and minus that where
    # (p, q) = (0, 1). ``kept`` and ``turned`` act on |eps>, the others on
    # the rest of the ancilla.
    kept = outer(blocks[:, 0, 0] * eps + blocks[:, 2, 0] * perp, eps)
    turned = outer(blocks[:, 3, 0] * perp, eps)
    back = (np.eye(d) - outer(eps, eps) - outer(perp, perp)
            + outer(blocks[:, 2, 2] * perp + blocks[:, 0, 2] * eps, perp))
    back_turned = outer(blocks[:, 1, 2] * eps, perp)
    e = np.empty((len(eps), d, 2, d, 2), dtype=complex)
    e[:, :, 0, :, 0] = e[:, :, 1, :, 1] = kept + back
    e[:, :, 1, :, 0] = turned + back_turned
    e[:, :, 0, :, 1] = -e[:, :, 1, :, 0]
    entanglers = e.reshape(len(eps), 2 * d, 2 * d)
    check_unitary(entanglers)
    return entanglers


def build_entangler(spec: EntanglerSpec) -> np.ndarray:
    """Unitary E on ancilla (x) photon realizing the attack on |eps> (x) C^2:
    ``build_entanglers`` on a stack of one."""
    return build_entanglers([spec])[0]


def qgwz_spec(ancilla_state: State) -> EntanglerSpec:
    """Entangler parameters for the controlled-controlled-(-i*sigma_y) attack.

    The prepared two-qubit ancilla splits as alpha|eps> + beta|11> with |eps>
    the normalized non-|11> component; the gate rotates the photon by
    theta' = -3*pi/2 exactly on the |11> branch.
    """
    if ancilla_state.num_qubits != 2:
        raise InvariantError("qgwz ancilla must be a 2-qubit state")
    amps = ancilla_state.amps
    beta = complex(amps[3])
    rest = amps.copy()
    rest[3] = 0.0
    alpha = float(np.linalg.norm(rest))
    if alpha > ATOL_STATE:
        epsilon = State(rest / alpha)
    else:
        # Degenerate pure-|11> ancilla: any state orthogonal to |11> works.
        alpha = 0.0
        epsilon = basis_state(2, 0)
    return EntanglerSpec(
        epsilon=epsilon,
        epsilon_perp=basis_state(2, 3),
        alpha=alpha,
        beta=beta,
        theta_prime=ENCODING_SHIFT,
    )


def _span_outcomes(probs: np.ndarray, r: np.ndarray, refusal: str) -> np.ndarray:
    """Born outcome per row of ``probs`` (n, 2), the weights on |eps> and
    |eps_perp>, for uniforms ``r`` (n,): 0 for eps, 1 for eps_perp.

    What is left, 1 - p_eps - p_eps_perp, is the residual outcome outside
    span(eps, eps_perp), which the adversary's span rows reach only through
    rounding, a pair that is not quite orthonormal or a row without its
    weight; drawing it raises ``InvariantError`` with ``refusal`` and its
    probability.
    """
    rest = 1.0 - probs[:, 0] - probs[:, 1]
    outcomes = sample_outcomes(np.column_stack([probs, rest]), r)
    residual = np.flatnonzero(outcomes == 2)
    if residual.size:
        raise InvariantError(f"{refusal} {rest[residual[0]]}")
    return outcomes


def _apply(matrix: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``matrix`` (..., m, k) times each vector of ``vectors`` (..., k): one
    matrix for all, or one per vector. Written as k elementwise products
    added in order, so no BLAS kernel picks the bits and a vector has the
    same bits in any batch."""
    out = vectors[..., 0, None] * matrix[..., :, 0]
    for j in range(1, vectors.shape[-1]):
        out = out + vectors[..., j, None] * matrix[..., :, j]
    return out


class EntanglingAdversary:
    """Adversary hook running the entangling attack inside a batch of
    protocol runs, with one generator per run in ``rngs``.

    Hooks take the batch's trial axis (see ``protocol.NullAdversary``); each
    trial draws from its own generator, in trial order. ``adaptive=False``
    gives the naive control variant that always announces its honest angle
    without measuring the ancilla (and so gets caught at the per-photon rate
    |beta|^2 sin^2(theta')).

    The ancilla never leaves span(eps, eps_perp): E maps |eps> (x) C^2 into
    span (x) C^2, the announcement collapses the ancilla onto |eps> or
    |eps_perp>, and E^-1 maps span (x) C^2 to itself. So every row the hooks
    return holds 4 amplitudes, whatever d is: the joint state's coordinates
    (k, p) at index 2k + p, for k = 0 on |eps>, k = 1 on |eps_perp> and p the
    photon. The hooks read only the spec's block B of E there and its pair's
    Gram matrix Gamma, built and checked with the spec, and apply them as
    elementwise sums (``_apply``).
    """

    def __init__(
        self,
        spec: EntanglerSpec,
        rngs: list[np.random.Generator],
        rule: GuessRule = DEFAULT_GUESS_RULE,
        adaptive: bool = True,
    ):
        self.spec = spec
        self.rngs = list(rngs)
        self.rule = rule
        self.adaptive = adaptive
        # Final ancilla outcome per (trial, photon): 0 for eps, 1 for eps_perp,
        # -1 where no ancilla was measured. Sized by the forward hook.
        self.final_outcomes: np.ndarray | None = None
        # Ancilla factors split off returning photons, as coordinates on
        # (eps, eps_perp): (trials, photon ids, rows).
        self._returned: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def _contract(self, rows: np.ndarray) -> np.ndarray:
        """The photons (n, 2, 2) that <eps| (x) I (k = 0) and <eps_perp| (x) I
        (k = 1) leave of each row (n, 2, 2): sum_l Gamma[k, l] rows[n, l]."""
        return _apply(self.spec.gram, rows.swapaxes(1, 2)).swapaxes(1, 2)

    def on_photon_forward(self, photon_ids: np.ndarray, amps: np.ndarray) -> np.ndarray:
        if amps.shape[-1] != 2:
            raise InvariantError("attack expects a bare single-photon state on the channel")
        self.final_outcomes = np.full(photon_ids.shape, -1)
        # |eps> (x) chi is the coordinate vector (chi, 0, 0): B's first two columns.
        return _apply(self.spec.block[:, :2], amps)

    def on_check_announcement(
        self, photon_ids: np.ndarray, honest_angles: np.ndarray, amps: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        if not self.adaptive:
            return honest_angles, amps
        # photon[n, k]: the photon left in row n by <eps| (x) I (k = 0) and
        # by <eps_perp| (x) I (k = 1); its squared norm is the outcome's weight.
        photon = self._contract(amps.reshape(-1, 2, 2))
        weights = photon.real**2 + photon.imag**2
        probs = weights[..., 0] + weights[..., 1]
        outcomes = _span_outcomes(
            probs,
            np.concatenate([rng.random(amps.shape[1]) for rng in self.rngs]),
            "residual outcome outside span(eps, eps_perp) with probability",
        )
        # The collapsed row is |k> (x) photon / sqrt(p): the photon in slice k.
        rows = np.arange(len(photon))
        kept = photon[rows, outcomes] / np.sqrt(probs[rows, outcomes])[:, None]
        collapsed = np.zeros_like(photon)
        collapsed[rows, outcomes] = kept
        collapsed = collapsed.reshape(amps.shape)
        check_norms(collapsed)
        shifted = canonical_angles(honest_angles + self.spec.theta_prime)
        announced = np.where(outcomes.reshape(honest_angles.shape) == 0, honest_angles, shifted)
        return announced, collapsed

    def on_photon_return(
        self, trials: np.ndarray, photon_ids: np.ndarray, amps: np.ndarray
    ) -> np.ndarray:
        # E^-1 = E^dagger acts on span (x) C^2 as B^dagger.
        separated = _apply(self.spec.block.conj().T, amps.reshape(-1, 4)).reshape(-1, 2, 2)
        # By the attack's construction E^-1 returns the ancilla to |eps>, so
        # <eps| (x) I splits the photon off; its norm is the Schmidt weight
        # on |eps>, and anything short of 1 is residual entanglement.
        photon = self._contract(separated)[:, 0]
        squares = photon.real**2 + photon.imag**2
        weight = np.sqrt(squares[:, 0] + squares[:, 1])
        if np.any(weight < 1.0 - 1e-8):
            raise InvariantError(
                f"state is not a product with |eps> (Schmidt weight {weight.min()})"
            )
        ancilla = _apply(separated, photon.conj())
        squares = ancilla.real**2 + ancilla.imag**2
        ancilla /= np.sqrt(squares[:, 0] + squares[:, 1])[:, None]
        check_norms(photon)
        self._returned = (np.asarray(trials), np.asarray(photon_ids), ancilla)
        return photon.reshape(*amps.shape[:-1], 2)

    def on_finish(self) -> np.ndarray:
        """Measure the kept ancillas; the bit guess per (trial, photon), -1
        for a photon whose ancilla was not measured: every check photon, and
        every photon of a trial whose photons never returned."""
        if self._returned is not None:
            trials, photon_ids, ancillas = self._returned
            # <k|ancilla> = sum_l Gamma[k, l] ancilla[l].
            overlaps = _apply(self.spec.gram, ancillas)
            outcomes = _span_outcomes(
                overlaps.real**2 + overlaps.imag**2,
                np.concatenate([self.rngs[t].random(photon_ids.shape[1]) for t in trials]),
                "final ancilla outcome outside span(eps, eps_perp), probability",
            )
            self.final_outcomes[trials[:, None], photon_ids] = outcomes.reshape(photon_ids.shape)
        return np.where(self.final_outcomes < 0, -1, self.rule(self.final_outcomes))


def random_entangler_spec(rng: np.random.Generator, ancilla_dim: int | None = None) -> EntanglerSpec:
    """Random attack parameters: orthonormal ancilla pair, random weights and angle."""
    d = int(ancilla_dim) if ancilla_dim is not None else int(rng.choice([2, 4, 8]))
    eps = rng.normal(size=d) + 1j * rng.normal(size=d)
    eps /= np.linalg.norm(eps)
    perp = rng.normal(size=d) + 1j * rng.normal(size=d)
    perp -= np.vdot(eps, perp) * eps
    perp /= np.linalg.norm(perp)
    mix = rng.uniform(0.0, np.pi / 2)
    alpha = np.cos(mix) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
    beta = np.sin(mix) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
    return EntanglerSpec(
        epsilon=State(eps),
        epsilon_perp=State(perp),
        alpha=alpha,
        beta=beta,
        theta_prime=float(rng.uniform(0.0, 2 * np.pi)),
    )

