"""Quantitative evaluation: distinguishability metrics, sweeps, Monte Carlo campaigns."""
from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .attack import (
    MAX_ANCILLA_DIM,
    EntanglerSpec,
    EntanglingAdversary,
    GuessRule,
    build_entangler,
)
from .protocol import (
    MAX_RUN_SIZE,
    ProtocolConfig,
    RunResult,
    config_to_dict,
    run_protocol_batch,
)
from .quantum import (
    MINUS_I_SIGMA_Y,
    apply_photon_op,
    # Not called in this module; kept importable because qssbench/selftest.py
    # checks that the benchmark's tracer patches it here.
    apply_unitary,  # noqa: F401
    basis_state,
)

REPORT_FIELDS = (
    "trials",
    "attacker_accuracy",
    "ci_low",
    "ci_high",
    "first_detection_pass_rate",
    "recovery_accuracy",
    "max_trace_distance",
    "helstrom_bound",
    "seed",
)

# Random photon angles at which an attack campaign evaluates the exact
# trace distance for its report's max_trace_distance.
THETA_SAMPLES = 20


def helstrom_bound(td):
    """Optimal success probability for distinguishing two equiprobable states
    at trace distance ``td`` (a float or an array)."""
    return 0.5 * (1.0 + td)


def wilson_interval(successes: int, total: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if total == 0:
        return 0.0, 1.0
    p = successes / total
    denom = 1.0 + z**2 / total
    center = (p + z**2 / (2 * total)) / denom
    half = (z / denom) * np.sqrt(p * (1 - p) / total + z**2 / (4 * total**2))
    return max(0.0, center - half), min(1.0, center + half)


def _encoded_rows(spec: EntanglerSpec, thetas):
    """The entangler E, and the joint (ancilla, photon) rows E(|eps> (x) U(theta)|0>)
    with message bit 0 and bit 1 encoded on the photon, shape (2, len(thetas), 2d)."""
    entangler = build_entangler(spec)
    thetas = np.asarray(thetas, dtype=float)
    chi = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    joint = (spec.epsilon.amps[None, :, None] * chi[:, None, :]).reshape(len(chi), -1)
    # One matrix-vector product per row, as a batched matmul. The row form
    # ``joint @ E.T`` is one gemm whose results differ in the last bits, and
    # so would break the byte-pinned sweep tables and reports.
    bit0 = (entangler @ joint[..., None])[..., 0]
    return entangler, np.stack([bit0, apply_photon_op(bit0, MINUS_I_SIGMA_Y)])


def _trace_distances(rho: np.ndarray) -> np.ndarray:
    """Trace distance between the bit-0 and bit-1 density matrices, per angle."""
    return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho[0] - rho[1])), axis=1)


def indistinguishability(spec: EntanglerSpec, thetas) -> np.ndarray:
    """Trace distance between the attacker's post-inverse ancilla states
    conditioned on message bit 0 vs 1, computed exactly at each photon angle
    in ``thetas``; ``helstrom_bound`` of it is the best guessing probability."""
    entangler, rows = _encoded_rows(spec, thetas)
    # E^-1 in the same matrix-vector form. Read as a d x 2 (ancilla, photon)
    # matrix M, each row gives the ancilla's reduced state M M^dagger.
    m = (entangler.conj().T @ rows[..., None]).reshape(*rows.shape[:2], -1, 2)
    return _trace_distances(m @ m.conj().swapaxes(-1, -2))


def counterfactual_joint_distance(spec: EntanglerSpec, thetas) -> np.ndarray:
    """Diagnostic: trace distance of the *joint* states when the attacker keeps
    the photon and skips the inverse entangler. Nonzero for generic theta,
    which shows the indistinguishability test is sensitive."""
    _, rows = _encoded_rows(spec, thetas)
    return _trace_distances(rows[..., :, None] * rows.conj()[..., None, :])


@dataclass(frozen=True)
class ScenarioReport:
    trials: int
    attacker_accuracy: float | None
    ci_low: float | None
    ci_high: float | None
    first_detection_pass_rate: float
    recovery_accuracy: float
    max_trace_distance: float
    helstrom_bound: float
    seed: int
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {name: getattr(self, name) for name in REPORT_FIELDS}
        out["config"] = self.config
        return out

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict())

    def to_csv(self) -> str:
        header = ",".join(REPORT_FIELDS)
        row = ",".join(
            "" if getattr(self, name) is None
            else (f"{getattr(self, name):.17g}" if isinstance(getattr(self, name), float)
                  else str(getattr(self, name)))
            for name in REPORT_FIELDS
        )
        return header + "\n" + row + "\n"

    def to_text(self) -> str:
        lines = [f"trials                    {self.trials}"]
        if self.attacker_accuracy is None:
            lines.append("attacker_accuracy         n/a (no attack configured)")
        else:
            lines.append(
                f"attacker_accuracy         {self.attacker_accuracy:.6g}"
                f"  (95% CI [{self.ci_low:.6g}, {self.ci_high:.6g}])"
            )
        lines += [
            f"first_detection_pass_rate {self.first_detection_pass_rate:.6g}",
            f"recovery_accuracy         {self.recovery_accuracy:.6g}",
            f"max_trace_distance        {self.max_trace_distance:.6g}",
            f"helstrom_bound            {self.helstrom_bound:.6g}",
            f"seed                      {self.seed}",
        ]
        return "\n".join(lines) + "\n"


def derive_seed(master: int, index: int) -> int:
    """Deterministic child seed of trial ``index``; independent of evaluation order."""
    return int(np.random.SeedSequence([master, index]).generate_state(1)[0])


def run_batch(
    config: ProtocolConfig,
    trial_indices: Iterable[int],
    attack: EntanglerSpec | None,
    rule: GuessRule,
) -> list[RunResult]:
    """Run the trials ``trial_indices`` of a campaign as one batch.

    Trial i runs with seed ``derive_seed(config.seed, i)``; its result is the
    same alone or in any batch (``protocol.run_protocol_batch``).
    """
    factory = None
    if attack is not None:
        factory = lambda rngs: EntanglingAdversary(attack, rngs, rule)
    seeds = [derive_seed(config.seed, i) for i in trial_indices]
    return run_protocol_batch(config, seeds, factory)


def run_trial(
    config: ProtocolConfig,
    trial_index: int,
    attack: EntanglerSpec | None,
    rule: GuessRule,
) -> RunResult:
    return run_batch(config, [trial_index], attack, rule)[0]


def run_trials(
    config: ProtocolConfig,
    attack: EntanglerSpec | None,
    rule: GuessRule,
    trials: int,
) -> Iterator[RunResult]:
    """Yield the runs of trials 0 .. trials-1, in order.

    Trials run in batches (``run_batch``) of as many trials as fit in
    ``MAX_RUN_SIZE`` photons x agents, and at least one, so a campaign
    streams one batch at a time.
    """
    config.validate()
    per_batch = max(1, MAX_RUN_SIZE // (config.sequence_length() * config.num_agents))
    for start in range(0, trials, per_batch):
        batch = run_batch(config, range(start, min(start + per_batch, trials)), attack, rule)
        # Let go of each run as it is handed over, so that a consumer which
        # renders transcripts holds one run's transcript, not a batch's.
        batch.reverse()
        while batch:
            yield batch.pop()


def summarize(
    config: ProtocolConfig,
    attack: EntanglerSpec | None,
    results: Iterable[RunResult],
) -> ScenarioReport:
    """Fold a stream of protocol runs into a ScenarioReport in one pass.

    No run is kept, so a campaign's memory does not grow with its length.
    The report does not depend on the order of ``results``.
    """
    trials = first_passes = 0
    decoded_bits = correct_bits = 0
    guessed_bits = guessed_correct = 0
    for r in results:
        trials += 1
        if r.first_detection.passed:
            first_passes += 1
        if r.decoded_message is None:
            continue
        decoded_bits += len(r.message)
        correct_bits += sum(1 for a, b in zip(r.message, r.decoded_message) if a == b)
        if attack is not None:
            for pid, bit in zip(r.message_photon_ids, r.message):
                if pid in r.guesses:
                    guessed_bits += 1
                    guessed_correct += int(r.guesses[pid] == bit)
    if trials == 0:
        raise ValueError("trials must be >= 1")

    if attack is not None and guessed_bits > 0:
        accuracy = guessed_correct / guessed_bits
        ci_low, ci_high = wilson_interval(guessed_correct, guessed_bits)
    else:
        accuracy = ci_low = ci_high = None

    if attack is not None:
        td_rng = np.random.default_rng(np.random.SeedSequence([config.seed, trials]))
        thetas = td_rng.uniform(0.0, 2 * np.pi, THETA_SAMPLES)
        max_td = float(indistinguishability(attack, thetas).max())
    else:
        max_td = 0.0

    return ScenarioReport(
        trials=trials,
        attacker_accuracy=accuracy,
        ci_low=ci_low,
        ci_high=ci_high,
        first_detection_pass_rate=first_passes / trials,
        recovery_accuracy=(correct_bits / decoded_bits) if decoded_bits else 0.0,
        max_trace_distance=max_td,
        helstrom_bound=helstrom_bound(max_td),
        seed=config.seed,
        config=config_to_dict(config),
    )


def monte_carlo(
    config: ProtocolConfig,
    attack: EntanglerSpec | None = None,
    rule: GuessRule | None = None,
    trials: int = 100,
) -> ScenarioReport:
    """Aggregate ``trials`` independent protocol runs into a ScenarioReport."""
    return summarize(config, attack, run_trials(config, attack, rule or GuessRule(), trials))


@dataclass(frozen=True)
class SweepGrid:
    theta_prime_values: tuple[float, ...]
    alpha_sq_values: tuple[float, ...]
    theta_values: tuple[float, ...]
    ancilla_dim: int = 2

    def validate(self) -> None:
        if not (self.theta_prime_values and self.alpha_sq_values and self.theta_values):
            raise ValueError("sweep grid lists must be nonempty")
        if any(not 0.0 <= a <= 1.0 for a in self.alpha_sq_values):
            raise ValueError("alpha_sq values must lie in [0, 1]")
        d = self.ancilla_dim
        if not 2 <= d <= MAX_ANCILLA_DIM or d & (d - 1):
            raise ValueError(
                f"ancilla_dim must be a power of 2 in [2, {MAX_ANCILLA_DIM}], got {d}"
            )


@dataclass(frozen=True)
class SweepRow:
    theta_prime: float
    alpha_sq: float
    theta: float
    trace_distance: float
    helstrom: float


def grid_spec(grid: SweepGrid, theta_prime: float, alpha_sq: float) -> EntanglerSpec:
    n_anc = (grid.ancilla_dim - 1).bit_length()
    return EntanglerSpec(
        epsilon=basis_state(n_anc, 0),
        epsilon_perp=basis_state(n_anc, 1),
        alpha=float(np.sqrt(alpha_sq)),
        beta=float(np.sqrt(1.0 - alpha_sq)),
        theta_prime=theta_prime,
    )


def sweep(grid: SweepGrid) -> list[SweepRow]:
    grid.validate()
    rows = []
    for tp in grid.theta_prime_values:
        for a2 in grid.alpha_sq_values:
            tds = indistinguishability(grid_spec(grid, tp, a2), grid.theta_values)
            rows += [
                SweepRow(tp, a2, theta, td, helstrom_bound(td))
                for theta, td in zip(grid.theta_values, tds.tolist())
            ]
    return rows


def sweep_table(rows: list[SweepRow]) -> str:
    lines = ["theta_prime,alpha_sq,theta,trace_distance,helstrom"]
    for r in rows:
        lines.append(
            f"{r.theta_prime:.17g},{r.alpha_sq:.17g},{r.theta:.17g},"
            f"{r.trace_distance:.17g},{r.helstrom:.17g}"
        )
    return "\n".join(lines) + "\n"
