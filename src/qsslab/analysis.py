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
    build_entanglers,
    spec_arrays,
)
from .protocol import (
    MAX_RUN_SIZE,
    BatchResult,
    ConfigError,
    ProtocolConfig,
    as_integer,
    as_number,
    as_tuple,
    config_to_dict,
    run_protocol_batch,
)
from .quantum import (
    MINUS_I_SIGMA_Y,
    apply_photon_op,
    # Not called in this module; kept importable because qssbench/selftest.py
    # checks that the benchmark's tracer patches it here.
    apply_unitary,  # noqa: F401
    canonical_angles,
)
from .transcript import format_floats

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

# Most grid points that one stacked kernel call of ``sweep`` evaluates. The
# intermediates of a call peak at about 3.7 KB per point at d = 8 (0.46 MB
# for a full chunk), whatever the size of the grid.
_SWEEP_CHUNK_POINTS = 128

# Largest sweep grid, in points (theta' x alpha^2 x theta values). A sweep
# builds its entanglers chunk by chunk from the grid's values, so its time
# follows its point count and its peak memory the size of its table.
# Measured with `qsslab sweep --out` at d = 8 (Xeon, 2 cores, Python 3.11,
# numpy 2.4): 1000 x 1000 x 1 took 13.9 s at a peak RSS of 196 MB, and
# 100 x 100 x 100 took 5.0 s at 246 MB.
MAX_SWEEP_POINTS = 1_000_000


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


def _encoded_rows(epsilon: np.ndarray, entanglers: np.ndarray, thetas: np.ndarray):
    """The joint (ancilla, photon) rows E(|eps> (x) U(theta)|0>) with message
    bit 0 and bit 1 encoded on the photon, shape (2, S, T, 2d), for S specs
    of one ancilla dimension given by their |eps> (S, d) and entanglers E
    (S, 2d, 2d), and their (S, T) angles."""
    chi = np.stack([np.cos(thetas), np.sin(thetas)], axis=-1)
    joint = (epsilon[:, None, :, None] * chi[:, :, None, :]).reshape(*thetas.shape, -1)
    # One matrix-vector product per row, as a batched matmul. The row form
    # ``joint @ E.T`` is one gemm whose results differ in the last bits, and
    # so would break the byte-pinned sweep tables and reports.
    bit0 = (entanglers[:, None] @ joint[..., None])[..., 0]
    return np.stack([bit0, apply_photon_op(bit0, MINUS_I_SIGMA_Y)])


def _trace_distances(rho: np.ndarray) -> np.ndarray:
    """Trace distance between the bit-0 and bit-1 density matrices, per angle.
    The difference is taken in place, in ``rho[0]``, to save a stack's copy."""
    diff = rho[0]
    diff -= rho[1]
    return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=-1)


def _per_ancilla_dim(kernel, specs, thetas) -> np.ndarray:
    """``kernel(specs, thetas)`` evaluated on the specs of each ancilla
    dimension as one stack, gathered into one (S, T) array in spec order.

    ``thetas`` is one (T,) vector shared by every spec or one (S, T) row per
    spec."""
    specs = list(specs)
    thetas = np.asarray(thetas, dtype=float)
    thetas = np.broadcast_to(thetas, (len(specs), thetas.shape[-1]))
    dims = [spec.ancilla_dim for spec in specs]
    if len(set(dims)) == 1:
        # One dimension, as in every sweep chunk and campaign: the kernel's
        # own result, its angles in the C order a gather would give them
        # (``np.cos`` of a strided array can differ in the last bit).
        return kernel(specs, np.ascontiguousarray(thetas))
    out = np.empty(thetas.shape)
    for d in set(dims):
        idx = [i for i, dim in enumerate(dims) if dim == d]
        out[idx] = kernel([specs[i] for i in idx], thetas[idx])
    return out


def _ancilla_distances(epsilon: np.ndarray, entanglers: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """The trace distances (S, T) of ``indistinguishability`` for S specs
    given as in ``_encoded_rows``."""
    rows = _encoded_rows(epsilon, entanglers, thetas)
    # E^-1 in the same matrix-vector form. Read as a d x 2 (ancilla, photon)
    # matrix M, each row gives the ancilla's reduced state M M^dagger.
    inverses = entanglers.conj().swapaxes(-1, -2)[:, None]
    m = (inverses @ rows[..., None]).reshape(*rows.shape[:3], -1, 2)
    return _trace_distances(m @ m.conj().swapaxes(-1, -2))


def _spec_distances(specs: list[EntanglerSpec], thetas: np.ndarray) -> np.ndarray:
    fields = spec_arrays(specs)
    return _ancilla_distances(fields[0], build_entanglers(*fields), thetas)


def indistinguishability(specs: Iterable[EntanglerSpec], thetas) -> np.ndarray:
    """Trace distance between the attacker's post-inverse ancilla states
    conditioned on message bit 0 vs 1, computed exactly for each spec of
    ``specs`` at each photon angle: shape (S, T), for ``thetas`` one (T,)
    vector shared by every spec or one (S, T) row per spec.
    ``helstrom_bound`` of it is the best guessing probability."""
    return _per_ancilla_dim(_spec_distances, specs, thetas)


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
) -> BatchResult:
    """Run the trials ``trial_indices`` of a campaign as one batch.

    Trial i runs with seed ``derive_seed(config.seed, i)``; its result is the
    same alone or in any batch (``protocol.run_protocol_batch``).
    """
    factory = None
    if attack is not None:
        factory = lambda rngs: EntanglingAdversary(attack, rngs, rule)
    seeds = [derive_seed(config.seed, i) for i in trial_indices]
    return run_protocol_batch(config, seeds, factory)


def run_batches(
    config: ProtocolConfig,
    attack: EntanglerSpec | None,
    rule: GuessRule,
    trials: int,
) -> Iterator[BatchResult]:
    """Yield the batches (``run_batch``) of trials 0 .. trials-1, in order.

    A batch holds as many trials as fit in ``MAX_RUN_SIZE`` photons x
    agents, and at least one, so a campaign streams one batch at a time.
    """
    per_batch = max(1, MAX_RUN_SIZE // (config.sequence_length() * config.num_agents))
    for start in range(0, trials, per_batch):
        yield run_batch(config, range(start, min(start + per_batch, trials)), attack, rule)


def summarize(
    config: ProtocolConfig,
    attack: EntanglerSpec | None,
    batches: Iterable[BatchResult],
) -> ScenarioReport:
    """Fold a stream of batches into a ScenarioReport in one pass.

    Each batch gives its integer counts from its columns
    (``BatchResult.counts``). No batch is kept, so a campaign's memory does
    not grow with its length, and the report does not depend on how the
    runs are grouped into batches or in what order the batches come.
    """
    totals = (0,) * 6
    for batch in batches:
        totals = tuple(map(sum, zip(totals, batch.counts())))
    trials, first_passes, decoded_bits, correct_bits, guessed_bits, guessed_correct = totals
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
        max_td = float(indistinguishability([attack], thetas).max())
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
    return summarize(config, attack, run_batches(config, attack, rule or GuessRule(), trials))


@dataclass(frozen=True)
class SweepGrid:
    """The grid of ``sweep``, checked when it is built (``ConfigError``); its
    values are stored as tuples of floats and ``ancilla_dim`` as an int."""

    theta_prime_values: tuple[float, ...]
    alpha_sq_values: tuple[float, ...]
    theta_values: tuple[float, ...]
    ancilla_dim: int = 2

    def __post_init__(self):
        for name in ("theta_prime_values", "alpha_sq_values", "theta_values"):
            object.__setattr__(self, name, as_tuple(getattr(self, name), name, as_number))
        object.__setattr__(self, "ancilla_dim", as_integer(self.ancilla_dim, "ancilla_dim"))
        if not (self.theta_prime_values and self.alpha_sq_values and self.theta_values):
            raise ConfigError("sweep grid lists must be nonempty")
        n_tp, n_a, n_t = map(len, (self.theta_prime_values, self.alpha_sq_values,
                                   self.theta_values))
        if n_tp * n_a * n_t > MAX_SWEEP_POINTS:
            raise ConfigError(
                f"{n_tp * n_a} specs x {n_t} theta values make {n_tp * n_a * n_t} grid "
                f"points, more than MAX_SWEEP_POINTS = {MAX_SWEEP_POINTS}"
            )
        if any(not 0.0 <= a <= 1.0 for a in self.alpha_sq_values):
            raise ConfigError("alpha_sq values must lie in [0, 1]")
        d = self.ancilla_dim
        if not 2 <= d <= MAX_ANCILLA_DIM or d & (d - 1):
            raise ConfigError(f"ancilla_dim must be a power of 2 in [2, {MAX_ANCILLA_DIM}], got {d}")


def sweep(grid: SweepGrid) -> np.ndarray:
    """Exact trace distance at every point of ``grid``, shape (S, T): one row
    per (theta', alpha^2) pair, alpha^2 fastest, for the spec with |eps> = |0>,
    |eps_perp> = |1>, alpha = sqrt(alpha^2) and beta = sqrt(1 - alpha^2); one
    column per theta.

    The grid is evaluated in chunks of at most ``_SWEEP_CHUNK_POINTS`` points,
    each one stack of entanglers built from the grid's values, so the peak
    memory of a sweep does not grow with its grid.
    """
    theta_primes = canonical_angles(np.asarray(grid.theta_prime_values, dtype=float))
    alpha_sq = np.asarray(grid.alpha_sq_values, dtype=float)
    thetas = np.asarray(grid.theta_values, dtype=float)
    n_alpha = len(alpha_sq)
    tds = np.empty((len(theta_primes) * n_alpha, len(thetas)))
    n_specs = max(1, _SWEEP_CHUNK_POINTS // len(thetas))
    n_thetas = min(len(thetas), _SWEEP_CHUNK_POINTS)
    for s in range(0, len(tds), n_specs):
        rows = np.arange(s, min(s + n_specs, len(tds)))
        a2 = alpha_sq[rows % n_alpha]
        kets = np.zeros((2, len(rows), grid.ancilla_dim), dtype=complex)
        kets[0, :, 0] = kets[1, :, 1] = 1.0
        entanglers = build_entanglers(
            kets[0], kets[1], np.sqrt(a2), np.sqrt(1.0 - a2), theta_primes[rows // n_alpha]
        )
        for t in range(0, len(thetas), n_thetas):
            chunk = np.tile(thetas[t:t + n_thetas], (len(rows), 1))
            tds[s:s + n_specs, t:t + n_thetas] = _ancilla_distances(kets[0], entanglers, chunk)
    return tds


def sweep_table(grid: SweepGrid, tds: np.ndarray) -> str:
    """The CSV table of ``sweep(grid)``: one line per grid point, theta
    fastest, every value written as ``%.17g``, each distinct one formatted
    once (``format_floats``)."""
    n_alpha, n_theta = len(grid.alpha_sq_values), len(grid.theta_values)
    n = tds.size
    cols = np.empty((n, 5))
    cols[:, 0] = np.repeat(grid.theta_prime_values, n_alpha * n_theta)
    cols[:, 1] = np.tile(np.repeat(grid.alpha_sq_values, n_theta), len(grid.theta_prime_values))
    cols[:, 2] = np.tile(grid.theta_values, n // n_theta)
    cols[:, 3] = tds.ravel()
    cols[:, 4] = helstrom_bound(cols[:, 3])
    return (
        "theta_prime,alpha_sq,theta,trace_distance,helstrom\n"
        + "%s,%s,%s,%s,%s\n" * n % tuple(format_floats(cols).ravel().tolist())
    )
