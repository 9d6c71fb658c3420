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
    entangler_blocks,
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
    ATOL_STATE,
    InvariantError,
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

# Most grid points that one stacked kernel call of ``sweep`` evaluates. A
# chunk builds only its (S, 4, 4) entangler blocks, so its peak in
# tracemalloc does not depend on d: about 0.6 KB per point when each spec
# has 10 or more angles and 1.5 KB per point (0.19 MB for a full chunk) when
# each has one, whatever the size of the grid.
_SWEEP_CHUNK_POINTS = 128

# Most lines of a sweep table formatted at once. Formatting a block peaks at
# under 1 MB in tracemalloc, whatever the size of the grid.
_TABLE_BLOCK_LINES = 4096

# Largest sweep grid, in points (theta' x alpha^2 x theta values). A sweep
# builds its entangler blocks chunk by chunk and writes its table block by
# block, so its time follows its point count and its memory the 8 bytes a
# point of its trace distances.
# Measured with `qsslab sweep --out` at d = 8 (Xeon, 2 cores, Python 3.11,
# numpy 2.4): 1000 x 1000 x 1 took 4.0-4.6 s at a peak RSS of 40 MB, and
# 100 x 100 x 100 took 2.1-2.3 s at 40 MB.
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


# Most that the weight tr rho_b of an evaluated photon may move from 1
# before ``_ancilla_distances`` refuses it. For a unit photon e on |eps>,
# tr rho_b = ||B^dagger (Gamma (x) G_b) B e||^2, which lies within
# 2 delta + 2 ||Gamma - I|| of 1 to first order, for delta = ||B^dagger B - I||.
# A block of ``entangler_blocks`` has B^dagger B = (1 + eta) I for
# |alpha|^2 + |beta|^2 = 1 + eta, and its unitarity check keeps |eta| within
# ATOL_STATE; ``EntanglerSpec`` keeps |eta| + 4 ||Gamma - I|| within it, and a
# sweep's pair has Gamma = I. So the weight moves by at most 2 ATOL_STATE,
# and 4 ATOL_STATE leaves room for the second-order terms and rounding.
_SUPPORT_ATOL = 4 * ATOL_STATE


def _ancilla_distances(gram: np.ndarray, blocks: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """The trace distances (S, T) of ``indistinguishability`` for S specs,
    given by the Gram matrices Gamma (S, 2, 2) of their pairs,
    Gamma[k, l] = <k|l> for k, l in (eps, eps_perp), their entangler blocks
    B (S, 4, 4) (``attack.entangler_blocks``) and (S, T) angles.

    E V = V B for V = (eps, eps_perp) (x) I, so after E^-1 the ancilla is a
    2 x 2 density matrix in the (eps, eps_perp) basis, and neither E nor d
    enters. The photon comes in on |eps> (x) C^2, V's first two columns, so
    W_b = (E V)^dagger (I (x) G_b) E V[:, :2] = B^dagger (Gamma (x) G_b) B[:, :2]
    for the encodings G_0 = I and G_1 = -i sigma_y. The photon
    (cos theta, sin theta) then leaves K_b = W_b (cos theta, sin theta), an
    (ancilla, photon) 2 x 2 matrix, and rho_b = K_b K_b^dagger. The
    eigenvalues of the Hermitian 2 x 2 X = rho_0 - rho_1 are tr X / 2 +- r,
    for r = sqrt(((x00 - x11) / 2)^2 + |x01|^2), so its trace distance is
    the larger of |tr X| / 2 and r.

    Only ``np.einsum`` without ``optimize`` and elementwise ops: no LAPACK
    and no BLAS product, so the bits do not follow the host's BLAS kernel.
    Raises ``InvariantError`` when a photon's weight tr rho_b moves more
    than ``_SUPPORT_ATOL`` from 1.
    """
    n_specs = len(blocks)
    # m[s, k, p, q]: (Gamma (x) I) B's column q = (eps, q), as (ancilla k, photon p).
    m = np.einsum("skl,slpq->skpq", gram, blocks[:, :, :2].reshape(n_specs, 2, 2, 2),
                  optimize=False)
    # -i sigma_y flips the photon p and negates the new p = 0.
    encoded = np.stack([m, m[:, :, ::-1] * np.array([[-1.0], [1.0]])]).reshape(2, n_specs, 4, 2)
    # w[b, s, q]: column q of W_b, its entries (ancilla k, photon r) as 2k + r.
    w = np.einsum("sxy,bsxq->bsqy", blocks.conj(), encoded, optimize=False)
    # K_b as (real, imag) pairs: k[b, s, t] holds 4k + 2r + (0 or 1).
    w = w.view(float)
    k = (w[:, :, None, 0] * np.cos(thetas)[..., None]
         + w[:, :, None, 1] * np.sin(thetas)[..., None])
    diag = (k * k).reshape(*k.shape[:-1], 2, 4).sum(axis=-1)
    # Both ways: a block that is not an isometry can add weight as well.
    moved = np.max(np.abs(1.0 - diag.sum(axis=-1)), initial=0.0)
    if not moved <= _SUPPORT_ATOL:
        raise InvariantError(
            f"a photon's weight moves {moved:.3e} from 1 through the entangler block, "
            f"more than {_SUPPORT_ATOL}: the block is not unitary or the pair not orthonormal"
        )
    rows = k.view(complex)
    off = (rows[..., :2] * rows[..., 2:].conj()).sum(axis=-1)
    x00, x11 = diag[0, ..., 0] - diag[1, ..., 0], diag[0, ..., 1] - diag[1, ..., 1]
    x01 = off[0] - off[1]
    half = (x00 - x11) / 2
    r = np.sqrt(half * half + x01.real * x01.real + x01.imag * x01.imag)
    return np.maximum(np.abs(x00 + x11) / 2, r)


def indistinguishability(specs: Iterable[EntanglerSpec], thetas) -> np.ndarray:
    """Trace distance between the attacker's post-inverse ancilla states
    conditioned on message bit 0 vs 1, computed exactly for each spec of
    ``specs`` at each photon angle: shape (S, T), for ``thetas`` one (T,)
    vector shared by every spec or one (S, T) row per spec.
    ``helstrom_bound`` of it is the best guessing probability. The specs'
    Gram matrices and entangler blocks, whatever their ancilla dimensions,
    are stacked and evaluated in one ``_ancilla_distances`` call."""
    specs = list(specs)
    thetas = np.asarray(thetas, dtype=float)
    # A C-ordered copy: ``np.cos`` of a strided array can differ in the last bit.
    thetas = np.ascontiguousarray(np.broadcast_to(thetas, (len(specs), thetas.shape[-1])))
    gram = np.array([spec.gram for spec in specs], dtype=complex).reshape(-1, 2, 2)
    blocks = np.array([spec.block for spec in specs], dtype=complex).reshape(-1, 4, 4)
    return _ancilla_distances(gram, blocks, thetas)


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
    each one stack of entangler blocks built from the grid's values, so the
    peak memory of a sweep does not grow with its grid. The pair's Gram
    matrix is I, so the table does not depend on ``grid.ancilla_dim``.
    """
    theta_primes = canonical_angles(np.asarray(grid.theta_prime_values, dtype=float))
    alpha_sq = np.asarray(grid.alpha_sq_values, dtype=float)
    thetas = np.asarray(grid.theta_values, dtype=float)
    n_alpha = len(alpha_sq)
    tds = np.empty((len(theta_primes) * n_alpha, len(thetas)))
    n_specs = max(1, _SWEEP_CHUNK_POINTS // len(thetas))
    n_thetas = min(len(thetas), _SWEEP_CHUNK_POINTS)
    gram = np.broadcast_to(np.eye(2, dtype=complex), (n_specs, 2, 2))
    for s in range(0, len(tds), n_specs):
        rows = np.arange(s, min(s + n_specs, len(tds)))
        a2 = alpha_sq[rows % n_alpha]
        blocks = entangler_blocks(np.sqrt(a2), np.sqrt(1.0 - a2), theta_primes[rows // n_alpha])
        for t in range(0, len(thetas), n_thetas):
            chunk = np.tile(thetas[t:t + n_thetas], (len(rows), 1))
            tds[s:s + n_specs, t:t + n_thetas] = _ancilla_distances(
                gram[:len(rows)], blocks, chunk)
    return tds


def sweep_table(grid: SweepGrid, tds: np.ndarray) -> Iterator[str]:
    """The CSV table of ``sweep(grid)`` as consecutive blocks of text: the
    header, then one line per grid point, theta fastest, every value written
    as ``%.17g``. A block holds at most ``_TABLE_BLOCK_LINES`` lines, each
    distinct value of it formatted once (``format_floats``), so the table
    is never held whole."""
    axes = [np.asarray(values, dtype=float)
            for values in (grid.theta_prime_values, grid.alpha_sq_values, grid.theta_values)]
    tds = tds.ravel()
    yield "theta_prime,alpha_sq,theta,trace_distance,helstrom\n"
    for start in range(0, tds.size, _TABLE_BLOCK_LINES):
        td = tds[start:start + _TABLE_BLOCK_LINES]
        points = np.unravel_index(np.arange(start, start + len(td)), [len(a) for a in axes])
        cols = np.column_stack([a[i] for a, i in zip(axes, points)] + [td, helstrom_bound(td)])
        yield "%s,%s,%s,%s,%s\n" * len(td) % tuple(format_floats(cols).ravel().tolist())
