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

# Most grid points that one stacked kernel call of ``sweep`` evaluates. The
# intermediates of a call peak, at d = 8, at about 0.6-0.9 KB per point when
# each spec has 10 or more angles and 4.4 KB per point (0.56 MB for a full
# chunk) when each has one, whatever the size of the grid.
_SWEEP_CHUNK_POINTS = 128

# Most lines of a sweep table formatted at once. Formatting a block peaks at
# under 1 MB in tracemalloc, whatever the size of the grid.
_TABLE_BLOCK_LINES = 4096

# Largest sweep grid, in points (theta' x alpha^2 x theta values). A sweep
# builds its entanglers chunk by chunk and writes its table block by block,
# so its time follows its point count and its memory the 8 bytes a point
# of its trace distances.
# Measured with `qsslab sweep --out` at d = 8 (Xeon, 2 cores, Python 3.11,
# numpy 2.4): 1000 x 1000 x 1 took 14.2 s at a peak RSS of 41 MB, and
# 100 x 100 x 100 took 2.1 s at 40 MB.
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


# Most weight that an evaluated photon may leave outside span(eps, eps_perp)
# (x) C^2 after E^-1 (I (x) G) E before ``_ancilla_distances`` refuses it.
# For an E that keeps that span, the weight outside, 1 - tr rho_b, is at
# most 2 delta + 2 ||D|| to first order, for delta = ||E^dagger E - I|| and D
# the pair's Gram matrix minus I. ``EntanglerSpec`` keeps |eta| + 4 ||D||
# within ATOL_STATE, so that delta <= ATOL_STATE and ||D|| <= ATOL_STATE / 4:
# the weight is at most 2.5 ATOL_STATE, and 4 ATOL_STATE leaves room for the
# second-order terms and rounding.
_SUPPORT_ATOL = 4 * ATOL_STATE


def _ancilla_distances(
    epsilon: np.ndarray, epsilon_perp: np.ndarray, entanglers: np.ndarray, thetas: np.ndarray
) -> np.ndarray:
    """The trace distances (S, T) of ``indistinguishability`` for S specs of
    one ancilla dimension d, given by their |eps> and |eps_perp> (S, d),
    entanglers E (S, 2d, 2d) and (S, T) angles.

    E maps span(eps, eps_perp) (x) C^2 into itself, so after E^-1 the ancilla
    is a 2 x 2 density matrix in the (eps, eps_perp) basis. Each E is
    contracted once: C = E((eps, eps_perp) (x) I), F = E(|eps> (x) I) its
    first two columns, and W_b = C^dagger (I (x) G_b) F for the encodings
    G_0 = I and G_1 = -i sigma_y. The photon (cos theta, sin theta) then
    leaves K_b = W_b (cos theta, sin theta), an (ancilla, photon) 2 x 2
    matrix, and rho_b = K_b K_b^dagger. The eigenvalues of the Hermitian
    2 x 2 X = rho_0 - rho_1 are tr X / 2 +- r, for
    r = sqrt(((x00 - x11) / 2)^2 + |x01|^2), so its trace distance is the
    larger of |tr X| / 2 and r.

    Only ``np.einsum`` without ``optimize`` and elementwise ops: no LAPACK
    and no BLAS product, so the bits do not follow the host's BLAS kernel.
    Raises ``InvariantError`` when a photon leaves more than
    ``_SUPPORT_ATOL`` of its weight outside span(eps, eps_perp) (x) C^2.
    """
    n_specs, d = epsilon.shape
    # (eps, eps_perp) (x) I, transposed: row (k, q) holds |k> (x) |q>. With
    # its zeros, the contraction runs along E's contiguous last axis, at
    # about twice the speed; the zero terms leave every sum as it was.
    frame = np.zeros((n_specs, 2, 2, d, 2), dtype=complex)
    frame[:, :, 0, :, 0] = frame[:, :, 1, :, 1] = np.stack([epsilon, epsilon_perp], axis=1)
    # c[s, y]: column y = (k, q) of C, as (ancilla a, photon p) amplitudes.
    c = np.einsum("syj,sxj->syx", frame.reshape(n_specs, 4, 2 * d), entanglers, optimize=False)
    # (I (x) -i sigma_y) F flips F's photon p and negates the new p = 0.
    f = c[:, :2].reshape(n_specs, 2, d, 2)
    encoded = np.stack([f, f[..., ::-1] * np.array([-1.0, 1.0])]).reshape(2, n_specs, 2, 2 * d)
    # w[b, s, q]: column q of W_b, its entries (ancilla k, photon r) as 2k + r.
    w = np.einsum("syx,bsqx->bsqy", c.conj(), encoded, optimize=False)
    # K_b as (real, imag) pairs: k[b, s, t] holds 4k + 2r + (0 or 1).
    w = w.view(float)
    k = (w[:, :, None, 0] * np.cos(thetas)[..., None]
         + w[:, :, None, 1] * np.sin(thetas)[..., None])
    diag = (k * k).reshape(*k.shape[:-1], 2, 4).sum(axis=-1)
    leak = np.max(1.0 - diag.sum(axis=-1), initial=0.0)
    if not leak <= _SUPPORT_ATOL:
        raise InvariantError(
            f"a photon leaves weight {leak:.3e} outside span(eps, eps_perp) (x) C^2 "
            f"after the inverse entangler, more than {_SUPPORT_ATOL}"
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
    ``helstrom_bound`` of it is the best guessing probability. The specs of
    each ancilla dimension are one stack of entanglers, evaluated in one
    ``_ancilla_distances`` call."""
    specs = list(specs)
    thetas = np.asarray(thetas, dtype=float)
    thetas = np.broadcast_to(thetas, (len(specs), thetas.shape[-1]))
    dims = [spec.ancilla_dim for spec in specs]
    out = np.empty(thetas.shape)
    for d in set(dims):
        idx = [i for i, dim in enumerate(dims) if dim == d]
        fields = spec_arrays([specs[i] for i in idx])
        # The gather is a C-ordered copy: ``np.cos`` of a strided array can
        # differ in the last bit.
        out[idx] = _ancilla_distances(fields[0], fields[1], build_entanglers(*fields),
                                      thetas[idx])
    return out


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
            tds[s:s + n_specs, t:t + n_thetas] = _ancilla_distances(*kets, entanglers, chunk)
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
