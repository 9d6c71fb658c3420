import re
import tracemalloc

import numpy as np
import pytest

from qsslab import analysis
from qsslab.analysis import (
    SweepGrid,
    helstrom_bound,
    indistinguishability,
    monte_carlo,
    run_batch,
    run_batches,
    summarize,
    sweep,
    sweep_table,
    wilson_interval,
)
from qsslab.attack import (
    EntanglerSpec,
    GuessRule,
    build_entanglers,
    entangler_blocks,
    gram_matrices,
    qgwz_spec,
    random_entangler_spec,
)
from qsslab.protocol import ConfigError, ProtocolConfig
from qsslab.quantum import InvariantError, State, basis_state
from qsslab.transcript import render_transcripts

from conftest import random_unitary
from scalar_reference import (
    EIGVALSH_TOL,
    _build_entangler,
    counterfactual_joint_distance,
    eigvalsh_distances,
    entangler_distances,
    grid_specs,
    spec_arrays,
)

BELL = State(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))


def test_indistinguishability_below_tolerance(rng):
    for _ in range(30):
        spec = random_entangler_spec(rng)
        tds = indistinguishability([spec], rng.uniform(0, 2 * np.pi, 5))
        assert tds.shape == (1, 5)
        assert np.all(tds <= 1e-10)
        assert np.all(helstrom_bound(tds) <= 0.5 + 5e-11)


def test_indistinguishability_beta_zero_exact():
    spec = EntanglerSpec(basis_state(1, 0), basis_state(1, 1), 1.0, 0.0, 0.7)
    ((td,),) = indistinguishability([spec], [0.9])
    assert td == pytest.approx(0.0, abs=1e-14)
    assert helstrom_bound(td) == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_indistinguishability_batch_size_independent(rng, dim):
    # Each angle's value is the same bits whether it is evaluated alone or
    # in a batch: sweep tables and reports pin these values byte for byte.
    for _ in range(5):
        spec = random_entangler_spec(rng, ancilla_dim=dim)
        thetas = np.concatenate([[0.0, np.pi / 2, np.pi], rng.uniform(0, 2 * np.pi, 17)])
        (batch,) = indistinguishability([spec], thetas)
        singles = [indistinguishability([spec], [t])[0, 0] for t in thetas]
        assert batch.tolist() == singles
        assert indistinguishability([spec], thetas[::-1])[0].tolist() == singles[::-1]


def test_indistinguishability_stack_independent(rng):
    # A spec's row has the same bits alone or stacked with other specs, of
    # any ancilla dimension, with its own angles or with angles shared by all.
    specs = [random_entangler_spec(rng, ancilla_dim=(2, 8, 4, 8)[i % 4]) for i in range(9)]
    thetas = rng.uniform(-10.0, 20.0, (9, 6))
    singles = [indistinguishability([s], t)[0].tolist() for s, t in zip(specs, thetas)]
    assert indistinguishability(specs, thetas).tolist() == singles
    shared = [indistinguishability([s], thetas[0])[0].tolist() for s in specs]
    assert indistinguishability(specs, thetas[0]).tolist() == shared
    joint = [counterfactual_joint_distance([s], t)[0].tolist() for s, t in zip(specs, thetas)]
    assert counterfactual_joint_distance(specs, thetas).tolist() == joint


def test_single_dimension_rows_are_the_bytes_of_a_mixed_call(rng):
    # A call whose specs share one ancilla dimension returns the kernel's
    # own result; a mixed call gathers each dimension's rows. Both give the
    # same bytes, signed zeros included, with own or shared angles.
    specs = [random_entangler_spec(rng, ancilla_dim=(2, 4, 8)[i % 3]) for i in range(12)]
    thetas = np.concatenate([np.zeros((12, 1)), rng.uniform(0, 2 * np.pi, (12, 6))], axis=1)
    for angles in (thetas, thetas[0]):
        mixed = indistinguishability(specs, angles)
        for dim in (2, 4, 8):
            idx = [i for i, spec in enumerate(specs) if spec.ancilla_dim == dim]
            own = angles[idx] if angles.ndim == 2 else angles
            single = indistinguishability([specs[i] for i in idx], own)
            assert single.dtype == np.float64 and single.shape == (len(idx), 7)
            assert single.flags.writeable and single.flags.c_contiguous
            assert single.tobytes() == mixed[idx].tobytes()


def test_indistinguishability_of_no_specs():
    for thetas in ([0.1, 0.2, 0.3], np.empty((0, 3))):
        tds = indistinguishability([], thetas)
        assert tds.dtype == np.float64 and tds.shape == (0, 3)


@pytest.mark.parametrize("dims", [(4,), (2, 4, 8)])
def test_strided_angles_give_the_bytes_of_a_contiguous_copy(rng, dims):
    # ``np.cos`` of a strided array can differ in the last bit from that of
    # a contiguous one; every group's angles are gathered in C order first.
    specs = [random_entangler_spec(rng, ancilla_dim=dims[i % len(dims)]) for i in range(9)]
    thetas = rng.uniform(-10.0, 20.0, (9, 64))[:, ::2]
    assert not thetas.flags.c_contiguous
    expected = indistinguishability(specs, np.ascontiguousarray(thetas))
    assert indistinguishability(specs, thetas).tobytes() == expected.tobytes()


def test_counterfactual_pipeline_is_sensitive(rng):
    # Keeping the photon (no inverse entangler) the bit is visible: this
    # confirms the indistinguishability test could detect a broken pipeline.
    spec = qgwz_spec(BELL)
    assert counterfactual_joint_distance([spec], [0.7])[0, 0] > 0.1


@pytest.mark.parametrize("completion", ["forward", "reversed"])
def test_kernel_matches_eigvalsh_reference_on_random_specs(completion):
    # 150 specs, 50 of each ancilla dimension: the block kernel against the
    # whole-E kernels it replaced, run on the package's E ("forward") or on
    # the reference's reversed Gram-Schmidt completion.
    rng = np.random.default_rng(2901)
    for dim in (2, 4, 8):
        specs = [random_entangler_spec(rng, ancilla_dim=dim) for _ in range(50)]
        fields = spec_arrays(specs)
        entanglers = (build_entanglers(specs) if completion == "forward"
                      else np.stack([_build_entangler(spec, completion) for spec in specs]))
        thetas = rng.uniform(0.0, 2 * np.pi, (50, 8))
        got = analysis._ancilla_distances(gram_matrices(*fields[:2]),
                                          entangler_blocks(*fields[2:]), thetas)
        for want in (entangler_distances(fields[0], fields[1], entanglers, thetas),
                     eigvalsh_distances(fields[0], entanglers, thetas)):
            assert np.abs(got - want).max() <= EIGVALSH_TOL


def leaky_block(rng: np.random.Generator, dim: int):
    """|eps>, |eps_perp>, a Haar-random 4 x 4 unitary U and
    E = (V (x) I)(U (+) I)(V (x) I)^dagger for V a Haar-random ancilla basis
    whose first two columns are |eps> and |eps_perp>: E keeps
    span(eps, eps_perp) (x) C^2, with U as its block, but is no member of
    the attack family, so the bit shows in the ancilla."""
    basis = random_unitary(rng, dim)
    block = random_unitary(rng, 4)
    full = np.eye(2 * dim, dtype=complex)
    full[:4, :4] = block
    frame = np.kron(basis, np.eye(2))
    return basis[:, 0], basis[:, 1], block, frame @ full @ frame.conj().T


def test_kernel_matches_eigvalsh_reference_on_leaky_blocks():
    # The positive control: these trace distances are far from 0, so a
    # kernel that returned 0 for everything would fail here. The block
    # kernel is given U itself, the references the whole E.
    rng = np.random.default_rng(2902)
    largest = 0.0
    for i in range(120):
        eps, perp, block, entangler = leaky_block(rng, (2, 4, 8)[i % 3])
        thetas = rng.uniform(0.0, 2 * np.pi, (1, 8))
        got = analysis._ancilla_distances(gram_matrices(eps[None], perp[None]), block[None],
                                          thetas)
        for want in (entangler_distances(eps[None], perp[None], entangler[None], thetas),
                     eigvalsh_distances(eps[None], entangler[None], thetas)):
            assert np.abs(got - want).max() <= EIGVALSH_TOL
        largest = max(largest, float(got.max()))
    assert largest >= 0.5


def test_kernel_refuses_weight_outside_the_span():
    # The kernel sees only the pair's Gram matrix and the block, so what it
    # can refuse is a pair that is not orthonormal or a block that is not
    # unitary: either moves a photon's weight from 1.
    thetas = np.array([[0.4, 1.9]])
    # A pair with <eps|eps_perp> = 1e-6, through a builder-made block.
    eps = np.array([[1.0, 0.0]], dtype=complex)
    perp = np.array([[1e-6, np.sqrt(1.0 - 1e-12)]], dtype=complex)
    assert gram_matrices(eps, perp)[0, 0, 1] == 1e-6
    with pytest.raises(InvariantError, match="moves"):
        analysis._ancilla_distances(gram_matrices(eps, perp),
                                    entangler_blocks([0.6], [0.8], [0.3]), thetas)
    # An orthonormal pair through 1.001 I, which no builder would return.
    with pytest.raises(InvariantError, match="moves"):
        analysis._ancilla_distances(np.eye(2, dtype=complex)[None], 1.001 * np.eye(4)[None],
                                    thetas)


def test_helstrom_relation():
    assert helstrom_bound(0.0) == 0.5
    assert helstrom_bound(1.0) == 1.0
    for td in (0.0, 0.3, 0.9):
        assert abs(helstrom_bound(td) - 0.5 * (1 + td)) <= 1e-15


def test_wilson_interval_contains_proportion():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0 and lo > 0.9
    lo, hi = wilson_interval(0, 100)
    assert lo == pytest.approx(0.0, abs=1e-12) and hi < 0.1


def honest_config(**kw):
    defaults = dict(num_agents=3, message_length=16, num_second_checks=2,
                    check_fraction_first=0.5, seed=42)
    defaults.update(kw)
    return ProtocolConfig(**defaults)


def test_monte_carlo_honest():
    report = monte_carlo(honest_config(), trials=50)
    assert report.recovery_accuracy == 1.0
    assert report.first_detection_pass_rate == 1.0
    assert report.attacker_accuracy is None
    assert report.max_trace_distance == 0.0
    assert report.helstrom_bound == 0.5


def test_monte_carlo_attack_report_fields():
    report = monte_carlo(honest_config(), attack=qgwz_spec(BELL), trials=40)
    assert report.first_detection_pass_rate == 1.0
    assert report.recovery_accuracy == 1.0
    assert 0.0 <= report.attacker_accuracy <= 1.0
    assert report.ci_low <= report.attacker_accuracy <= report.ci_high
    assert report.max_trace_distance <= 1e-10
    assert abs(report.helstrom_bound - 0.5 * (1 + report.max_trace_distance)) <= 1e-15


def test_monte_carlo_reproducible():
    a = monte_carlo(honest_config(), attack=qgwz_spec(BELL), trials=20)
    b = monte_carlo(honest_config(), attack=qgwz_spec(BELL), trials=20)
    assert a == b
    assert a.to_json_line() == b.to_json_line()


def test_summarize_order_independent():
    # Trial i depends only on (config, i), so the report does not depend on
    # the order in which trials run or are aggregated.
    config, spec = honest_config(), qgwz_spec(BELL)
    serial = monte_carlo(config, attack=spec, trials=16)
    reordered = summarize(
        config, spec, reversed([run_batch(config, [i], spec, GuessRule()) for i in range(16)])
    )
    assert serial == reordered
    assert serial.to_json_line() == reordered.to_json_line()


def test_run_trials_transcripts_deterministic():
    rule = GuessRule()
    ta = [t.serialize() for b in run_batches(honest_config(), None, rule, 5)
          for t in render_transcripts(b)]
    tb = [t.serialize() for b in run_batches(honest_config(), None, rule, 5)
          for t in render_transcripts(b)]
    assert ta == tb
    assert len(ta) == 5


def test_monte_carlo_rejects_zero_trials():
    with pytest.raises(ValueError):
        monte_carlo(honest_config(), trials=0)
    with pytest.raises(ValueError):
        summarize(honest_config(), None, iter(()))


def test_report_serialization_roundtrip():
    report = monte_carlo(honest_config(), trials=5)
    import json

    doc = json.loads(report.to_json_line())
    assert doc["trials"] == 5
    assert doc["recovery_accuracy"] == 1.0
    csv = report.to_csv().splitlines()
    assert csv[0].split(",")[0] == "trials"
    assert "recovery_accuracy" in report.to_text()


def test_sweep_full_grid():
    grid = SweepGrid(
        theta_prime_values=tuple(np.linspace(0, 3 * np.pi / 2, 5)),
        alpha_sq_values=(0.0, 0.25, 0.5, 0.75, 1.0),
        theta_values=tuple(np.linspace(0, 2 * np.pi, 5, endpoint=False)),
    )
    tds = sweep(grid)
    assert tds.size == 125
    assert np.all(tds <= 1e-10)
    theta_prime = np.repeat(grid.theta_prime_values, len(grid.alpha_sq_values))
    zero_rows = tds[theta_prime == 0.0]
    assert zero_rows.size and np.all(zero_rows <= 1e-12)


def test_sweep_single_point():
    tds = sweep(SweepGrid((0.5,), (0.5,), (1.0,)))
    assert tds.shape == (1, 1)


@pytest.mark.parametrize("n_theta", [3, 200])
def test_sweep_returns_a_writeable_float64_table(n_theta):
    grid = SweepGrid((0.3, 1.2), (0.25, 0.5, 1.0), tuple(np.linspace(0.0, 6.0, n_theta)), 4)
    tds = sweep(grid)
    assert tds.dtype == np.float64 and tds.shape == (6, n_theta)
    assert tds.flags.writeable
    tds[0, 0] = 1.0


def test_sweep_order_independent():
    grid = SweepGrid((0.3, 1.2), (0.25, 0.75), (0.0, 2.0))
    tds = sweep(grid)
    rows = {
        (tp, a2, th): tds[i * len(grid.alpha_sq_values) + j, k]
        for i, tp in enumerate(grid.theta_prime_values)
        for j, a2 in enumerate(grid.alpha_sq_values)
        for k, th in enumerate(grid.theta_values)
    }
    for (tp, a2, th), td in rows.items():
        spec = EntanglerSpec(basis_state(1, 0), basis_state(1, 1),
                             np.sqrt(a2), np.sqrt(1.0 - a2), tp)
        assert indistinguishability([spec], [th])[0, 0] == td
    spec = grid_specs(grid)[1]
    assert spec.epsilon.amps.tolist() == [1, 0] and spec.epsilon_perp.amps.tolist() == [0, 1]
    assert (spec.alpha, spec.beta, spec.theta_prime) == (np.sqrt(0.75), np.sqrt(0.25), 0.3)


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError, match="sweep grid lists must be nonempty"):
        SweepGrid((), (0.5,), (1.0,))


@pytest.mark.parametrize("dim", [0, 1, 3, 6, 16])
def test_sweep_grid_refuses_an_ancilla_dim_when_built(dim):
    # Not a power of 2 in [2, MAX_ANCILLA_DIM]: refused by the grid itself,
    # before a sweep builds d-dimensional kets from it.
    message = f"ancilla_dim must be a power of 2 in [2, 8], got {dim}"
    with pytest.raises(ValueError, match=re.escape(message)):
        SweepGrid((0.3,), (0.5,), (0.1,), ancilla_dim=dim)


@pytest.mark.parametrize("theta_prime, theta", [
    ((0.5,), (np.nan, np.inf)),
    ((0.5,), (1.0, -np.inf)),
    ((np.nan,), (1.0,)),
    ((np.inf, 0.5), (1.0,)),
])
def test_sweep_rejects_non_finite_angles(theta_prime, theta):
    # A library caller gets the documented ConfigError when the grid is
    # built, as the CLI gives a config error, never rows of nan or an error
    # from a spec.
    with pytest.raises(ConfigError, match="must be a finite number"):
        SweepGrid(theta_prime, (0.5,), theta, 2)


def test_sweep_table_format():
    grid = SweepGrid((0.5,), (0.5,), (1.0,))
    text = "".join(sweep_table(grid, sweep(grid)))
    lines = text.strip().splitlines()
    assert lines[0] == "theta_prime,alpha_sq,theta,trace_distance,helstrom"
    assert len(lines) == 2


def test_large_sweep_table_streams_in_less_memory_than_its_text():
    # 100 x 100 x 20 = 200,000 points, over 12 MB of text. Written block by
    # block, no more than a block is held at once: the traced peak of
    # formatting the whole table stays below the table's own size.
    grid = SweepGrid(tuple(np.linspace(0.0, 4.0, 100)), tuple(np.linspace(0.0, 1.0, 100)),
                     tuple(np.linspace(0.0, 6.0, 20)), 2)
    tds = sweep(grid)
    tracemalloc.start()
    try:
        size = sum(map(len, sweep_table(grid, tds)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The table's size is at least that of its grid columns, with every
    # trace distance the shortest "0", its Helstrom bound "0.5", four commas
    # and a newline.
    axes = (grid.theta_prime_values, grid.alpha_sq_values, grid.theta_values)
    floor = sum(tds.size // len(values) * sum(len("%.17g" % v) for v in values)
                for values in axes)
    floor += tds.size * len("0,0.5,,,,\n")
    assert size >= floor > 12_000_000
    assert peak < size
