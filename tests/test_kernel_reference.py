"""The engine's whole-column kernels against the earlier row kernels.

``tests/kernel_reference.py`` keeps the earlier ``sample_outcomes``,
``measure_photons_z``, ``check_norms`` and adversary hooks verbatim. On
random rows both must give the same bits: outcomes and probabilities are
compared as ``uint64`` views, so that a last-bit difference, a -0.0 or a NaN
payload shows. Where the reference raises ``InvariantError``, the engine
raises it with the same message. The cases include NaN rows, a negative
residual outcome and missed draws, where rounding leaves a row's total below
its uniform.
"""
import numpy as np
import pytest

import kernel_reference as ref
from qsslab.attack import EntanglingAdversary, _row_sums, random_entangler_spec
from qsslab.quantum import InvariantError, check_norms, measure_photons_z, sample_outcomes

# The largest double below 1: the highest uniform a generator can draw.
TOP_UNIFORM = 1.0 - 2.0**-53


def bits(a) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def result_of(f, *args):
    """What ``f(*args)`` returns, as a tuple, or the message of the
    ``InvariantError`` it raises. NaN and infinite rows warn on the way to
    the refusal; the warnings are not what is compared."""
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            out = f(*args)
    except InvariantError as exc:
        return str(exc)
    return out if isinstance(out, tuple) else (out,)


def assert_same(got, want):
    assert type(got) is type(want), (got, want)
    if isinstance(want, str):
        assert got == want
        return
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(bits(g), bits(w))


# -- sample_outcomes ---------------------------------------------------------


def random_probs(rng: np.random.Generator, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of k outcome probabilities and their uniforms, with rows that
    drift below a total of 1, zero columns, NaN rows and top uniforms."""
    probs = rng.dirichlet(np.ones(k), size=n)
    probs[rng.random(n) < 0.2] *= 1.0 - 1e-11
    probs[rng.random((n, k)) < 0.1] = 0.0
    probs[rng.random(n) < 0.05] = np.nan
    r = rng.random(n)
    r[rng.random(n) < 0.2] = TOP_UNIFORM
    r[rng.random(n) < 0.05] = 0.0
    return probs, r


def negative_residual_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 3) rows (p_eps, p_eps_perp, 1 - p_eps - p_eps_perp), as the
    adversary builds them, whose two weights add up to just above 1."""
    p0 = rng.uniform(0.1, 0.9, size=n)
    p1 = np.nextafter(np.nextafter(1.0 - p0, 2.0), 2.0)
    return np.column_stack([p0, p1, 1.0 - p0 - p1])


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("seed", range(6))
def test_sample_outcomes_matches_reference(k, seed):
    rng = np.random.default_rng([21, k, seed])
    probs, r = random_probs(rng, 400, k)
    if k == 3:
        extra = negative_residual_rows(rng, 40)
        assert (extra[:, 2] < 0).all()
        probs = np.concatenate([probs, extra])
        r = np.concatenate([r, np.where(rng.random(40) < 0.5, TOP_UNIFORM, rng.random(40))])
    totals = np.cumsum(probs, axis=1)[:, -1]
    # Not vacuous: NaN rows and missed draws on finite rows are both present.
    assert np.isnan(totals).any() and (r >= totals).any()
    assert_same(result_of(sample_outcomes, probs, r), result_of(ref.sample_outcomes, probs, r))


def test_sample_outcomes_on_no_rows():
    probs, r = np.zeros((0, 3)), np.zeros(0)
    assert_same(result_of(sample_outcomes, probs, r), result_of(ref.sample_outcomes, probs, r))


# -- measure_photons_z -------------------------------------------------------


def random_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """Normalized rows of ``dim`` amplitudes; a fifth of them keep their
    photon in |0> and drift below norm 1 within the State tolerance, so that
    a top uniform misses."""
    rows = rng.normal(size=(n, dim)) + 1j * rng.normal(size=(n, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    edge = rng.random(n) < 0.2
    rows[edge, 1::2] = 0.0
    rows[edge] /= np.linalg.norm(rows[edge], axis=1, keepdims=True)
    rows[edge] *= np.sqrt(1.0 - 1e-11)
    return rows


@pytest.mark.parametrize("dim", [2, 4, 8, 16])
@pytest.mark.parametrize("seed", range(4))
def test_measure_photons_z_matches_reference(dim, seed):
    rng = np.random.default_rng([22, dim, seed])
    rows = random_rows(rng, 300, dim)
    r = rng.random(300)
    r[rng.random(300) < 0.3] = TOP_UNIFORM
    want = result_of(ref.measure_photons_z, rows, r)
    assert not isinstance(want, str)
    assert_same(result_of(measure_photons_z, rows, r), want)


@pytest.mark.parametrize("dim", [2, 4, 8, 16])
@pytest.mark.parametrize("fault", ["nan", "nan on |1>", "inf", "scaled", "two scaled"])
def test_measure_photons_z_refuses_like_reference(dim, fault):
    rng = np.random.default_rng([23, dim])
    rows = random_rows(rng, 50, dim)
    r = rng.random(50)
    if fault == "nan":
        rows[[7, 30], 0] = np.nan
    elif fault == "nan on |1>":
        # Outcome 0 keeps the |0> side, which is finite: no refusal then,
        # and the NaN weight must still pass through with the same bits.
        rows[[7, 30], 1] = np.nan
        r[7], r[30] = 0.0, TOP_UNIFORM
    elif fault == "inf":
        rows[12, 0] = np.inf
    else:
        # A row whose |1> side is scaled fails when outcome 1 is kept.
        r[:] = TOP_UNIFORM
        rows[20, 1::2] *= 1.001
        if fault == "two scaled":
            rows[40, 1::2] *= 1.01
    want = result_of(ref.measure_photons_z, rows, r)
    assert isinstance(want, str) == (fault != "nan on |1>")
    assert_same(result_of(measure_photons_z, rows, r), want)


# -- check_norms -------------------------------------------------------------


@pytest.mark.parametrize("dim", [2, 4, 8, 16])
@pytest.mark.parametrize("fault", [None, "scaled", "two scaled", "nan and inf", "strided"])
def test_check_norms_matches_reference(dim, fault):
    rng = np.random.default_rng([24, dim])
    batch = rng.normal(size=(3, 40, dim)) + 1j * rng.normal(size=(3, 40, dim))
    batch /= np.linalg.norm(batch, axis=-1, keepdims=True)
    if fault == "scaled":
        batch[1, 5] *= 1.0 + 1e-9
    elif fault == "two scaled":
        batch[0, 9] *= 1.001
        batch[2, 3] *= 1.01
    elif fault == "nan and inf":
        batch[0, 2, 0] = np.inf
        batch[1, 4, -1] = np.nan
        batch[2, 0, 0] = np.nan
    elif fault == "strided":
        # Every other photon of a row-major batch: not contiguous.
        batch = batch[:, ::2]
    got, want = result_of(check_norms, batch), result_of(ref.check_norms, batch)
    assert got == want
    assert isinstance(want, str) == (fault not in (None, "strided"))


# -- the adversary hooks -----------------------------------------------------


@pytest.mark.parametrize("terms", range(1, 9))
def test_row_sums_add_in_numpy_order(terms):
    rng = np.random.default_rng([25, terms])
    x = rng.normal(size=(500, terms)) + 1j * rng.normal(size=(500, terms))
    squares = (x.conj() * x).real
    assert np.array_equal(bits(_row_sums(squares)), bits(np.sum(squares, axis=1)))


HOOK_SPECS = [pytest.param(d, seed, id=f"d{d}-{seed}") for d in (2, 4, 8) for seed in range(3)]


@pytest.mark.parametrize("d, seed", HOOK_SPECS)
def test_hooks_match_reference(d, seed):
    rng = np.random.default_rng([26, d, seed])
    spec = random_entangler_spec(rng, d)
    trials, photons = 3, 30
    thetas = rng.uniform(0.0, 2 * np.pi, size=(trials, photons))
    chi = np.stack([np.cos(thetas), np.sin(thetas)], axis=-1).astype(complex)
    ids = np.tile(np.arange(photons), (trials, 1))
    honest = rng.uniform(0.0, 2 * np.pi, size=ids.shape)
    new, old = (cls(spec, [np.random.default_rng([27, t]) for t in range(trials)])
                for cls in (EntanglingAdversary, ref.ReferenceAdversary))
    rows = new.on_photon_forward(ids, chi)
    assert_same((rows,), (old.on_photon_forward(ids, chi),))
    assert_same(new.on_check_announcement(ids, honest, rows),
                old.on_check_announcement(ids, honest, rows))
    # E^-1 takes the forward rows back to |eps> (x) chi: a product state.
    trials_back = np.array([0, 2])
    assert_same((new.on_photon_return(trials_back, ids[trials_back], rows[trials_back]),),
                (old.on_photon_return(trials_back, ids[trials_back], rows[trials_back]),))
    assert_same((new._returned[2],), (old._returned[2],))
    assert_same((new.on_finish(),), (old.on_finish(),))
