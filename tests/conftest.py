import numpy as np
import pytest

from qsslab.quantum import State


def random_state(rng: np.random.Generator, num_qubits: int) -> State:
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return State(amps / np.linalg.norm(amps))


def projector(state: State) -> np.ndarray:
    """|psi><psi| of a state, for density-matrix comparisons."""
    return np.outer(state.amps, state.amps.conj())


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
