import numpy as np
import pytest

from qsslab.cli import FIXTURES
from qsslab.protocol import ProtocolConfig, run_protocol_batch
from qsslab.quantum import State
from qsslab.transcript import Transcript, render_transcripts


def transcript_of(config: ProtocolConfig, adversary_factory=None) -> Transcript:
    """The transcript of ``config``'s run at its own seed: the run's row of
    ``render_transcripts`` on a batch of one."""
    return next(render_transcripts(run_protocol_batch(config, [config.seed], adversary_factory)))


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


@pytest.fixture(scope="session")
def fixture_table():
    """Every group of the fixture table ``qsslab.cli.FIXTURES``, evaluated
    once per session: {criterion: [Fixture, ...]}."""
    return {criterion: group() for criterion, group in FIXTURES.items()}
