"""Few-qubit statevector laboratory for a rotation-encrypted quantum secret
sharing protocol and the entangling participant attacks against it."""

from .analysis import (
    ScenarioReport,
    SweepGrid,
    helstrom_bound,
    indistinguishability,
    monte_carlo,
    run_batch,
    run_batches,
    summarize,
    sweep,
)
from .attack import (
    EntanglerSpec,
    EntanglingAdversary,
    GuessRule,
    build_entangler,
    qgwz_spec,
    random_entangler_spec,
)
from .protocol import (
    BatchResult,
    ConfigError,
    NullAdversary,
    ProtocolConfig,
    run_protocol_batch,
)
from .quantum import (
    InvariantError,
    State,
    basis_state,
    canonical_angle,
    rotation_operator,
)
from .transcript import Transcript, render_transcripts

__all__ = [
    "BatchResult",
    "ConfigError",
    "EntanglerSpec",
    "EntanglingAdversary",
    "GuessRule",
    "InvariantError",
    "NullAdversary",
    "ProtocolConfig",
    "ScenarioReport",
    "State",
    "SweepGrid",
    "Transcript",
    "basis_state",
    "build_entangler",
    "canonical_angle",
    "helstrom_bound",
    "indistinguishability",
    "monte_carlo",
    "qgwz_spec",
    "random_entangler_spec",
    "render_transcripts",
    "rotation_operator",
    "run_batch",
    "run_batches",
    "run_protocol_batch",
    "summarize",
    "sweep",
]

__version__ = "0.1.0"
