"""The row view of a batch, kept as a reference for the tests.

A batch's arrays (``qsslab.protocol.BatchResult``) are the package's only
result. ``RunResult`` below is the earlier per-run record, built from row t
of those arrays, kept verbatim with ``self`` written as ``batch``:
``run_of(batch, t)`` and ``runs_of(batch)`` are the earlier ``batch[t]`` and
``iter(batch)``. The transcript reference renderer
(``tests/test_transcript.py``), the run-by-run counts of the batch fold
(``tests/test_fold.py``) and the engine golden's run records
(``tests/test_engine_equivalence.py``) read runs through it.

Tests import this module as they import ``conftest``.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from qsslab.protocol import BatchResult, ProtocolConfig, with_seed


@dataclass(frozen=True)
class DetectionVerdict:
    phase: str
    passed: bool
    failed_photons: tuple[int, ...]
    # (photon id, outcome, Born probability of that outcome)
    outcomes: tuple[tuple[int, int, float], ...] = ()


@dataclass(frozen=True)
class RunResult:
    config: ProtocolConfig
    message: tuple[int, ...]
    decoded_message: tuple[int, ...] | None
    first_detection: DetectionVerdict
    second_detection: DetectionVerdict | None
    guesses: dict[int, int]
    message_photon_ids: tuple[int, ...]
    check_positions: tuple[int, ...]
    recovery_probabilities: tuple[float, ...] = ()


# The RunResult fields of a run that stops at the first detection.
_FAILED_FIRST_DETECTION = dict(
    decoded_message=None, second_detection=None, message_photon_ids=(), check_positions=()
)


def run_of(batch: BatchResult, t: int) -> RunResult:
    """Run ``t`` of ``batch``, built from row t of its columns."""
    t = range(len(batch))[t]
    ids, outcomes, probs = (
        a[t].tolist() for a in (batch.check_ids, batch.check_outcomes, batch.check_probabilities)
    )
    failed = tuple(j for j, o in zip(ids, outcomes) if o != 0)
    guesses = {}
    if batch.guesses is not None:
        (guessed,) = np.nonzero(batch.guesses[t] >= 0)
        guesses = dict(zip(guessed.tolist(), batch.guesses[t, guessed].tolist()))
    second = _FAILED_FIRST_DETECTION if failed else _second_fields(
        batch, int(np.searchsorted(batch.live, t))
    )
    return RunResult(
        with_seed(batch.config, batch.seeds[t]),
        tuple(batch.messages[t].tolist()),
        first_detection=DetectionVerdict(
            "first-detection", not failed, failed, tuple(zip(ids, outcomes, probs))
        ),
        guesses=guesses,
        **second,
    )


def runs_of(batch: BatchResult) -> Iterator[RunResult]:
    return (run_of(batch, t) for t in range(len(batch)))


def _second_fields(batch: BatchResult, i: int) -> dict:
    """The RunResult fields of live row ``i`` after the first detection."""
    is_message = batch.is_message[i]
    mismatched = tuple(batch.check_positions[i, batch.check_mismatched[i]].tolist())
    return dict(
        decoded_message=tuple(batch.decoded_payload[i, is_message].tolist()),
        second_detection=DetectionVerdict("second-detection", not mismatched, mismatched),
        message_photon_ids=tuple(batch.payload_ids[i, is_message].tolist()),
        check_positions=tuple(batch.check_positions[i].tolist()),
        recovery_probabilities=tuple(batch.recovery_probabilities[i].tolist()),
    )
