"""A batch folds to the report its runs fold to.

``summarize`` adds up six integer counts per batch, which ``BatchResult``
gives by array reductions over its columns. ``run_counts`` below counts one
run bit by bit from its record (``tests/row_view.py``), as the reference: on
every kind of batch the batch's counts must equal its runs' summed, and the
batch must fold to the report its trials fold to as batches of one, byte
for byte.
"""
import functools

import numpy as np
import pytest

from qsslab.analysis import derive_seed, run_batch, summarize
from qsslab.attack import EntanglerSpec, EntanglingAdversary, GuessRule, qgwz_spec
from qsslab.protocol import NullAdversary, ProtocolConfig, run_protocol_batch
from qsslab.quantum import basis_state
from row_view import runs_of
from test_batch import BELL, CAMPAIGNS

NAIVE = EntanglerSpec(basis_state(1, 0), basis_state(1, 1), 0.8, 0.6, 1.1)
NAIVE_CONFIG = ProtocolConfig(num_agents=3, message_length=4, check_fraction_first=0.3,
                              num_second_checks=1, seed=4)
FIXED_BITS = ProtocolConfig(num_agents=3, message_bits=(1, 0, 1, 1, 0, 0, 1),
                            num_second_checks=2, seed=5)


def run_counts(r):
    """Run ``r``'s ``BatchResult.counts``, counted bit by bit: the reference
    for the batch's array reductions."""
    passed = int(r.first_detection.passed)
    if r.decoded_message is None:
        return 1, passed, 0, 0, 0, 0
    correct = sum(1 for a, b in zip(r.message, r.decoded_message) if a == b)
    guesses = [
        int(r.guesses[pid] == bit)
        for pid, bit in zip(r.message_photon_ids, r.message)
        if pid in r.guesses
    ]
    return 1, passed, len(r.message), correct, len(guesses), sum(guesses)


def _run(config, indices, factory):
    """Trials ``indices`` of a campaign of ``config``, as one batch."""
    return run_protocol_batch(config, [derive_seed(config.seed, i) for i in indices], factory)


# Each maker runs the trials ``indices`` and gives (config, attack spec for
# the report, batch).
def _campaign(name, indices=range(13)):
    config, spec, rule = CAMPAIGNS[name]
    return config, spec, run_batch(config, indices, spec, rule)


def _naive(indices=range(16)):
    # The non-adaptive control fails the first detection in some trials.
    factory = lambda rngs: EntanglingAdversary(NAIVE, rngs, adaptive=False)
    return NAIVE_CONFIG, NAIVE, _run(NAIVE_CONFIG, indices, factory)


def _fixed_bits(indices=range(9)):
    spec = qgwz_spec(BELL)
    return FIXED_BITS, spec, run_batch(FIXED_BITS, indices, spec, GuessRule())


def _null_adversary(indices=range(7)):
    config = CAMPAIGNS["honest"][0]
    return config, None, _run(config, indices, lambda rngs: NullAdversary())


class EvenPhotonGuesser(NullAdversary):
    """Guesses bit 1 for every even photon id and nothing for the odd ones."""

    def on_photon_forward(self, photon_ids, amps):
        self.shape = photon_ids.shape
        return amps

    def on_finish(self):
        guesses = np.full(self.shape, -1)
        guesses[:, ::2] = 1
        return guesses


def _partial_guesses(indices=range(7)):
    # Some message bits go unguessed; the report still names an attack.
    config = CAMPAIGNS["honest"][0]
    return config, qgwz_spec(BELL), _run(config, indices, lambda rngs: EvenPhotonGuesser())


BATCHES = {
    **{name: functools.partial(_campaign, name) for name in CAMPAIGNS},
    "naive-fails-first": _naive,
    "fixed-message-bits": _fixed_bits,
    "null-adversary": _null_adversary,
    "partial-guesses": _partial_guesses,
}


@pytest.mark.parametrize("name", BATCHES)
def test_batch_fold_matches_run_fold(name):
    config, spec, batch = BATCHES[name]()
    assert batch.counts() == tuple(map(sum, zip(*map(run_counts, runs_of(batch)))))
    singles = [BATCHES[name]([i])[2] for i in range(len(batch))]
    folded, reference = summarize(config, spec, [batch]), summarize(config, spec, singles)
    assert folded.to_json_line() == reference.to_json_line()
    assert folded.to_csv() == reference.to_csv()
    assert folded.to_text() == reference.to_text()


def test_naive_batch_fails_first_detection_mid_batch():
    # The fold of test_batch_fold_matches_run_fold covers failed trials.
    passed = _naive()[2].first_passed.tolist()
    assert any(not p and True in passed[:i] and True in passed[i + 1:]
               for i, p in enumerate(passed))


def test_empty_batch_is_refused():
    with pytest.raises(ValueError):
        run_protocol_batch(CAMPAIGNS["honest"][0], [])


def test_guesses_mark_unguessed_photons():
    config, spec, batch = _naive()
    for t in range(len(batch)):
        guessed = np.flatnonzero(batch.guesses[t] >= 0).tolist()
        if not batch.first_passed[t]:
            assert guessed == []
        else:
            assert guessed == batch.payload_ids[np.searchsorted(batch.live, t)].tolist()
