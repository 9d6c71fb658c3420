"""A batch of trials gives each trial exactly the run it gets alone.

``run_batch`` stacks the photons of many trials into one array; each trial
still draws from its own generators. Every column of a batch, bit for bit,
and every transcript byte (the run's row of ``render_transcripts``) must
equal those of its trials run as batches of one and stacked in trial order,
including trials that fail the first detection mid-batch.
"""
import dataclasses

import numpy as np
import pytest

from qsslab.analysis import derive_seed, run_batch, run_batches, summarize
from qsslab.attack import EntanglerSpec, EntanglingAdversary, GuessRule, qgwz_spec
from qsslab.protocol import BatchResult, ProtocolConfig, run_protocol_batch
from qsslab.quantum import State, basis_state
from qsslab.transcript import render_transcripts

BELL = State(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))


def transcripts(batches):
    """The text of every run's transcript, batch by batch, in trial order."""
    return [t.serialize() for batch in batches for t in render_transcripts(batch)]


def columns(batches):
    """Every column of ``batches`` stacked along the trial axis, in order, and
    the text of every transcript: what one batch of all their trials holds.
    ``live`` counts the trials of the batches before each one."""
    offsets = np.cumsum([0] + [len(batch) for batch in batches])
    out = {
        "seeds": sum((batch.seeds for batch in batches), ()),
        "live": np.concatenate([batch.live + offset for batch, offset in zip(batches, offsets)]),
        "transcripts": transcripts(batches),
    }
    for field in dataclasses.fields(BatchResult):
        if field.name not in ("config", "num_photons", *out):
            rows = [getattr(batch, field.name) for batch in batches]
            out[field.name] = None if rows[0] is None else np.concatenate(rows)
    return out


def assert_same_runs(batches, singles):
    got, want = columns(batches), columns(singles)
    assert got.keys() == want.keys()
    for key, value in got.items():
        if isinstance(value, np.ndarray):
            assert (value.dtype, value.shape) == (want[key].dtype, want[key].shape), key
            assert value.tobytes() == want[key].tobytes(), key
        else:
            assert value == want[key], key


def d8_spec():
    rng = np.random.default_rng(808)
    eps = rng.normal(size=8) + 1j * rng.normal(size=8)
    eps /= np.linalg.norm(eps)
    perp = rng.normal(size=8) + 1j * rng.normal(size=8)
    perp -= np.vdot(eps, perp) * eps
    perp /= np.linalg.norm(perp)
    return EntanglerSpec(State(eps), State(perp), 0.6 + 0.0j, 0.8j, 2.1)


CAMPAIGNS = {
    "honest": (ProtocolConfig(num_agents=3, message_length=20, num_second_checks=3, seed=1),
               None, GuessRule()),
    "qgwz-adaptive": (ProtocolConfig(num_agents=4, message_length=16, check_fraction_first=0.25,
                                     num_second_checks=2, adversary_position=0, seed=2),
                      qgwz_spec(BELL), GuessRule(1, 0)),
    "general-d8": (ProtocolConfig(num_agents=2, message_length=12, num_second_checks=1,
                                  angle_distribution="discrete", seed=3),
                   d8_spec(), GuessRule()),
}


@pytest.mark.parametrize("name", CAMPAIGNS)
def test_batch_matches_batches_of_one(name):
    config, spec, rule = CAMPAIGNS[name]
    batch = run_batch(config, range(13), spec, rule)
    singles = [run_batch(config, [i], spec, rule) for i in range(13)]
    assert_same_runs([batch], singles)
    assert batch.first_passed.all()
    if spec is not None:
        assert (batch.guesses >= 0).any(axis=1).all()
    # Any subset of trial indices, in any order.
    picked = [11, 2, 7]
    assert_same_runs([run_batch(config, picked, spec, rule)], [singles[i] for i in picked])


def test_naive_batch_with_failed_first_detections():
    # The non-adaptive control gets caught in some trials: those leave the
    # batch after the first detection and draw nothing more.
    naive = EntanglerSpec(basis_state(1, 0), basis_state(1, 1), 0.8, 0.6, 1.1)
    config = ProtocolConfig(num_agents=3, message_length=4, check_fraction_first=0.3,
                            num_second_checks=1, seed=4)
    seeds = [derive_seed(config.seed, i) for i in range(16)]

    def factory(rngs):
        return EntanglingAdversary(naive, rngs, adaptive=False)

    batch = run_protocol_batch(config, seeds, factory)
    assert_same_runs([batch], [run_protocol_batch(config, [s], factory) for s in seeds])
    passed = batch.first_passed.tolist()
    # Both verdicts occur, and a failed trial sits between passing ones.
    assert any(not p and True in passed[:i] and True in passed[i + 1:]
               for i, p in enumerate(passed))
    # A failed trial has no decoded row and guesses nothing.
    assert batch.live.tolist() == [t for t, p in enumerate(passed) if p]
    assert (batch.guesses[~batch.first_passed] < 0).all()


def test_campaign_over_several_batches_matches_single_trials():
    # Criterion 5's config: 1000 photons x 3 agents a trial, so a batch
    # holds 100 000 // 3000 = 33 trials and 70 trials take three batches.
    config = ProtocolConfig(num_agents=3, message_length=500, check_fraction_first=0.5,
                            num_second_checks=0, seed=55)
    spec, rule = qgwz_spec(BELL), GuessRule()
    batches = list(run_batches(config, spec, rule, 70))
    assert [len(b) for b in batches] == [33, 33, 4]
    singles = [run_batch(config, [i], spec, rule) for i in range(70)]
    assert_same_runs(batches, singles)
    report = summarize(config, spec, batches).to_json_line()
    assert report == summarize(config, spec, singles).to_json_line()
