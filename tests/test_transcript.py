"""Transcript rendering against the reference renderer, and parsing back.

One row renderer writes every transcript. ``render_transcripts`` feeds it a
batch's arrays run by run, without building a ``RunResult``, and
``render_transcript`` feeds it one run's own fields. It formats only what
differs between runs: the preparation and encryption lines come from a
one-entry cache keyed by (agents, photons), every float is written as
``%.17g`` once per distinct bit pattern (``format_floats``), and each later
phase is its per-photon template with the run's strings joined into its
gaps. Its bytes must equal those of the reference renderer below, which
formats every line of every run with ``str.format`` and f-strings.
"""
import math
import pathlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsslab import cli, protocol
from qsslab.analysis import derive_seed, run_trials
from qsslab.attack import (
    EntanglerSpec,
    EntanglingAdversary,
    GuessRule,
    qgwz_spec,
    random_entangler_spec,
)
from qsslab.cli import load_scenario
from qsslab.protocol import (
    BatchResult,
    DetectionVerdict,
    ProtocolConfig,
    RunResult,
    Transcript,
    agent_name,
    format_floats,
    render_transcript,
    render_transcripts,
    run_protocol_batch,
)
from qsslab.quantum import State, basis_state

ROOT = pathlib.Path(__file__).resolve().parents[1]
BELL = State(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
# The non-adaptive control: caught at the first detection in some runs.
NAIVE = EntanglerSpec(basis_state(1, 0), basis_state(1, 1), 0.8, 0.6, 1.1)


def reference_transcript(r: RunResult) -> Transcript:
    """The run's key=value lines, in protocol order, from its recorded outcomes.

    Each phase has line templates with the party names filled in: one
    ``str.format`` or f-string per photon, floats written as ``.17g``.
    """
    names = [agent_name(k, r.config.num_agents) for k in range(r.config.num_agents)]
    receiver = names[-1]
    # Alice sends each photon to the first agent, and each agent rotates it and
    # passes it on. The angle is committed to the ledger but never logged in clear.
    encryption = "\n".join(
        [f"phase=encryption kind=Sent party=Alice photon={{0}} to={names[0]}"] + [
            f"phase=encryption kind=Rotated party={name} photon={{0}}\n"
            f"phase=encryption kind=Sent party={name} photon={{0}} to={dest}"
            for name, dest in zip(names, names[1:] + ["Alice"])
        ]
    )
    # Fields: photon, one announced angle per agent, outcome, probability.
    check = "\n".join(
        ["phase=first-detection kind=AnnouncementRequested party=Alice photon={0}"] + [
            f"phase=first-detection kind=Announced party={name} photon={{0}} angle={{{i}:.17g}}"
            for i, name in enumerate(names, 1)
        ] + [
            "phase=first-detection kind=Measured party=Alice photon={0} basis=Z "
            f"outcome={{{len(names) + 1}}} probability={{{len(names) + 2}:.17g}}"
        ]
    )
    photons = range(r.num_photons)
    lines = [f"phase=preparation kind=Prepared party=Alice photon={j}" for j in photons]
    lines += map(encryption.format, photons)
    first = r.first_detection
    lines += [
        check.format(j, *angles, outcome, prob)
        for (j, outcome, prob), angles in zip(first.outcomes, r.announcements)
    ]
    lines.append(_reference_verdict_line(first))
    if r.second_detection is not None:
        lines += [f"phase=encoding kind=Encoded party=Alice photon={j}" for j in r.payload_ids]
        lines += [
            f"phase=recovery kind=Sent party=Alice photon={j} to={receiver}\n"
            f"phase=recovery kind=Measured party={receiver} photon={j} basis=Z "
            f"outcome={outcome} probability={prob:.17g}"
            for j, outcome, prob in zip(r.payload_ids, r.decoded_payload, r.recovery_probabilities)
        ]
        lines.append(_reference_verdict_line(r.second_detection))
    return Transcript("\n".join(lines) + "\n")


def _reference_verdict_line(verdict: DetectionVerdict) -> str:
    result = "pass" if verdict.passed else "fail"
    failed = ",".join(map(str, verdict.failed_photons)) or "-"
    return f"phase={verdict.phase} kind=Verdict party=Alice result={result} failed={failed}"


def random_campaign(rng: np.random.Generator, index: int):
    """A random config, 1-4 runs of it, and a description for failures."""
    agents = int(rng.integers(2, 12))
    proto = dict(
        num_agents=agents,
        check_fraction_first=float(rng.uniform(0.15, 0.7)),
        num_second_checks=int(rng.integers(0, 4)),
        angle_distribution=("uniform", "discrete")[index % 2],
        adversary_position=int(rng.integers(0, agents)),
        seed=index,
    )
    if index % 3 == 0:
        proto["message_bits"] = tuple(int(b) for b in rng.integers(0, 2, size=rng.integers(1, 9)))
    else:
        proto["message_length"] = int(rng.integers(1, 13))
    config = ProtocolConfig(**proto)
    kind = ("honest", "qgwz", "general", "naive")[index % 4]
    spec = {"honest": None, "qgwz": qgwz_spec(BELL), "naive": NAIVE,
            "general": random_entangler_spec(rng)}[kind]
    factory = None
    if spec is not None:
        def factory(rngs):
            return EntanglingAdversary(spec, rngs, GuessRule(), adaptive=kind != "naive")
    seeds = [derive_seed(index, i) for i in range(int(rng.integers(1, 5)))]
    return run_protocol_batch(config, seeds, factory), f"{kind} {proto}"


@pytest.fixture(scope="module")
def campaigns():
    rng = np.random.default_rng(909)
    return [random_campaign(rng, i) for i in range(48)]


def test_render_matches_reference_on_random_configs(campaigns):
    # Render the campaigns' runs round-robin, so consecutive renders mostly
    # differ in (agents, photons) and the one-entry prefix cache turns over.
    runs = [(r, what) for runs, what in campaigns for r in runs]
    runs = runs[0::2] + runs[1::2]
    seen = Counter()
    for r, what in runs:
        text = render_transcript(r).serialize()
        assert text == reference_transcript(r).serialize(), what
        seen.update(
            name for name in ("Agent8", "Agent9", "Zach") if f"party={name} " in text
        )
        seen["failed first detection"] += not r.first_detection.passed
        seen["no second checks"] += r.config.num_second_checks == 0 and r.first_detection.passed
        seen["fixed message"] += r.config.message_bits is not None
        seen["discrete"] += r.config.angle_distribution == "discrete"
    # Every case the renderer must cover occurs.
    assert all(seen[case] for case in (
        "Agent8", "Agent9", "Zach", "failed first detection", "no second checks",
        "fixed message", "discrete",
    )), seen


def test_batch_render_matches_reference_on_random_configs(campaigns):
    for batch, what in campaigns:
        rendered = [t.serialize() for t in render_transcripts(batch)]
        assert rendered == [reference_transcript(r).serialize() for r in batch], what


@pytest.mark.parametrize("chunk", [1, 40, 10**6])
def test_batch_render_across_format_chunks(monkeypatch, chunk):
    # 17 floats a run (9 angles, 3 check and 5 recovery probabilities): one
    # run, two runs, or the whole batch per chunk, with runs that failed the
    # first detection among them.
    config = ProtocolConfig(num_agents=3, message_length=4, check_fraction_first=0.3,
                            num_second_checks=1, seed=4)
    batch = run_protocol_batch(
        config, [derive_seed(4, i) for i in range(16)],
        lambda rngs: EntanglingAdversary(NAIVE, rngs, adaptive=False),
    )
    assert (batch.announcements[0].size, batch.payload_ids.shape[1]) == (9, 5)
    assert 0 < batch.first_passed.sum() < len(batch)
    monkeypatch.setattr(protocol, "_FORMAT_CHUNK", chunk)
    assert list(render_transcripts(batch)) == [reference_transcript(r) for r in batch]


def test_cli_transcripts_build_no_run(monkeypatch, tmp_path):
    path = str(ROOT / "configs/honest.json")
    scenario = load_scenario(path)
    expected = [
        reference_transcript(r).serialize()
        for r in run_trials(scenario.protocol, scenario.entangler, scenario.rule, 3)
    ]

    def refuse(self, t):
        raise AssertionError("a RunResult was built")

    monkeypatch.setattr(BatchResult, "__getitem__", refuse)
    with pytest.raises(AssertionError, match="RunResult was built"):
        list(run_trials(scenario.protocol, scenario.entangler, scenario.rule, 1))
    assert cli.main(["run", path, "--trials", "3", "--transcripts", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"trial_{i:05d}.log" for i in range(3)]
    assert [(tmp_path / f"trial_{i:05d}.log").read_text() for i in range(3)] == expected


def _bits_to_float(bits: int) -> float:
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


SPECIAL_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
    _bits_to_float(0x7FF8000000000001),  # a NaN with another payload
    5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
    1.0, 0.1, 1e16, 1e17, 1e-5, 1e-4, 2 * math.pi,
]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(SPECIAL_FLOATS)),
        max_size=24,
    ),
    st.integers(1, 3),
)
def test_format_floats_is_percent_17g_once_per_bit_pattern(values, rows):
    base = np.array(values, dtype=float)
    # Repeats, negations and both nextafter neighbours of every value.
    with np.errstate(invalid="ignore", over="ignore"):
        a = np.concatenate([
            base, base[::-1], -base, np.nextafter(base, np.inf), np.nextafter(base, -np.inf),
        ] * rows).reshape(rows, 5, -1)
    out = format_floats(a)
    assert out.shape == a.shape and out.dtype == object
    assert out.ravel().tolist() == ["%.17g" % x for x in a.ravel().tolist()]
    # One string per distinct bit pattern: -0.0 and 0.0, and NaNs with other
    # payloads, are formatted apart.
    assert len({id(s) for s in out.ravel()}) == len(np.unique(a.view(np.uint64)))


def test_prefix_cache_holds_one_entry_and_refills():
    small = ProtocolConfig(num_agents=2, message_length=3, num_second_checks=0, seed=1)
    large = ProtocolConfig(num_agents=10, message_length=9, num_second_checks=2, seed=2)
    runs = [run_protocol_batch(config, [5, 6])[i] for i in (0, 1) for config in (small, large)]
    protocol._prefix.cache_clear()
    for r in runs + runs:
        assert render_transcript(r) == reference_transcript(r)
        assert protocol._prefix.cache_info().currsize == 1
    info = protocol._prefix.cache_info()
    assert info.maxsize == 1
    # Every render switched config, so none of them hit the cache.
    assert (info.hits, info.misses) == (0, len(runs) * 2)


@pytest.fixture(scope="module", params=["configs/honest.json", "configs/qgwz.json"])
def shipped_runs(request):
    scenario = load_scenario(str(ROOT / request.param))
    return list(run_trials(scenario.protocol, scenario.entangler, scenario.rule, 6))


def bits(values):
    return [float(v).hex() for v in values]


def test_records_parse_back_the_run_bit_for_bit(shipped_runs):
    for r in shipped_runs:
        records = r.transcript.records()
        first = [f for f in records if f["phase"] == "first-detection"]
        assert bits(f["angle"] for f in first if "angle" in f) == bits(
            angle for row in r.announcements for angle in row
        )
        measured = [(f["photon"], f["outcome"], f["probability"])
                    for f in first if f["kind"] == "Measured"]
        assert [(j, o) for j, o, _ in measured] == [(j, o) for j, o, _ in r.first_detection.outcomes]
        assert bits(p for _, _, p in measured) == bits(p for _, _, p in r.first_detection.outcomes)
        recovered = [f for f in records if f["phase"] == "recovery" and f["kind"] == "Measured"]
        assert [(f["photon"], f["outcome"]) for f in recovered] == list(
            zip(r.payload_ids, r.decoded_payload)
        )
        assert bits(f["probability"] for f in recovered) == bits(r.recovery_probabilities)
        assert all(type(f["photon"]) is int for f in records if "photon" in f)


def test_records_render_back_to_the_same_text(shipped_runs):
    def field(key, value):
        return f"{key}={value:.17g}" if isinstance(value, float) else f"{key}={value}"

    for r in shipped_runs:
        text = "".join(
            " ".join(field(k, v) for k, v in record.items()) + "\n"
            for record in r.transcript.records()
        )
        assert text == r.transcript.serialize()
