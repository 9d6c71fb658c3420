"""Transcript rendering against the reference renderer, and parsing back.

One row renderer writes every transcript: ``render_transcripts`` feeds it a
batch's arrays run by run, and a run's transcript is its row of that batch.
It formats only what differs between runs: the preparation and encryption
lines come from a one-entry cache keyed by (agents, photons), every float is
written as ``%.17g`` once per distinct bit pattern (``format_floats``), and
each later phase is its per-photon template with the run's strings joined
into its gaps. Its bytes must equal those of the reference renderer below,
which formats every line of every run with ``str.format`` and f-strings,
from the run's record (``tests/row_view.py``).
"""
import itertools
import math
import pathlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsslab import cli, transcript
from qsslab.analysis import derive_seed, run_batches
from qsslab.attack import (
    EntanglerSpec,
    EntanglingAdversary,
    GuessRule,
    qgwz_spec,
    random_entangler_spec,
)
from qsslab.cli import load_scenario
from qsslab.protocol import BatchResult, ProtocolConfig, agent_name, run_protocol_batch
from qsslab.quantum import State, basis_state
from qsslab.transcript import InvariantPhaseError, Transcript, format_floats, render_transcripts
from row_view import DetectionVerdict, run_of

ROOT = pathlib.Path(__file__).resolve().parents[1]
BELL = State(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
# The non-adaptive control: caught at the first detection in some runs.
NAIVE = EntanglerSpec(basis_state(1, 0), basis_state(1, 1), 0.8, 0.6, 1.1)


def reference_transcript(batch: BatchResult, t: int) -> Transcript:
    """Run ``t``'s key=value lines, in protocol order, from its recorded
    outcomes in ``batch``.

    Each phase has line templates with the party names filled in: one
    ``str.format`` or f-string per photon, floats written as ``.17g``.
    """
    r = run_of(batch, t)
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
    photons = range(batch.num_photons)
    lines = [f"phase=preparation kind=Prepared party=Alice photon={j}" for j in photons]
    lines += map(encryption.format, photons)
    first = r.first_detection
    lines += [
        check.format(j, *angles, outcome, prob)
        for (j, outcome, prob), angles in zip(first.outcomes, batch.announcements[t].tolist())
    ]
    lines.append(_reference_verdict_line(first))
    if r.second_detection is not None:
        payload_ids, decoded = payload_rows(batch, t)
        lines += [f"phase=encoding kind=Encoded party=Alice photon={j}" for j in payload_ids]
        lines += [
            f"phase=recovery kind=Sent party=Alice photon={j} to={receiver}\n"
            f"phase=recovery kind=Measured party={receiver} photon={j} basis=Z "
            f"outcome={outcome} probability={prob:.17g}"
            for j, outcome, prob in zip(payload_ids, decoded, r.recovery_probabilities)
        ]
        lines.append(_reference_verdict_line(r.second_detection))
    return Transcript("\n".join(lines) + "\n")


def payload_rows(batch: BatchResult, t: int) -> tuple[list[int], list[int]]:
    """The payload photon ids and decoded payload bits of run ``t``: none
    for a run that failed the first detection."""
    if not batch.first_passed[t]:
        return [], []
    i = int(np.searchsorted(batch.live, t))
    return batch.payload_ids[i].tolist(), batch.decoded_payload[i].tolist()


def reference_transcripts(batch: BatchResult) -> list[Transcript]:
    return [reference_transcript(batch, t) for t in range(len(batch))]


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
    # Render the campaigns' runs round-robin, one run of each in turn, so
    # consecutive renders mostly differ in (agents, photons) and the
    # one-entry prefix cache turns over.
    renders = [
        zip(itertools.repeat((batch, what)), enumerate(render_transcripts(batch)))
        for batch, what in campaigns
    ]
    turns = itertools.chain.from_iterable(itertools.zip_longest(*renders))
    seen = Counter()
    for (batch, what), (t, rendered) in filter(None, turns):
        config, passed = batch.config, batch.first_passed[t]
        text = rendered.serialize()
        assert text == reference_transcript(batch, t).serialize(), what
        seen.update(
            name for name in ("Agent8", "Agent9", "Zach") if f"party={name} " in text
        )
        seen["failed first detection"] += not passed
        seen["no second checks"] += config.num_second_checks == 0 and passed
        seen["fixed message"] += config.message_bits is not None
        seen["discrete"] += config.angle_distribution == "discrete"
    # Every case the renderer must cover occurs.
    assert all(seen[case] for case in (
        "Agent8", "Agent9", "Zach", "failed first detection", "no second checks",
        "fixed message", "discrete",
    )), seen


def test_batch_render_matches_reference_on_random_configs(campaigns):
    for batch, what in campaigns:
        rendered = [t.serialize() for t in render_transcripts(batch)]
        assert rendered == [t.serialize() for t in reference_transcripts(batch)], what


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
    monkeypatch.setattr(transcript, "_FORMAT_CHUNK", chunk)
    assert list(render_transcripts(batch)) == reference_transcripts(batch)


def test_cli_transcripts_build_no_run(tmp_path):
    path = str(ROOT / "configs/honest.json")
    scenario = load_scenario(path)
    expected = [
        t.serialize()
        for batch in run_batches(scenario.protocol, scenario.entangler, scenario.rule, 3)
        for t in reference_transcripts(batch)
    ]
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
    runs = [run_protocol_batch(config, [seed]) for seed in (5, 6) for config in (small, large)]
    transcript._prefix.cache_clear()
    for batch in runs + runs:
        assert next(render_transcripts(batch)) == reference_transcript(batch, 0)
        assert transcript._prefix.cache_info().currsize == 1
    info = transcript._prefix.cache_info()
    assert info.maxsize == 1
    # Every render switched config, so none of them hit the cache.
    assert (info.hits, info.misses) == (0, len(runs) * 2)


@pytest.fixture(scope="module", params=["configs/honest.json", "configs/qgwz.json"])
def shipped_runs(request):
    """Six runs of a shipped config, each as (its batch, its row, its transcript)."""
    scenario = load_scenario(str(ROOT / request.param))
    return [
        (batch, t, rendered)
        for batch in run_batches(scenario.protocol, scenario.entangler, scenario.rule, 6)
        for t, rendered in enumerate(render_transcripts(batch))
    ]


def bits(values):
    return [float(v).hex() for v in values]


def test_records_parse_back_the_run_bit_for_bit(shipped_runs):
    for batch, t, rendered in shipped_runs:
        records = rendered.records()
        first = [f for f in records if f["phase"] == "first-detection"]
        assert bits(f["angle"] for f in first if "angle" in f) == bits(
            angle for row in batch.announcements[t].tolist() for angle in row
        )
        measured = [(f["photon"], f["outcome"], f["probability"])
                    for f in first if f["kind"] == "Measured"]
        assert [(j, o) for j, o, _ in measured] == list(
            zip(batch.check_ids[t].tolist(), batch.check_outcomes[t].tolist())
        )
        assert bits(p for _, _, p in measured) == bits(batch.check_probabilities[t])
        recovered = [f for f in records if f["phase"] == "recovery" and f["kind"] == "Measured"]
        assert [(f["photon"], f["outcome"]) for f in recovered] == list(
            zip(*payload_rows(batch, t))
        )
        live = batch.live == t
        assert bits(f["probability"] for f in recovered) == bits(
            batch.recovery_probabilities[live].ravel()
        )
        assert all(type(f["photon"]) is int for f in records if "photon" in f)


def test_records_render_back_to_the_same_text(shipped_runs):
    def field(key, value):
        return f"{key}={value:.17g}" if isinstance(value, float) else f"{key}={value}"

    for _, _, rendered in shipped_runs:
        text = "".join(
            " ".join(field(k, v) for k, v in record.items()) + "\n"
            for record in rendered.records()
        )
        assert text == rendered.serialize()


PREPARED = "phase=preparation kind=Prepared party=Alice photon=0"


@pytest.mark.parametrize("line, parse, error, message", [
    # The tail of a transcript cut mid-line, as when a report overwrote it.
    pytest.param("ration kind=Prepared party=Alice photon=3", Transcript.records, ValueError,
                 "line 2: malformed field 'ration'", id="records-not-key-value"),
    pytest.param("", Transcript.records, ValueError,
                 "line 2: malformed field ''", id="records-empty-line"),
    pytest.param(PREPARED.replace("photon=0", "photon=x"), Transcript.records, ValueError,
                 "line 2: malformed field 'photon=x'", id="records-int"),
    pytest.param("phase=recovery kind=Measured party=Zach photon=1 basis=Z outcome=0 "
                 "probability=p", Transcript.records, ValueError,
                 "line 2: malformed field 'probability=p'", id="records-float"),
    pytest.param("ration kind=Prepared party=Alice photon=3", Transcript.check_phase_order,
                 InvariantPhaseError, "line 2: unknown phase 'ration'", id="order-no-phase"),
    pytest.param(PREPARED.replace("preparation", "decryption"), Transcript.check_phase_order,
                 InvariantPhaseError, "line 2: unknown phase 'phase=decryption'",
                 id="order-unknown-phase"),
])
def test_malformed_line_names_its_line_and_field(line, parse, error, message):
    with pytest.raises(error) as exc:
        parse(Transcript(f"{PREPARED}\n{line}\n{PREPARED}\n"))
    assert str(exc.value) == message
