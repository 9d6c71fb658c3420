"""Equivalence gate for the protocol engine.

``tests/data/engine_golden.json`` holds seeded protocol runs recorded from
the per-photon reference engine (one ``State`` per photon and operation, as
of commit 0c7f2ae). The current engine must reproduce every discrete
outcome exactly (message, decoded bits, check ids and outcomes, check
positions, guesses, final ancilla outcomes), every Born probability within
1e-12, the transcript lines of the recorded runs (exactly for honest runs,
floats within 1e-12 under attack), and byte-identical ``qsslab run --format
json-lines`` reports and ``qsslab sweep`` tables for the shipped configs.

``transcripts_sha256`` holds the digests of ``qsslab run --transcripts``
directories for the shipped configs, recorded at commit e27fedc, before
transcripts were rendered from line templates; they pin every
transcript byte, floats included.

``SKEWED_TRANSCRIPTS_SHA256``, a constant here and not a golden key, pins
the same digest for ``configs/qgwz.json`` with the ``SKEWED`` ancilla, whose
|eps> is not a basis state: the last digits of its transcript floats depend
on the order in which the adversary's <eps| and <eps_perp| contractions
sum, and on the bits of the entangler. It was recorded when those
contractions replaced projector sets, and re-recorded when the closed-form
entangler stack replaced the Gram-Schmidt build (only probabilities moved,
each by at most 8.9e-16).

The qgwz ``transcripts_sha256`` and ``SKEWED_TRANSCRIPTS_SHA256`` were both
re-recorded when the adversary moved to coordinates on span(eps, eps_perp),
4-wide rows summed elementwise instead of 2d-wide rows through BLAS
products. Only probabilities moved: 31 of the qgwz fields, each by at most
4.5e-16, and 208 of the skewed ones, each by at most 8.9e-16. Neither digest
depends on the host's BLAS kernel since (``tests/test_blas_independence.py``).

The ``reports`` and ``sweep_sha256`` were re-recorded when the trace
distances moved to the closed form on span(eps, eps_perp) (every value
within 1e-12 of the earlier eigvalsh kernel; the qgwz report's
``max_trace_distance`` went from 1.18e-16 to 0).

Re-record only against a trusted engine:

    PYTHONPATH=src python tests/test_engine_equivalence.py --record
    PYTHONPATH=src python tests/test_engine_equivalence.py --record-transcripts
    PYTHONPATH=src python tests/test_engine_equivalence.py --record-analysis
"""
import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest

from qsslab.attack import (
    EntanglerSpec,
    EntanglingAdversary,
    GuessRule,
    qgwz_spec,
    random_entangler_spec,
)
from qsslab.cli import main
from qsslab.protocol import ProtocolConfig, run_protocol_batch
from qsslab.quantum import State
from qsslab.transcript import render_transcripts
from row_view import run_of

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "engine_golden.json"
PROB_TOL = 1e-12
FLOAT_KEYS = ("probability",)
REPORT_CONFIGS = ("configs/honest.json", "configs/qgwz.json")
TRANSCRIPT_TRIALS = {"configs/honest.json": 20, "configs/qgwz.json": 5}

BELL = [[2**-0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [2**-0.5, 0.0]]
SKEWED = [[0.3, 0.1], [-0.4, 0.2], [0.1, -0.5], [0.6, 0.3]]  # normalized on use
NAIVE = {"epsilon": [[1.0, 0.0], [0.0, 0.0]], "epsilon_perp": [[0.0, 0.0], [1.0, 0.0]],
         "alpha": [0.8, 0.0], "beta": [0.6, 0.0], "theta_prime": 1.1}


def _case(name, attack=None, adaptive=True, rule=(0, 1), transcript=False, **proto):
    return {"name": name, "protocol": proto, "attack": attack, "adaptive": adaptive,
            "rule": list(rule), "transcript": transcript}


def _cases():
    qgwz = lambda amps: {"kind": "qgwz", "ancilla_state": amps}
    rand = lambda seed, dim: {"kind": "random", "seed": seed, "dim": dim}
    naive = {"kind": "general", **NAIVE}
    out = [
        _case("honest-2", num_agents=2, message_length=8, num_second_checks=2, seed=1),
        _case("honest-3-transcript", transcript=True, num_agents=3, message_length=6,
              num_second_checks=2, seed=7),
        _case("honest-3", num_agents=3, message_length=32, num_second_checks=4, seed=7),
        _case("honest-4", num_agents=4, message_length=16, num_second_checks=0,
              check_fraction_first=0.25, seed=11),
        _case("honest-5", num_agents=5, message_length=12, num_second_checks=3,
              check_fraction_first=0.6, seed=12),
        _case("honest-fixed-bits", num_agents=3, message_bits=[1, 0, 1, 1, 0, 0, 1, 0],
              num_second_checks=2, seed=13),
        _case("discrete-2-transcript", transcript=True, num_agents=2, message_length=5,
              num_second_checks=2, angle_distribution="discrete", seed=21),
        _case("discrete-4", num_agents=4, message_length=20, num_second_checks=4,
              angle_distribution="discrete", seed=22),
        _case("discrete-5", num_agents=5, message_length=9, num_second_checks=1,
              angle_distribution="discrete", seed=23),
        _case("qgwz-bell", qgwz(BELL), num_agents=3, message_length=24, num_second_checks=2,
              check_fraction_first=0.25, seed=31),
        _case("qgwz-skewed-campaign", qgwz(SKEWED), num_agents=3, message_length=100,
              num_second_checks=2, check_fraction_first=0.25, seed=32),
        _case("qgwz-bell-first-agent-transcript", qgwz(BELL), transcript=True, num_agents=2,
              message_length=4, num_second_checks=2, adversary_position=0, seed=33),
        _case("qgwz-skewed-last-agent", qgwz(SKEWED), num_agents=5, message_length=16,
              num_second_checks=3, adversary_position=4, seed=34),
        _case("qgwz-bell-rule-10", qgwz(BELL), rule=(1, 0), num_agents=4, message_length=16,
              num_second_checks=2, seed=35),
        _case("qgwz-beta-zero", qgwz([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
              num_agents=3, message_length=8, num_second_checks=2, seed=36),
        _case("qgwz-alpha-zero", qgwz([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]]),
              num_agents=3, message_length=8, num_second_checks=2, seed=37),
        _case("general-d8", rand(41, 8), num_agents=3, message_length=20,
              num_second_checks=2, seed=41),
        _case("general-d8-discrete", rand(42, 8), num_agents=4, message_length=12,
              num_second_checks=2, angle_distribution="discrete", seed=42),
        _case("general-d2", rand(43, 2), rule=(1, 1), num_agents=2, message_length=10,
              num_second_checks=1, seed=43),
        _case("naive-bell-fails-transcript", {"kind": "qgwz", "ancilla_state": BELL},
              adaptive=False, transcript=True, num_agents=3, message_length=6,
              num_second_checks=0, seed=300),
    ]
    for seed in range(50, 56):
        out.append(_case(f"naive-{seed}", naive, adaptive=False, num_agents=2,
                         message_length=3, num_second_checks=1, seed=seed))
    return out


def _pairs(amps):
    return [[float(a.real), float(a.imag)] for a in amps]


def _resolve_attack(attack):
    """Replace a random-spec request by its explicit parameters."""
    if attack is None or attack["kind"] != "random":
        return attack
    spec = random_entangler_spec(np.random.default_rng(attack["seed"]), attack["dim"])
    return {"kind": "general", "epsilon": _pairs(spec.epsilon.amps),
            "epsilon_perp": _pairs(spec.epsilon_perp.amps),
            "alpha": [spec.alpha.real, spec.alpha.imag],
            "beta": [spec.beta.real, spec.beta.imag], "theta_prime": spec.theta_prime}


def _spec(attack):
    state = lambda pairs: State(np.array([complex(*p) for p in pairs]))
    if attack["kind"] == "qgwz":
        amps = np.array([complex(*p) for p in attack["ancilla_state"]])
        return qgwz_spec(State(amps / np.linalg.norm(amps)))
    return EntanglerSpec(state(attack["epsilon"]), state(attack["epsilon_perp"]),
                         complex(*attack["alpha"]), complex(*attack["beta"]),
                         attack["theta_prime"])


def run_case(case):
    """Outcomes of one recorded run, as JSON-ready values, read from its
    record (``tests/row_view.py``)."""
    proto = dict(case["protocol"])
    if proto.get("message_bits") is not None:
        proto["message_bits"] = tuple(proto["message_bits"])
    config = ProtocolConfig(**proto)
    adversaries = []
    factory = None
    if case["attack"] is not None:
        spec = _spec(case["attack"])

        def factory(rngs):
            adversaries.append(EntanglingAdversary(
                spec, rngs, GuessRule(*case["rule"]), adaptive=case["adaptive"]))
            return adversaries[-1]

    batch = run_protocol_batch(config, [config.seed], factory)
    r = run_of(batch, 0)
    first = r.first_detection
    out = {
        "message": list(r.message),
        "decoded_message": None if r.decoded_message is None else list(r.decoded_message),
        "first_passed": first.passed,
        "first_failed": list(first.failed_photons),
        "check_ids": [j for j, _, _ in first.outcomes],
        "check_outcomes": [o for _, o, _ in first.outcomes],
        "check_probabilities": [p for _, _, p in first.outcomes],
        "check_positions": list(r.check_positions),
        "message_photon_ids": list(r.message_photon_ids),
        "recovery_probabilities": list(r.recovery_probabilities),
        "second": None if r.second_detection is None else [
            r.second_detection.passed, list(r.second_detection.failed_photons)],
        "guesses": sorted([int(k), int(v)] for k, v in r.guesses.items()),
        "final_outcomes": [
            [j, o] for j, o in enumerate(adversaries[0].final_outcomes[0].tolist()) if o >= 0
        ] if adversaries else [],
    }
    if case["transcript"]:
        out["transcript"] = next(render_transcripts(batch)).to_lines()
    return out


def cli_report(config_path, tmp_dir):
    out = pathlib.Path(tmp_dir) / "report.jsonl"
    code = main(["run", str(ROOT / config_path), "--format", "json-lines", "--out", str(out)])
    return code, out.read_text()


def cli_sweep_digest(config_path, tmp_dir):
    out = pathlib.Path(tmp_dir) / "sweep.csv"
    code = main(["sweep", str(ROOT / config_path), "--out", str(out)])
    return code, hashlib.sha256(out.read_bytes()).hexdigest()


def cli_transcripts_digest(config_path, tmp_dir, trials=None):
    """sha256 over the name and bytes of every file ``--transcripts`` writes."""
    tdir = pathlib.Path(tmp_dir) / "transcripts"
    trials = TRANSCRIPT_TRIALS[config_path] if trials is None else trials
    code = main(["run", str(ROOT / config_path), "--trials", str(trials),
                 "--transcripts", str(tdir), "--out", str(pathlib.Path(tmp_dir) / "report.txt")])
    digest = hashlib.sha256()
    for path in sorted(tdir.iterdir()):
        digest.update(path.name.encode() + b"\n" + path.read_bytes())
    return code, digest.hexdigest()


def _load():
    return json.loads(GOLDEN.read_text())


CASES = _cases()


@pytest.mark.parametrize("index", range(len(CASES)), ids=[c["name"] for c in CASES])
def test_engine_matches_reference(index):
    entry = _load()["runs"][index]
    assert entry["case"]["name"] == CASES[index]["name"]
    got = run_case(entry["case"])
    want = entry["expected"]
    for key in want:
        if key in ("check_probabilities", "recovery_probabilities"):
            assert len(got[key]) == len(want[key]), key
            assert np.max(np.abs(np.subtract(got[key], want[key])), initial=0.0) <= PROB_TOL
        elif key == "transcript" and entry["case"]["attack"] is None:
            # Honest runs match the reference engine byte for byte.
            assert got[key] == want[key]
        elif key == "transcript":
            assert len(got[key]) == len(want[key])
            for line_got, line_want in zip(got[key], want[key]):
                _assert_same_line(line_got, line_want)
        else:
            assert got[key] == want[key], key


def _assert_same_line(got, want):
    tokens_got, tokens_want = got.split(" "), want.split(" ")
    assert len(tokens_got) == len(tokens_want), (got, want)
    for a, b in zip(tokens_got, tokens_want):
        key_a, _, value_a = a.partition("=")
        key_b, _, value_b = b.partition("=")
        assert key_a == key_b, (got, want)
        if key_a in FLOAT_KEYS:
            assert abs(float(value_a) - float(value_b)) <= PROB_TOL, (got, want)
        else:
            assert value_a == value_b, (got, want)


def test_golden_covers_both_naive_verdicts():
    naive = [e["expected"]["first_passed"] for e in _load()["runs"]
             if not e["case"]["adaptive"]]
    assert True in naive and False in naive


@pytest.mark.parametrize("config_path", REPORT_CONFIGS)
def test_cli_reports_byte_identical(config_path, tmp_path):
    code, report = cli_report(config_path, tmp_path)
    assert code == 0
    assert report == _load()["reports"][config_path]


@pytest.mark.parametrize("config_path", REPORT_CONFIGS)
def test_cli_sweep_tables_byte_identical(config_path, tmp_path):
    code, digest = cli_sweep_digest(config_path, tmp_path)
    assert code == 0
    assert digest == _load()["sweep_sha256"][config_path]


@pytest.mark.parametrize("config_path", REPORT_CONFIGS)
def test_cli_transcripts_byte_identical(config_path, tmp_path):
    code, digest = cli_transcripts_digest(config_path, tmp_path)
    assert code == 0
    assert digest == _load()["transcripts_sha256"][config_path]


SKEWED_TRANSCRIPTS_SHA256 = "48089020d5ce807d0ed317a91de2d479cf4e2909d23472d7fdd12d2ec0c364dc"


def test_cli_transcripts_byte_identical_skewed_ancilla(tmp_path):
    doc = json.loads((ROOT / "configs" / "qgwz.json").read_text())
    amps = np.array([complex(*p) for p in SKEWED])
    doc["attack"]["ancilla_state"] = _pairs(amps / np.linalg.norm(amps))
    config = tmp_path / "qgwz-skewed.json"
    config.write_text(json.dumps(doc))
    code, digest = cli_transcripts_digest(config, tmp_path, trials=5)
    assert code == 0
    assert digest == SKEWED_TRANSCRIPTS_SHA256


def _transcript_digests():
    import tempfile

    digests = {}
    for path in REPORT_CONFIGS:
        with tempfile.TemporaryDirectory() as tmp:
            digests[path] = cli_transcripts_digest(path, tmp)[1]
    return digests


def _write_golden(golden):
    GOLDEN.parent.mkdir(exist_ok=True)
    # One run per line keeps diffs of a re-recording readable.
    head = [f'"{key}": {json.dumps(value)}' for key, value in golden.items() if key != "runs"]
    runs = [json.dumps(run) for run in golden["runs"]]
    GOLDEN.write_text("{" + ",\n".join(head) + ',\n"runs": [\n' + ",\n".join(runs) + "\n]}\n")


def record():
    import tempfile

    runs = []
    for case in CASES:
        case = dict(case, attack=_resolve_attack(case["attack"]))
        runs.append({"case": case, "expected": run_case(case)})
    with tempfile.TemporaryDirectory() as tmp:
        reports = {path: cli_report(path, tmp)[1] for path in REPORT_CONFIGS}
        sweeps = {path: cli_sweep_digest(path, tmp)[1] for path in REPORT_CONFIGS}
    _write_golden({"reports": reports, "sweep_sha256": sweeps,
                   "transcripts_sha256": _transcript_digests(), "runs": runs})


def record_transcripts():
    """Re-record only the transcript digests, keeping the recorded runs."""
    golden = _load()
    runs = golden.pop("runs")
    _write_golden({**golden, "transcripts_sha256": _transcript_digests(), "runs": runs})


def record_analysis():
    """Re-record only the outputs of the exact analysis, the reports and the
    sweep digests, keeping the runs and the transcript digests."""
    import tempfile

    golden = _load()
    runs = golden.pop("runs")
    with tempfile.TemporaryDirectory() as tmp:
        golden["reports"] = {path: cli_report(path, tmp)[1] for path in REPORT_CONFIGS}
        golden["sweep_sha256"] = {path: cli_sweep_digest(path, tmp)[1] for path in REPORT_CONFIGS}
    _write_golden({**golden, "runs": runs})


if __name__ == "__main__":
    modes = {"--record": record, "--record-transcripts": record_transcripts,
             "--record-analysis": record_analysis}
    if len(sys.argv) != 2 or sys.argv[1] not in modes:
        sys.exit(__doc__)
    modes[sys.argv[1]]()
