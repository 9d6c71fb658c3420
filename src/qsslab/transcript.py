"""Transcripts: a run's transcript is its row of ``render_transcripts(batch)``,
rendered from the batch's arrays, and parses back into records
(``Transcript.records``). The engine (``protocol``) imports nothing from here.
"""
from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

import numpy as np

from .protocol import BatchResult, agent_name

PHASES = (
    "preparation",
    "encryption",
    "first-detection",
    "encoding",
    "recovery",
    "second-detection",
)


class Transcript:
    """The rendered key=value lines of one protocol run, one event per line."""

    # The fields that records() parses, and their types.
    _FIELD_TYPES = {"photon": int, "outcome": int, "angle": float, "probability": float}

    def __init__(self, text: str):
        self.text = text

    def to_lines(self) -> list[str]:
        return self.text.splitlines()

    def serialize(self) -> str:
        return self.text

    def records(self) -> list[dict]:
        """Each line as a dict of its fields: ``photon`` and ``outcome`` as
        int, ``angle`` and ``probability`` as float (exact, since they are
        written as ``.17g``), every other value as its string. A malformed
        field raises ``ValueError`` naming its line."""
        records = []
        for n, line in enumerate(self.to_lines(), 1):
            record = {}
            for field in line.split(" "):
                key, sep, value = field.partition("=")
                try:
                    if not (key and sep):
                        raise ValueError
                    record[key] = self._FIELD_TYPES.get(key, str)(value)
                except ValueError:
                    raise ValueError(f"line {n}: malformed field {field!r}") from None
            records.append(record)
        return records

    def check_phase_order(self) -> None:
        last = 0
        for n, line in enumerate(self.to_lines(), 1):
            token = line.partition(" ")[0]
            key, _, phase = token.partition("=")
            if key != "phase" or phase not in PHASES:
                raise InvariantPhaseError(f"line {n}: unknown phase {token!r}")
            idx = PHASES.index(phase)
            if idx < last:
                raise InvariantPhaseError(
                    f"line {n}: event in phase {phase!r} after phase {PHASES[last]!r}"
                )
            last = idx

    def __eq__(self, other):
        return isinstance(other, Transcript) and self.text == other.text


class InvariantPhaseError(Exception):
    pass


def render_transcripts(batch: BatchResult) -> Iterator[Transcript]:
    """Each run's transcript, in trial order, straight from the batch's
    arrays.

    The floats of a few runs at a time, about ``_FORMAT_CHUNK`` of them,
    are formatted together, each distinct one once (``format_floats``), so
    the strings held never grow with the batch.
    """
    n_checks, n_payload = batch.check_ids.shape[1], batch.payload_ids.shape[1]
    step = max(1, _FORMAT_CHUNK // (n_checks * (batch.config.num_agents + 1) + n_payload))
    i = 0  # the live row of the next trial that passed the first detection
    for start in range(0, len(batch), step):
        stop = min(start + step, len(batch))
        n_live = np.count_nonzero(batch.first_passed[start:stop])
        angles = format_floats(batch.announcements[start:stop])
        probs = format_floats(batch.check_probabilities[start:stop])
        recovery_probs = iter(format_floats(batch.recovery_probabilities[i:i + n_live]))
        for t in range(start, stop):
            recovery = None
            if batch.first_passed[t]:
                recovery = (
                    batch.payload_ids[i],
                    batch.decoded_payload[i],
                    next(recovery_probs),
                    batch.check_positions[i, batch.check_mismatched[i]].tolist(),
                )
                i += 1
            yield _render_run(
                batch.config.num_agents, batch.num_photons, batch.check_ids[t],
                batch.check_outcomes[t], probs[t - start], angles[t - start], recovery,
            )


# Floats that render_transcripts formats at once: enough to share the
# distinct probabilities of a few runs, and under 0.1 MB of strings.
_FORMAT_CHUNK = 1024


def format_floats(values) -> np.ndarray:
    """``'%.17g' % x`` of every element of ``values``, as an object array of
    the same shape.

    Each distinct bit pattern is formatted once and its string shared, so
    the cost is one ``%`` per distinct value; -0.0 and 0.0, and NaNs with
    different payloads, are told apart.
    """
    values = np.ascontiguousarray(values, dtype=float)
    codes = values.view(np.uint64).ravel()
    # A sort and a search rather than np.unique(..., return_inverse=True),
    # whose argsort pages in about 0.2 MB more of numpy's code.
    keys = np.sort(codes)
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    first[1:] = keys[1:] != keys[:-1]
    keys = keys[first]
    strings = np.empty(len(keys), dtype=object)
    strings[:] = ["%.17g" % x for x in keys.view(float).tolist()]
    return strings[np.searchsorted(keys, codes)].reshape(values.shape)


# Outcome bits as the strings a transcript writes.
_BITS = np.array(["0", "1"], dtype=object)


def _render_run(num_agents, num_photons, ids, outcomes, probs, angles, recovery) -> Transcript:
    """One run's transcript from its rows.

    ``ids`` and ``outcomes`` are the check photons' int arrays, ``probs``
    (checks,) and ``angles`` (checks, agents) their ``format_floats``
    strings. ``recovery`` is None for a run that failed the first detection,
    and otherwise its payload ids, decoded bits, ``format_floats`` strings
    of the recovery probabilities, and the second-check positions that
    mismatched. The preparation and encryption lines come from a one-entry
    cache; every later phase is its per-photon template, repeated, with the
    run's strings joined into its gaps.
    """
    labels = _photon_labels(num_photons)
    check, recovered = _templates(num_agents)
    labelled = labels[ids].tolist()
    # Fields per photon: photon; photon and angle per agent; photon, outcome
    # and probability.
    columns = [labelled]
    for column in angles.T.tolist():
        columns += [labelled, column]
    columns += [labelled, _BITS[outcomes].tolist(), probs.tolist()]
    parts = [
        _prefix(num_agents, num_photons),
        _fill(check, columns),
        _verdict_line("first-detection", ids[outcomes != 0].tolist()),
    ]
    if recovery is not None:
        payload_ids, decoded, recovery_probs, mismatched = recovery
        labelled = labels[payload_ids].tolist()
        parts += [
            _fill(_ENCODED, [labelled]),
            _fill(recovered, [labelled, labelled, _BITS[decoded].tolist(), recovery_probs.tolist()]),
            _verdict_line("second-detection", mismatched),
        ]
    return Transcript("".join(parts))


def _agent_names(num_agents: int) -> list[str]:
    return [agent_name(k, num_agents) for k in range(num_agents)]


def _template(text: str) -> list:
    """A per-photon line template with ``%s`` gaps, as its literal pieces
    with a None slot between each two: the form ``_fill`` takes."""
    pieces = text.split("%s")
    template = [None] * (2 * len(pieces) - 1)
    template[::2] = pieces
    return template


def _fill(template: list, columns: list[list[str]]) -> str:
    """The template repeated once per row of the equal-length ``columns``,
    with column i's strings in gap i."""
    flat = template * len(columns[0])
    for i, column in enumerate(columns):
        flat[2 * i + 1::len(template)] = column
    return "".join(flat)


_ENCODED = _template("phase=encoding kind=Encoded party=Alice photon=%s\n")


@lru_cache(maxsize=1)
def _photon_labels(num_photons: int) -> np.ndarray:
    """The photon ids of a run of this size as strings, in an object array."""
    labels = np.empty(num_photons, dtype=object)
    labels[:] = [str(j) for j in range(num_photons)]
    return labels


@lru_cache(maxsize=1)
def _templates(num_agents: int) -> tuple[list, list]:
    """The per-photon first-detection and recovery templates (``_template``),
    with the party names filled in."""
    names = _agent_names(num_agents)
    check = "".join(
        ["phase=first-detection kind=AnnouncementRequested party=Alice photon=%s\n"] + [
            f"phase=first-detection kind=Announced party={name} photon=%s angle=%s\n"
            for name in names
        ] + [
            "phase=first-detection kind=Measured party=Alice photon=%s basis=Z "
            "outcome=%s probability=%s\n"
        ]
    )
    receiver = names[-1]
    recovery = (
        f"phase=recovery kind=Sent party=Alice photon=%s to={receiver}\n"
        f"phase=recovery kind=Measured party={receiver} photon=%s basis=Z "
        "outcome=%s probability=%s\n"
    )
    return _template(check), _template(recovery)


@lru_cache(maxsize=1)
def _prefix(num_agents: int, num_photons: int) -> str:
    """The preparation and encryption lines of every run of this size.

    A campaign renders runs of one config, so one entry serves it all; a
    run of the largest size has a prefix of about 17 MB.
    """
    names = _agent_names(num_agents)
    # Alice sends each photon to the first agent, and each agent rotates it and
    # passes it on. The angle is committed to the ledger but never logged in clear.
    encryption = "".join(
        [f"phase=encryption kind=Sent party=Alice photon={{0}} to={names[0]}\n"] + [
            f"phase=encryption kind=Rotated party={name} photon={{0}}\n"
            f"phase=encryption kind=Sent party={name} photon={{0}} to={dest}\n"
            for name, dest in zip(names, names[1:] + ["Alice"])
        ]
    )
    photons = range(num_photons)
    return "".join(
        [f"phase=preparation kind=Prepared party=Alice photon={j}\n" for j in photons]
        + [encryption.format(j) for j in photons]
    )


def _verdict_line(phase: str, failed) -> str:
    result = "fail" if failed else "pass"
    failed = ",".join(map(str, failed)) or "-"
    return f"phase={phase} kind=Verdict party=Alice result={result} failed={failed}\n"
