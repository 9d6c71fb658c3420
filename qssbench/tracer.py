"""Span tracer for the qsslab benchmark.

The tracer patches the public functions of ``qsslab.quantum``, ``protocol``,
``attack``, ``analysis`` and ``cli`` -- in every qsslab module that holds a
reference to them -- plus a few methods named in ``METHODS``. Each call
records one span: name, start, end, parent span and trial id. Spans stay in
memory (flat ``array`` columns) until ``save`` writes them out; ``derive``
turns a saved span file into call counts, self times and latency quantiles.
Nothing under ``src/`` is modified: ``restore`` puts every original back.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array

LAYERS = ("quantum", "protocol", "attack", "analysis", "cli")

# (module, class, method) -> span name. Methods are traced only where the
# benchmark reports them; State construction is traced through __init__ so
# that isinstance checks on the class keep working.
METHODS = {
    ("quantum", "State", "__init__"): "quantum.State",
    ("protocol", "Transcript", "log"): "protocol.Transcript.log",
    ("protocol", "Transcript", "serialize"): "protocol.Transcript.serialize",
    ("attack", "EntanglingAdversary", "on_photon_forward"): "attack.on_photon_forward",
    ("attack", "EntanglingAdversary", "on_check_announcement"): "attack.on_check_announcement",
    ("attack", "EntanglingAdversary", "on_photon_return"): "attack.on_photon_return",
    ("attack", "EntanglingAdversary", "on_finish"): "attack.on_finish",
}

# Span whose second positional argument is the trial index.
TRIAL_SPAN = "analysis.run_trial"
# Spans whose wall time should be covered by child spans (trace.uncovered_frac).
ROOT_SPANS = ("analysis.run_trial", "analysis.sweep")
# Work counters recorded at a span boundary: span name -> (counter, f(args)).
COUNTERS = {
    "protocol.encryption_phase": ("protocol.photons", lambda args: len(args[0])),
}


def public_functions(module) -> dict[str, object]:
    """Module-level public functions defined in ``module`` itself."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


class Tracer:
    """Records spans around qsslab calls while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.trial_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.rep_starts: list[int] = []
        self.counters: list[dict[str, int]] = []
        self.trial = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin_rep(self) -> None:
        """Mark the start of one repeat of the workload command."""
        self.rep_starts.append(len(self.start_col))
        self.counters.append({})

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        names, parents, trials = self.name_col, self.parent_col, self.trial_col
        starts, ends = self.start_col, self.end_col
        stack = self._stack
        clock = time.perf_counter
        tracer = self
        is_trial = name == TRIAL_SPAN
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            if is_trial:
                outer_trial = tracer.trial
                tracer.trial = args[1] if len(args) > 1 else kwargs.get("trial_index", -1)
            if counter is not None:
                counts = tracer.counters[-1]
                counts[counter[0]] = counts.get(counter[0], 0) + counter[1](args)
            names.append(nid)
            parents.append(stack[-1])
            trials.append(tracer.trial)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if is_trial:
                    tracer.trial = outer_trial

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Patch every traced name in every qsslab module that refers to it."""
        pkg = importlib.import_module("qsslab")
        modules = {layer: importlib.import_module(f"qsslab.{layer}") for layer in LAYERS}
        holders = [pkg, *modules.values()]
        for layer, module in modules.items():
            for fname, fn in public_functions(module).items():
                wrapped = self._wrap(f"{layer}.{fname}", fn)
                for holder in holders:
                    if vars(holder).get(fname) is fn:
                        self._patch(holder, fname, wrapped)
        for (layer, cls_name, meth), span in METHODS.items():
            cls = getattr(modules[layer], cls_name, None)
            # A method that a later version removes reads as zero calls.
            if cls is not None and meth in vars(cls):
                self._patch(cls, meth, self._wrap(span, vars(cls)[meth]))

    def _patch(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def restore(self) -> None:
        """Put back every original that ``install`` replaced."""
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)

    def is_restored(self) -> bool:
        return all(vars(obj)[attr] is original for obj, attr, original in self._patches)

    # -- output ------------------------------------------------------------

    def save(self, path: str) -> None:
        """Write the recorded spans: a JSON header line, then raw columns."""
        header = {
            "names": self.names,
            "spans": len(self.start_col),
            "rep_starts": self.rep_starts,
            "counters": self.counters,
            "columns": [["name", "i"], ["parent", "i"], ["trial", "i"],
                        ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in (self.name_col, self.parent_col, self.trial_col,
                        self.start_col, self.end_col):
                col.tofile(fh)


def load(path: str) -> tuple[dict, dict]:
    """Read a span file written by ``Tracer.save``: (header, column arrays)."""
    import numpy as np

    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        cols = {}
        for name, code in header["columns"]:
            dtype = np.dtype(code)
            cols[name] = np.frombuffer(fh.read(n * dtype.itemsize), dtype=dtype)
    if any(len(c) != n for c in cols.values()):
        raise ValueError(f"span file {path} is truncated")
    return header, cols


def derive(header: dict, cols: dict) -> dict:
    """Per-name call counts of the first repeat, median self time per repeat,
    run_trial latency quantiles (0 without trials) and the share of root-span
    time no child span covers."""
    import numpy as np

    names = header["names"]
    n = header["spans"]
    dur = cols["end"] - cols["start"]
    parent = cols["parent"].astype(np.int64)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child_time

    bounds = header["rep_starts"] + [n]
    calls, self_s = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        ids = cols["name"][lo:hi]
        calls.append(np.bincount(ids, minlength=len(names)))
        self_s.append(np.bincount(ids, weights=self_time[lo:hi], minlength=len(names)))
    self_median = np.median(np.array(self_s), axis=0) if self_s else np.zeros(len(names))

    out = {"calls": {}, "self_s": {}}
    for i, name in enumerate(names):
        out["calls"][name] = int(calls[0][i]) if calls else 0
        out["self_s"][name] = float(self_median[i])

    trial_ms = np.array([0.0])
    if out["calls"].get(TRIAL_SPAN):
        trial_ms = dur[cols["name"] == names.index(TRIAL_SPAN)] * 1e3
    out["run_trial_ms_p50"], out["run_trial_ms_p90"] = np.percentile(trial_ms, [50, 90]).tolist()

    root_ids = [names.index(s) for s in ROOT_SPANS if s in names]
    roots = np.isin(cols["name"], root_ids)
    root_time = float(dur[roots].sum())
    out["uncovered_frac"] = float(self_time[roots].sum() / root_time) if root_time > 0 else 0.0
    out["counters"] = header["counters"][0] if header["counters"] else {}
    return out
