"""Span tracing from outside the program.

The tracer replaces a public function at the module attribute its caller
looks it up by with a wrapper that records a span: name, start, end and
parent span.  Nothing inside ``src/`` changes; uninstalling puts the
original functions back, so an untraced window runs the unmodified code.

Spans live in flat lists while the run goes on and are summarised, and
written to a file, only after it ends.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict

from sensorval import (anytime, benchmarks, cli, detection, harness,
                       isolation, model)

# (owner, attribute, span name).  An owner is a module, or the StepRecord
# class for the method that serialises a step.
WRAPPED = (
    (anytime, "select_next_sensor", "anytime.select"),
    (anytime, "conditional_average_entropy", "anytime.score"),
    (anytime, "fault_belief", "isolation.belief"),
    (anytime, "validate_sensor", "detection.validate"),
    (anytime, "compile_decision_tree", "anytime.compile"),
    (anytime.StepRecord, "to_json", "anytime.serialize"),
    (isolation, "noisy_or_root_posteriors", "inference.noisy_or"),
    (detection, "posterior_marginal", "inference.posterior_marginal"),
    # calibrate_link_strengths imports validate_sensor from detection
    # when it runs, so it finds this wrapper.
    (detection, "validate_sensor", "detection.validate"),
    (harness, "run_fault_experiments", "harness.experiments"),
    (harness, "evaluate_errors", "harness.evaluate"),
    (harness, "fault_belief", "isolation.belief"),
    (harness, "generate_synthetic_dataset", "harness.generate"),
    (benchmarks, "tree21_benchmark", "benchmarks.build"),
    (benchmarks, "generate_synthetic_dataset", "harness.generate"),
    (benchmarks, "learn_parameters", "harness.learn"),
    (benchmarks, "calibrate_link_strengths", "harness.calibrate"),
    (cli, "cmd_simulate", "cli.simulate"),
)


class Tracer:
    """Records nested spans; roots are opened by the benchmark itself."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack = [-1]
        self.root_tags: dict[int, object] = {}
        # span name -> [(span index, value)] recorded by the hooks below
        self.notes: dict[str, list] = defaultdict(list)
        self._blankets: dict[tuple, tuple] = {}
        self._saved: list = []

    # --- spans ----------------------------------------------------------

    def open(self, name: str, tag=None) -> int:
        idx = len(self.parents)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        if self.stack[-1] == -1:
            self.root_tags[idx] = tag
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name, hook):
        names, starts, ends = self.names, self.starts, self.ends
        parents, stack = self.parents, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(parents)
            names.append(name)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[idx] = start
                ends[idx] = end
            if hook is not None:
                hook(idx, args, result)
            return result

        return wrapper

    def install(self) -> None:
        hooks = {
            "isolation.belief": self._note_findings,
            "detection.validate": self._note_validation,
            "anytime.compile": self._note_tree,
            "harness.experiments": self._note_records,
        }
        for owner, attr, name in WRAPPED:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hooks.get(name)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # --- hooks: counts taken where the work happens ---------------------

    def _note_findings(self, idx, args, _result):
        self.notes["isolation.belief"].append(
            (idx, frozenset(args[1].items())))

    def _note_validation(self, idx, args, result):
        net, d, reading, sensor = args[:4]
        key = (id(net), sensor)
        blanket = self._blankets.get(key)
        if blanket is None:
            blanket = tuple(sorted(model.markov_blanket(net, sensor)))
            self._blankets[key] = blanket
        codes = (sensor, d.index(sensor, reading[sensor]),
                 tuple(d.index(b, reading[b]) for b in blanket))
        self.notes["detection.validate"].append((idx, (codes, result.faulty)))

    def _note_tree(self, idx, _args, result):
        self.notes["anytime.compile"].append((idx, result.node_count()))

    def _note_records(self, idx, _args, result):
        steps = sum(len(rec.trace) for rec in result)
        self.notes["harness.experiments"].append((idx, (len(result), steps)))

    # --- summaries -------------------------------------------------------

    def _index(self) -> tuple[list[int], list[float]]:
        """Root span and self time of every span, computed once per size."""
        if getattr(self, "_indexed", (None,))[0] != len(self.parents):
            roots, own = [], [e - s for s, e in zip(self.starts, self.ends)]
            for i, parent in enumerate(self.parents):
                roots.append(i if parent == -1 else roots[parent])
                if parent != -1:
                    # self time: duration minus what the child spans cover
                    own[parent] -= self.ends[i] - self.starts[i]
            self._indexed = (len(self.parents), roots, own)
        return self._indexed[1], self._indexed[2]

    def layers(self, root_name: str, keep=None) -> dict:
        """Per span name: calls, self and inclusive seconds, and calls and
        self seconds by the parent span's name, over the spans under roots
        called ``root_name`` whose tag passes ``keep``."""
        roots, own = self._index()
        stats = {}
        for i, name in enumerate(self.names):
            r = roots[i]
            if self.names[r] != root_name:
                continue
            if keep is not None and not keep(self.root_tags[r]):
                continue
            entry = stats.setdefault(name, {"calls": 0, "self_s": 0.0,
                                            "incl_s": 0.0, "by_parent": {}})
            entry["calls"] += 1
            entry["self_s"] += own[i]
            entry["incl_s"] += self.ends[i] - self.starts[i]
            parent = self.parents[i]
            by = entry["by_parent"].setdefault(
                self.names[parent] if parent != -1 else "-",
                {"calls": 0, "self_s": 0.0})
            by["calls"] += 1
            by["self_s"] += own[i]
        return stats

    def noted(self, name: str, root_name: str, keep=None) -> list:
        roots, _ = self._index()
        out = []
        for idx, value in self.notes.get(name, ()):
            r = roots[idx]
            if self.names[r] != root_name:
                continue
            if keep is not None and not keep(self.root_tags[r]):
                continue
            out.append(value)
        return out

    def write(self, path, env: dict) -> None:
        """All spans as columns; times in seconds from the first span."""
        origin = min(self.starts) if self.starts else 0.0
        document = {
            "env": env,
            "fields": "name, start_s, end_s, parent (-1 for a root)",
            "name": self.names,
            "start_s": [round(t - origin, 9) for t in self.starts],
            "end_s": [round(t - origin, 9) for t in self.ends],
            "parent": self.parents,
            "root_tag": {str(k): v for k, v in self.root_tags.items()},
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(document, fh, separators=(",", ":"))
