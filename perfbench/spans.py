"""Spans recorded from outside the solver, and the per-layer metrics built from them.

``install`` replaces public functions of the ``bittp`` modules (module
attributes, and class attributes for methods that are called through an
instance) with wrappers that record one span per call: span id, parent
span id, name, start, end, the thread-local run id, a value taken from
the return value and the operator that caused the call.  Spans stay in
per-thread arrays until ``Tracer.dump`` writes them out as one ``.npz``.

``layer_metrics`` reads such a file and computes inclusive time, self
time and call counts per span name, self time per module, and the
useful-work ratios the benchmark reports.
"""

from __future__ import annotations

import itertools
import threading
import time
from array import array

import numpy as np

MODULES = ("instance", "evaluation", "packing", "tour_search", "archive", "driver", "cli")

# (span name, module, owner, attribute).  ``owner`` is None for a module
# attribute, or the name of the class whose attribute is replaced.
TARGETS = (
    ("instance.load_instance", "instance", None, "load_instance"),
    ("instance.parse_instance", "instance", None, "parse_instance"),
    ("instance.distances_from", "instance", "ProblemInstance", "distances_from"),
    ("instance.leg_lengths", "instance", "ProblemInstance", "leg_lengths"),
    ("evaluation.tour_context", "evaluation", "TourContext", "__init__"),
    ("evaluation.time_from_positions", "evaluation", "TourContext", "time_from_positions"),
    ("evaluation.plan_times", "evaluation", "TourContext", "plan_times"),
    ("evaluation.flipped_time", "evaluation", "TourContext", "flipped_time"),
    ("evaluation.travel_time", "evaluation", None, "travel_time"),
    ("evaluation.weighted_objective", "evaluation", None, "weighted_objective"),
    ("evaluation.validate_solution", "evaluation", None, "validate_solution"),
    ("packing.randomized_packing", "packing", None, "randomized_packing"),
    ("packing.score_items", "packing", None, "score_items"),
    ("packing.carry_distances", "packing", None, "carry_distances"),
    ("tour_search.neighbor_lists", "tour_search", "NeighborLists", "build"),
    ("tour_search.distance_matrix", "tour_search", None, "distance_matrix"),
    ("tour_search.construct_tour", "tour_search", None, "construct_tour"),
    ("tour_search.average_pair_distance", "tour_search", None, "average_pair_distance"),
    ("tour_search.two_opt_exploit", "tour_search", None, "two_opt_exploit"),
    ("archive.add", "archive", "Archive", "add"),
    ("archive.best_for_alpha", "archive", "Archive", "best_for_alpha"),
    ("archive.merge", "archive", "Archive", "merge"),
    ("archive.normalize", "archive", None, "normalize"),
    ("archive.hypervolume", "archive", None, "hypervolume"),
    ("archive.subset_select", "archive", None, "subset_select"),
    ("driver.run", "driver", None, "run"),
    ("driver.bit_flip_exploit", "driver", None, "bit_flip_exploit"),
    ("driver.sample_alpha", "driver", None, "sample_alpha"),
    ("cli.main", "cli", None, "main"),
    ("cli.cmd_solve", "cli", None, "cmd_solve"),
    ("cli.write_front_csv", "cli", None, "write_front_csv"),
    ("cli.write_solutions", "cli", None, "write_solutions"),
)

# Spans that start an operator: archive offers made after one of these
# started, in the same thread, are attributed to it.
OPERATORS = {
    "packing.randomized_packing": "packing",
    "tour_search.two_opt_exploit": "two_opt",
    "driver.bit_flip_exploit": "bit_flip",
}

# Value recorded per span, from the wrapped call's return value.
VALUES = {
    "tour_search.two_opt_exploit": lambda r: r is not None,
    "driver.bit_flip_exploit": int,
    "archive.add": bool,
}


class _Buffer:
    """Spans of one thread, one array per column."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.stack: list[int] = []
        self.cause = -1
        self.ids = array("q")
        self.parents = array("q")
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.values = array("q")
        self.causes = array("i")


class Tracer:
    """Records spans in memory; ``dump`` writes them out."""

    def __init__(self) -> None:
        self.names = [t[0] for t in TARGETS]
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def wrap(self, fn, name: str):
        nid = self.names.index(name)
        value_of = VALUES.get(name)
        is_operator = name in OPERATORS
        ids = self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            buf = self._buffer()
            sid = next(ids)
            parent = buf.stack[-1] if buf.stack else -1
            if is_operator:
                buf.cause = nid
            cause = buf.cause
            buf.stack.append(sid)
            value = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if value_of is not None:
                    value = int(value_of(result))
                return result
            finally:
                end = clock()
                buf.stack.pop()
                buf.ids.append(sid)
                buf.parents.append(parent)
                buf.names.append(nid)
                buf.starts.append(start)
                buf.ends.append(end)
                buf.values.append(value)
                buf.causes.append(cause)

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str) -> None:
        def column(attr: str, dtype) -> np.ndarray:
            return np.concatenate([np.frombuffer(getattr(b, attr), dtype=dtype) for b in self._buffers])

        with open(path, "wb") as fh:
            np.savez(
                fh,
                labels=np.array(self.names),
                run_ids=np.concatenate([np.full(len(b.ids), b.run_id, dtype=np.int32) for b in self._buffers]),
                ids=column("ids", np.int64),
                parents=column("parents", np.int64),
                name_ids=column("names", np.int32),
                starts=column("starts", np.float64),
                ends=column("ends", np.float64),
                values=column("values", np.int64),
                causes=column("causes", np.int32),
            )


EMPTY = {
    "labels": np.array([t[0] for t in TARGETS]),
    **{k: np.zeros(0, dtype=np.int64) for k in ("run_ids", "ids", "parents", "name_ids", "values", "causes")},
    "starts": np.zeros(0),
    "ends": np.zeros(0),
}


def install(tracer: Tracer) -> None:
    """Wrap every target in ``TARGETS``.

    A module attribute is replaced in every ``bittp`` module that holds
    the same function object, since the modules import each other's
    functions by name.
    """
    import importlib

    modules = {m: importlib.import_module(f"bittp.{m}") for m in MODULES}
    modules["__init__"] = importlib.import_module("bittp")
    for name, module, owner, attr in TARGETS:
        home = modules[module]
        if owner is None:
            original = getattr(home, attr)
            traced = tracer.wrap(original, name)
            for mod in modules.values():
                if mod.__dict__.get(attr) is original:
                    setattr(mod, attr, traced)
            continue
        cls = getattr(home, owner)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(raw.__func__, name)))
        else:
            setattr(cls, attr, tracer.wrap(raw, name))


# ---------------------------------------------------------------------------
# Aggregation (runs in the benchmark's parent process)

def load(path: str) -> dict[str, np.ndarray]:
    with np.load(path) as data:
        return {k: data[k] for k in data.files}


def _tree(spans: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each span's duration, self time (duration less its children's) and
    parent's name id (-1 for a root)."""
    ids, parents, nid = spans["ids"], spans["parents"], spans["name_ids"]
    dur = spans["ends"] - spans["starts"]
    order = np.argsort(ids)
    has_parent = parents >= 0
    parent_idx = np.full(ids.shape[0], -1, dtype=np.int64)
    parent_idx[has_parent] = order[np.searchsorted(ids[order], parents[has_parent])]
    child_time = np.bincount(parent_idx[has_parent], weights=dur[has_parent], minlength=ids.shape[0])
    parent_name = np.where(has_parent, nid[np.maximum(parent_idx, 0)], -1)
    return dur, dur - child_time, parent_name


def self_by_name(spans: dict[str, np.ndarray]) -> dict[str, float]:
    _, self_time, _ = _tree(spans)
    totals = np.bincount(spans["name_ids"], weights=self_time, minlength=len(spans["labels"]))
    return {str(name): float(t) for name, t in zip(spans["labels"], totals)}


def layer_metrics(spans: dict[str, np.ndarray], attempts: int) -> dict[str, float]:
    """Per-layer metrics of one traced solve.

    ``attempts`` is the solve's ``--rho``: randomized attempts per packing.
    """
    names = [str(n) for n in spans["labels"]]
    ids, nid = spans["ids"], spans["name_ids"]
    dur, self_time, parent_name = _tree(spans)

    def idx(name: str) -> int:
        return names.index(name)

    def mask(name: str) -> np.ndarray:
        return nid == idx(name)

    def calls(name: str) -> float:
        return float(mask(name).sum())

    def total(name: str) -> float:
        return float(dur[mask(name)].sum())

    def self_s(name: str) -> float:
        return float(self_time[mask(name)].sum())

    def value(name: str) -> float:
        return float(spans["values"][mask(name)].sum())

    out: dict[str, float] = {}
    module_of = np.array([n.split(".", 1)[0] for n in names])
    for module in MODULES:
        out[f"{module}.self_s"] = float(self_time[module_of[nid] == module].sum())

    for name in ("instance.load_instance", "tour_search.neighbor_lists", "tour_search.average_pair_distance"):
        out[f"{name}.s"] = total(name)

    packings = calls("packing.randomized_packing")
    out["packing.randomized_packing.calls"] = packings
    out["packing.randomized_packing.s"] = total("packing.randomized_packing")
    out["packing.randomized_packing.self_s"] = self_s("packing.randomized_packing")
    for name in ("packing.score_items", "evaluation.time_from_positions"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = total(name)
    # Objective checks made directly by the packer, less the two baseline
    # checks (the empty plan per call, the empty commit per attempt).
    in_packing = float((mask("evaluation.time_from_positions") & (parent_name == idx("packing.randomized_packing"))).sum())
    rechecks = in_packing - packings * (1 + attempts)
    out["packing.rechecks_per_attempt"] = rechecks / (packings * attempts) if packings else 0.0

    for name in (
        "tour_search.construct_tour",
        "tour_search.distance_matrix",
        "instance.distances_from",
        "tour_search.two_opt_exploit",
        "evaluation.weighted_objective",
        "driver.bit_flip_exploit",
        "evaluation.tour_context",
        "archive.add",
        "archive.hypervolume",
    ):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = total(name)
    out["tour_search.two_opt_exploit.improved"] = value("tour_search.two_opt_exploit")
    out["driver.bit_flip_exploit.accepted"] = value("driver.bit_flip_exploit")
    out["evaluation.flipped_time.calls"] = calls("evaluation.flipped_time")
    out["driver.run.self_s"] = self_s("driver.run")

    # Offers made by the solver loop, by the operator span that caused them.
    adds = mask("archive.add") & np.isin(parent_name, [idx("driver.run"), idx("driver.bit_flip_exploit")])
    for op_name, label in OPERATORS.items():
        offered = adds & (spans["causes"] == idx(op_name))
        n_offered = float(offered.sum())
        out[f"archive.accept_ratio.{label}"] = float(spans["values"][offered].sum()) / n_offered if n_offered else 0.0
    out["archive.best_for_alpha.s"] = total("archive.best_for_alpha")
    out["archive.subset_select.s"] = total("archive.subset_select")
    out["cli.write_outputs.s"] = total("cli.write_front_csv") + total("cli.write_solutions")
    out["trace.spans"] = float(ids.shape[0])
    return out
