"""Per-layer spans recorded from outside the package.

The layers are the package modules.  A :class:`Tracer` wraps each public
function at the module attribute where its callers look it up (``cli`` and
``verifier`` import most of them by name), records one span per call and
puts every original back when it leaves :meth:`Tracer.installed`.  Spans
stay in memory; :meth:`Tracer.save` writes them out once the run is over.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from array import array
from time import perf_counter

import numpy as np

# (module, attribute, span name).  A function imported by name into several
# modules is wrapped in each of them under one span name.
WRAP_POINTS = (
    ("apnspectra.cli", "main", "cli.main"),
    ("apnspectra.cli", "build_function", "families.build"),
    ("apnspectra.cli", "spectrum_report", "vbf.report"),
    ("apnspectra.cli", "differential_spectrum", "vbf.differential"),
    ("apnspectra.cli", "carlet_general_is_apn", "families.criterion"),
    ("apnspectra.cli", "taniguchi_is_apn", "families.root_scan"),
    ("apnspectra.cli", "carlet11_is_apn", "families.root_scan"),
    # spectrum_report finds the levels routine through the vbf module
    ("apnspectra.vbf", "component_spectrum_summary", "vbf.levels"),
    ("apnspectra.verifier", "verify_kernel_wht_agreement", "verifier.sweep"),
    ("apnspectra.verifier", "build_function", "families.build"),
    ("apnspectra.verifier", "component_spectrum_summary", "vbf.levels"),
    ("apnspectra.verifier", "linear_space_dimensions", "vbf.linear_space"),
    ("apnspectra.verifier", "derive_pair", "lincurves.derive_pair"),
    ("apnspectra.verifier", "kernel_dimension", "lincurves.kernel"),
    # carlet_general_is_apn finds these through the families module
    ("apnspectra.families", "derivative_kernel_map", "families.direction"),
    ("apnspectra.families", "kernel_obstruction_set", "families.obstruction"),
    ("apnspectra.families", "gf2_kernel_basis", "linalg.kernel_basis"),
    ("apnspectra.lincurves", "gf2_kernel_basis", "linalg.kernel_basis"),
)

# Work counted at a span from the call's arguments.
_COUNTERS = {
    "vbf.levels": lambda fn: (1 << fn.n) - 1,
    "families.criterion": lambda params, f=None: (1 << (2 * params.m)) - 1,
}

# Per-layer metrics: name -> unit.  "_s" is busy time including child spans
# and "self_s" excludes them; "/instance" values are means over the traced
# instances, the others cover set-up and instances together.
PER_LAYER = {
    "vbf.levels_s": "s/instance",
    "vbf.levels_components": "count/instance",
    "vbf.differential_s": "s/instance",
    "vbf.differential_calls": "count/instance",
    "vbf.linear_space_s": "s/instance",
    "vbf.linear_space_calls": "count/instance",
    "lincurves.derive_pair_s": "s/instance",
    "lincurves.derive_pair_calls": "count/instance",
    "lincurves.kernel_s": "s/instance",
    "lincurves.kernel_calls": "count/instance",
    "linalg.kernel_basis_s": "s/instance",
    "linalg.kernel_basis_calls": "count/instance",
    "families.criterion_s": "s/instance",
    "families.criterion_calls": "count/instance",
    "families.directions_scanned": "count/instance",
    "families.scan_fraction": "share",
    "families.build_s": "s/instance",
    "families.build_calls": "count/instance",
    "families.root_scan_s": "s/instance",
    "families.root_scan_calls": "count/instance",
    "families.obstruction_s": "s",
    "gf2m.tables_s": "s",
    "gf2m.table_builds": "count",
    "verifier.self_s": "s/instance",
    "cli.self_s": "s/instance",
    "trace.overhead_share": "share",
}

# Layer metric -> (workloads it should read non-zero on, workloads it should
# read exactly zero on).  The smoke test holds every workload to this, so a
# change cannot route a workload around the layer it is meant to stress.
PREDICTIONS = {
    "vbf.levels_components": ({"spectrum-m6", "triangle-m5"}, {"apn-m6"}),
    "vbf.differential_calls": ({"apn-m6"}, {"spectrum-m6", "triangle-m5"}),
    "vbf.linear_space_calls": ({"triangle-m5"}, {"spectrum-m6", "apn-m6"}),
    "lincurves.derive_pair_calls": ({"triangle-m5"},
                                    {"spectrum-m6", "apn-m6"}),
    "lincurves.kernel_calls": ({"triangle-m5"}, {"spectrum-m6", "apn-m6"}),
    "linalg.kernel_basis_calls": ({"triangle-m5", "apn-m6"},
                                  {"spectrum-m6"}),
    "families.criterion_calls": ({"apn-m6"}, {"spectrum-m6", "triangle-m5"}),
    "families.directions_scanned": ({"apn-m6"},
                                    {"spectrum-m6", "triangle-m5"}),
    "families.build_calls": ({"spectrum-m6", "triangle-m5", "apn-m6"},
                             set()),
    # the published root scans run only in the `apn` command
    "families.root_scan_calls": ({"apn-m6"}, {"spectrum-m6", "triangle-m5"}),
    "verifier.self_s": ({"triangle-m5"}, {"spectrum-m6", "apn-m6"}),
    "cli.self_s": ({"spectrum-m6", "apn-m6"}, {"triangle-m5"}),
}


class Tracer:
    """Spans of wrapped calls: name, start, end, parent span, instance id.

    ``instance_id`` tags the spans of the call in progress; -1 marks set-up.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.instance = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self.instance_id = -1
        self._open = [-1]

    def _name_id(self, span: str) -> int:
        if span not in self._name_ids:
            self._name_ids[span] = len(self.names)
            self.names.append(span)
        return self._name_ids[span]

    def _wrap(self, original, span: str, when=None):
        nid = self._name_id(span)
        count = _COUNTERS.get(span)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if when is not None and not when(*args, **kwargs):
                return original(*args, **kwargs)
            if count is not None:
                self.counts[span] = (self.counts.get(span, 0)
                                     + count(*args, **kwargs))
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._open[-1])
            self.instance.append(self.instance_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self._open.append(idx)
            t0 = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._open.pop()
                self.start[idx] = t0
                self.end[idx] = t1

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every point in WRAP_POINTS plus the field-table builder."""
        from apnspectra.gf2m import Field

        saved = []
        try:
            for module, attr, span in WRAP_POINTS:
                owner = importlib.import_module(module)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, span))
            # every lazy table goes through Field._cached; only a miss
            # builds one, so only misses become spans
            original = Field._cached
            saved.append((Field, "_cached", original))
            Field._cached = self._wrap(
                original, "gf2m.tables",
                when=lambda fld, key, build: key not in fld._tables)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _columns(self) -> dict:
        return {"name": np.array(self.name, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int32),
                "instance": np.array(self.instance, dtype=np.int32),
                "start": np.array(self.start, dtype=np.float64),
                "end": np.array(self.end, dtype=np.float64)}

    def totals(self) -> dict:
        """Per span name: calls and seconds, over instances and overall.

        Self time is a span's duration minus the time its child spans
        cover; one thread runs the spans, so children never overlap.
        """
        c = self._columns()
        name, parent, instance = c["name"], c["parent"], c["instance"]
        dur = c["end"] - c["start"]
        nested = parent >= 0
        own = dur - np.bincount(parent[nested], weights=dur[nested],
                                minlength=dur.size)
        in_loop = instance >= 0
        out = {}
        for nid, span in enumerate(self.names):
            sel = name == nid
            loop = sel & in_loop
            out[span] = {"calls": int(loop.sum()),
                         "s": float(dur[loop].sum()),
                         "self_s": float(own[loop].sum()),
                         "all_calls": int(sel.sum()),
                         "all_s": float(dur[sel].sum())}
        return out

    def layer_metrics(self, instances: int, overhead_share: float) -> dict:
        """Every PER_LAYER metric from the spans of ``instances`` calls."""
        t = self.totals()
        zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "all_calls": 0,
                "all_s": 0.0}

        def get(span, key):
            return t.get(span, zero)[key]

        def per(value):
            return value / instances

        possible = self.counts.get("families.criterion", 0)
        directions = get("families.direction", "calls")
        out = {
            "vbf.levels_components": per(self.counts.get("vbf.levels", 0)),
            "families.directions_scanned": per(directions),
            "families.scan_fraction": directions / possible if possible
            else 0.0,
            "families.obstruction_s": get("families.obstruction", "all_s"),
            "gf2m.tables_s": get("gf2m.tables", "all_s"),
            "gf2m.table_builds": get("gf2m.tables", "all_calls"),
            "verifier.self_s": per(get("verifier.sweep", "self_s")),
            "cli.self_s": per(get("cli.main", "self_s")),
            "trace.overhead_share": overhead_share,
        }
        for span in ("vbf.levels", "vbf.differential", "vbf.linear_space",
                     "lincurves.derive_pair", "lincurves.kernel",
                     "linalg.kernel_basis", "families.criterion",
                     "families.build", "families.root_scan"):
            out[f"{span}_s"] = per(get(span, "s"))
            if f"{span}_calls" in PER_LAYER:
                out[f"{span}_calls"] = per(get(span, "calls"))
        return {name: out[name] for name in PER_LAYER}

    def save(self, path) -> None:
        """Write every span as columns of one compressed .npz file."""
        np.savez_compressed(path, names=np.array(self.names),
                            **self._columns())
