"""Spans around the public functions of each ultratree layer.

The tracer wraps functions from outside: it replaces each listed name in
every ultratree module that holds it (``ultratree.cli`` imports
``language_table`` by name, for example), so calls between layers are
seen too.  Each call records a span (id, parent, layer, function, start,
end) in memory; counts are taken from the calls' arguments and results.
With ``memory`` set, tracemalloc runs inside the language-table and
assembly calls to give their peak; that slows those calls, so the
benchmark takes memory and time from different passes.

Per-layer time metrics are self times: a span's duration minus the part
covered by its child spans.  Times from different processes compare
because perf_counter reads the system-wide monotonic clock.
"""

import functools
import importlib
import statistics
import tracemalloc
from time import perf_counter

LAYERS = ("words", "tree", "metrics", "zeta", "laplacian", "cli")

# the wrapped public functions of each layer; helpers called once per word
# (border_array, common_prefix_length) stay unwrapped so that tracing does
# not swamp the work it measures
WRAPPED = {
    "words": ("language_table", "complexity_profile", "right_special_words",
              "repulsiveness_estimates", "repetitivity_estimate",
              "sturmian_characteristic", "substitution_fixed_point"),
    "tree": ("build_tree", "choice_function", "approximation_graph"),
    "metrics": ("lipschitz_estimate", "continuity_witness",
                "lipschitz_estimate_fast", "continuity_witness_fast",
                "spectral_distance", "sup_spectral_distance",
                "ultrametric_distance", "inf_spectral_distance",
                "graph_distances", "graph_distance_oracle",
                "delta_from_name", "trend_verdict"),
    "zeta": ("level_profile", "zeta_partials", "abscissa_estimate",
             "exponent_estimates"),
    "laplacian": ("cylinder_measure", "assemble_laplacian",
                  "assemble_laplacian_dirichlet", "assemble_pb_laplacian",
                  "dirichlet_form_value", "check_invariants",
                  "matrix_difference", "spectrum"),
    "cli": ("main",),
}

# self-time metrics: name -> (layer, functions whose self time adds up)
SELF_TIME = {
    "words.language_table_s": ("words", ("language_table",)),
    "words.right_special_s": ("words", ("right_special_words",)),
    "words.repulsiveness_s": ("words", ("repulsiveness_estimates",)),
    "words.repetitivity_s": ("words", ("repetitivity_estimate",)),
    "tree.build_tree_s": ("tree", ("build_tree",)),
    "tree.choice_function_s": ("tree", ("choice_function",)),
    "tree.approximation_graph_s": ("tree", ("approximation_graph",)),
    "metrics.tree_engine_s": ("metrics", ("lipschitz_estimate",
                                          "continuity_witness")),
    "metrics.fast_engine_s": ("metrics", ("lipschitz_estimate_fast",
                                          "continuity_witness_fast")),
    "metrics.closed_distance_s": ("metrics", ("spectral_distance",
                                              "sup_spectral_distance",
                                              "ultrametric_distance",
                                              "inf_spectral_distance")),
    "metrics.graph_oracle_s": ("metrics", ("graph_distances",
                                           "graph_distance_oracle")),
    "zeta.level_profile_s": ("zeta", ("level_profile",)),
    "zeta.partials_s": ("zeta", ("zeta_partials",)),
    "zeta.abscissa_s": ("zeta", ("abscissa_estimate",)),
    "zeta.exponents_s": ("zeta", ("exponent_estimates",)),
    "laplacian.measure_s": ("laplacian", ("cylinder_measure",)),
    "laplacian.assemble_s": ("laplacian", ("assemble_laplacian",)),
    "laplacian.dirichlet_s": ("laplacian", ("assemble_laplacian_dirichlet",)),
    "laplacian.pb_s": ("laplacian", ("assemble_pb_laplacian",)),
    "laplacian.invariants_s": ("laplacian", ("check_invariants",)),
    "laplacian.spectrum_s": ("laplacian", ("spectrum",)),
    "laplacian.difference_s": ("laplacian", ("matrix_difference",)),
    "cli.import_s": ("cli", ("import",)),
    "cli.main_s": ("cli", ("main",)),
}

# functions whose tracemalloc peak is reported, by metric
PEAKS = {
    "words.language_table_peak_mb": ("language_table",),
    "laplacian.assemble_peak_mb": ("assemble_laplacian",
                                   "assemble_laplacian_dirichlet",
                                   "assemble_pb_laplacian"),
}
_PEAK_OF = {fn: metric for metric, fns in PEAKS.items() for fn in fns}


def _schedule_end(schedule):
    return schedule if isinstance(schedule, int) else tuple(schedule)[-1]


# counts taken from each call: function -> (counter, amount(args, result))
COUNTS = {
    "language_table": (("words.language_table_calls", lambda a, r: 1),
                       ("words.words_materialized",
                        lambda a, r: sum(r.counts))),
    "build_tree": (("tree.nodes",
                    lambda a, r: sum(len(lv) for lv in r.levels)),),
    "spectral_distance": (("metrics.distance_pairs", lambda a, r: 1),),
    "sup_spectral_distance": (("metrics.distance_pairs", lambda a, r: 1),),
    "ultrametric_distance": (("metrics.distance_pairs", lambda a, r: 1),),
    "graph_distance_oracle": (("metrics.distance_pairs", lambda a, r: 1),),
    "graph_distances": (("metrics.distance_pairs", lambda a, r: len(r)),),
    "zeta_partials": (("zeta.terms",
                       lambda a, r: len(r.partials) * len(r.s_grid)
                       * _schedule_end(r.schedule)),),
    "check_invariants": (("laplacian.invariants_calls", lambda a, r: 1),),
    "assemble_laplacian": (("laplacian.leaves", lambda a, r: len(r.leaves)),),
}

# bytes of the files a CLI command wrote, added by the benchmark per run
WRITE_BYTES = "cli.write_bytes"
COUNTERS = sorted({c for entries in COUNTS.values() for c, _ in entries}
                  | {WRITE_BYTES})


class Tracer:
    """Records spans and counts for the calls it wraps."""

    def __init__(self, memory=False):
        self.memory = memory
        self.spans = []     # (id, parent, layer, function, start, end)
        self.stack = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.peaks = dict.fromkeys(PEAKS, 0.0)
        self._patched = []  # (module, name, original)

    def span(self, layer, name, start, end):
        """Record a span measured elsewhere, such as an import."""
        parent = self.stack[-1] if self.stack else None
        self.spans.append((len(self.spans), parent, layer, name, start, end))

    def open(self, layer, name):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append((sid, parent, layer, name, perf_counter(), None))
        self.stack.append(sid)
        return sid

    def close(self, sid):
        self.stack.pop()
        s = self.spans[sid]
        self.spans[sid] = s[:5] + (perf_counter(),)

    def wrap(self, layer, name, fn):
        tracer = self
        peak_metric = _PEAK_OF.get(name)
        counts = COUNTS.get(name, ())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.open(layer, name)
            measure = (tracer.memory and peak_metric is not None
                       and not tracemalloc.is_tracing())
            if measure:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if measure:
                    peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
                    if peak > tracer.peaks[peak_metric]:
                        tracer.peaks[peak_metric] = peak
                tracer.close(sid)
            for counter, amount in counts:
                tracer.counts[counter] += amount(args, result)
            return result

        return traced

    def install(self):
        """Wrap the listed functions wherever ultratree modules hold them."""
        modules = [importlib.import_module("ultratree." + m) for m in LAYERS]
        for layer, names in WRAPPED.items():
            home = importlib.import_module("ultratree." + layer)
            for name in names:
                original = getattr(home, name)
                wrapped = self.wrap(layer, name, original)
                for mod in modules:
                    if getattr(mod, name, None) is original:
                        setattr(mod, name, wrapped)
                        self._patched.append((mod, name, original))

    def uninstall(self):
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched = []

    def export(self):
        return {"spans": self.spans, "counts": self.counts,
                "peaks": self.peaks}

    def absorb(self, exported, parent):
        """Append a child process's spans under the span `parent`."""
        base = len(self.spans)
        for sid, par, layer, name, start, end in exported["spans"]:
            self.spans.append((base + sid,
                               parent if par is None else base + par,
                               layer, name, start, end))
        for k, v in exported["counts"].items():
            self.counts[k] += v
        for k, v in exported["peaks"].items():
            self.peaks[k] = max(self.peaks[k], v)

    def take(self):
        """Hand over what was recorded since the last take, and reset."""
        out = self.export()
        self.spans, self.stack = [], []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.peaks = dict.fromkeys(PEAKS, 0.0)
        return out


def self_times(spans, factors):
    """Self time of every span: duration minus its children's durations,
    scaled by the speed factor of the root span it descends from."""
    child = [0.0] * len(spans)
    root = [0] * len(spans)
    for sid, parent, _, _, start, end in spans:
        if parent is not None:
            child[parent] += end - start
            root[sid] = root[parent]  # a parent precedes its children
        else:
            root[sid] = sid
    return [(layer, name,
             ((end - start) - child[sid]) * factors.get(root[sid], 1.0))
            for sid, _, layer, name, start, end in spans]


def pass_metrics(recorded, factors):
    """Per-layer metrics of one pass from its recorded spans and counts;
    factors maps root span ids to their speed factors."""
    selfs = self_times(recorded["spans"], factors)
    by_fn, by_layer = {}, dict.fromkeys(LAYERS, 0.0)
    for layer, name, t in selfs:
        by_fn[(layer, name)] = by_fn.get((layer, name), 0.0) + t
        if layer in by_layer:
            by_layer[layer] += t
    out = {}
    for metric, (layer, names) in SELF_TIME.items():
        out[metric] = sum(by_fn.get((layer, n), 0.0) for n in names)
    for layer, t in by_layer.items():
        out[layer + ".self_s"] = t
    out.update(recorded["counts"])
    out["trace.spans"] = len(recorded["spans"])
    return out


def median_metrics(per_pass):
    return {k: statistics.median(p[k] for p in per_pass)
            for k in per_pass[0]}
