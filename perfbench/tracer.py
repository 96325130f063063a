"""Out-of-tree tracing of walshlab's layers.

The layers are walshlab's modules.  `Tracer.install` rebinds every public
function of each module to a timing wrapper: in the defining module, in
every walshlab module that imported the name, and in module-level tables
such as `sieve._SIEVES`.  `uninstall` puts the originals back.  Nothing
under `src/` changes.

Each call opens a span with its name, start and parent; at its end the
span is folded into a (parent, name) aggregate of count, total and self
time, because hot kernels such as `walsh_signs` run hundreds of thousands
of times per pass.  Self time is a span's duration minus its children's.

Kernel counts are computed from each call's arguments (table lengths,
window sizes, selector sizes), never timed or sampled, so they repeat
exactly between runs of the same inputs.

tracemalloc slows Python-heavy code several times over, so it runs only
inside the outermost span of the array-heavy layers (sieve, fwht,
approximant): their `peak_mib` is the peak allocated inside that span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import tracemalloc
from collections import Counter
from time import perf_counter

LAYERS = ("sieve", "fwht", "walsh", "approximant", "sums", "lemmas", "report",
          "cli", "limits")
MEMORY_LAYERS = ("sieve", "fwht", "approximant")
MIB = float(1 << 20)

SIGN_FUNCS = ("walsh.walsh_signs", "walsh.walsh_table", "walsh.walsh_eval")
SWEEP_FUNCS = ("walsh.mask_sweep", "walsh.all_mask_l1", "walsh.all_mask_sup",
               "walsh.reduce_chunks")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _selected(lam, selector) -> int:
    kind = type(selector).__name__
    if kind == "ResidueClass":
        return 1 << (lam - selector.r)
    if kind == "Interval":
        return selector.hi - selector.lo
    return 1 << lam


def _count_sieve(c, a, k, r):
    c["sieve.entries"] += 1 << _arg(a, k, 0, "lam")


def _count_dump(c, a, k, r):
    seq = _arg(a, k, 0, "seq")
    # AWS1: 6 header bytes, then int8 sign entries or float64 values
    c["sieve.dump_bytes"] += 6 + (1 << seq.lam) * (1 if seq.values.dtype.itemsize == 1 else 8)


def _count_fwht(c, a, k, r):
    buf = _arg(a, k, 0, "buffer")
    n = len(buf)
    butterflies = (n // 2) * (n.bit_length() - 1)
    c["fwht.butterflies"] += butterflies
    # each butterfly reads two cells and writes two
    c["fwht.bytes_computed"] += butterflies * 4 * buf.itemsize


def _count_coeff_row(c, a, k, r):
    c["walsh.coeff_evals"] += len(_arg(a, k, 2, "ks"))


def _count_sweep(c, a, k, r):
    lam = _arg(a, k, 0, "lam")
    c["walsh.coeff_evals"] += (1 << lam) * _selected(lam, _arg(a, k, 1, "selector"))


def _count_signs(c, a, k, r):
    arg = _arg(a, k, 1, "args")
    c["walsh.sign_evals"] += getattr(arg, "size", 1)


def _count_approximant(c, a, k, r):
    cfg = _arg(a, k, 1, "config")
    # the window keeps every k with min(k, 2^lam - k) < 2^(sigma+t)
    freqs = 2 * (1 << (cfg.sigma + cfg.t)) - 1
    c["approximant.calls"] += 1
    c["approximant.window_freqs"] += freqs
    c["approximant.phase_evals"] += (1 << cfg.lam) * freqs


def _count_split(c, a, k, r):
    cfg = _arg(a, k, 0, "config")
    c["sums.split_freqs"] += len(r.frequencies)
    c["sums.split_mode_tuples"] += 1 << (cfg.h_param * cfg.s2_weight)


def _count_json(c, a, k, r):
    c["report.rows"] += len(_arg(a, k, 0, "manifest").reports)
    c["report.bytes"] += len(r)


def _count_csv(c, a, k, r):
    c["report.rows"] += len(_arg(a, k, 0, "reports"))
    c["report.bytes"] += len(r)


COUNTERS = {
    "sieve.sieve_moebius": _count_sieve,
    "sieve.sieve_liouville": _count_sieve,
    "sieve.sieve_von_mangoldt": _count_sieve,
    "sieve.dump_sequence": _count_dump,
    "fwht.fwht_in_place": _count_fwht,
    "walsh.magnitude_row": _count_coeff_row,
    "walsh.coefficient_values": _count_coeff_row,
    "walsh.mask_sweep": _count_sweep,
    "walsh.walsh_signs": _count_signs,
    "approximant.build_approximant": _count_approximant,
    "sums.spectral_split": _count_split,
    "report.manifest_to_json": _count_json,
    "report.emit_csv": _count_csv,
}

# names of the counts, all computed from call arguments
COUNT_NAMES = (
    "sieve.entries", "sieve.dump_bytes", "fwht.butterflies", "fwht.bytes_computed",
    "walsh.coeff_evals", "walsh.sign_evals", "approximant.calls",
    "approximant.window_freqs", "approximant.phase_evals", "sums.split_freqs",
    "sums.split_mode_tuples", "lemmas.reports", "report.rows", "report.bytes",
)


class Tracer:
    """Span aggregates, computed counts and per-job records of one pass."""

    def __init__(self):
        self.spans: dict = {}          # (parent, name) -> [count, total_s, self_s]
        self.counts: Counter = Counter()
        self.layer_peak: dict = {layer: 0 for layer in MEMORY_LAYERS}
        self.jobs: list = []
        self._stack: list = []
        self._mem_depth = 0
        self._job = None
        self._undo: list = []

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of every layer module of `package`."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package.__name__}.{layer}")
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        prefix = package.__name__ + "."
        for modname, mod in list(sys.modules.items()):
            if modname != package.__name__ and not modname.startswith(prefix):
                continue
            ns = vars(mod)
            for name, obj in list(ns.items()):
                if name.startswith("__"):
                    continue
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._undo.append((ns, name, obj))
                    ns[name] = wrappers[id(obj)][1]
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrappers and wrappers[id(val)][0] is val:
                            self._undo.append((obj, key, val))
                            obj[key] = wrappers[id(val)][1]

    def uninstall(self) -> None:
        while self._undo:
            table, key, original = self._undo.pop()
            table[key] = original

    def _wrap(self, layer: str, name: str, fn):
        qual = f"{layer}.{name}"
        counter = COUNTERS.get(qual)
        memory = layer in MEMORY_LAYERS
        counts_reports = layer == "lemmas"
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [qual, 0.0]
            stack.append(frame)
            outer_mem = memory and self._mem_depth == 0
            if memory:
                if outer_mem:
                    tracemalloc.start()
                self._mem_depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if memory:
                    self._mem_depth -= 1
                    if outer_mem:
                        self._note_peak(layer, tracemalloc.get_traced_memory()[1])
                        tracemalloc.stop()
                if parent is not None:
                    parent[1] += elapsed
                key = (parent[0] if parent else None, qual)
                agg = spans.get(key)
                if agg is None:
                    agg = spans[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[1]
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            if counts_reports and (parent is None or not parent[0].startswith("lemmas.")):
                self.counts["lemmas.reports"] += len(result) if isinstance(result, list) else 1
            if qual == "limits.require_table_bytes" and self._job is not None:
                self._job["charge_bytes"] = max(self._job["charge_bytes"], result)
            return result

        return wrapper

    def _note_peak(self, layer: str, peak: int) -> None:
        self.layer_peak[layer] = max(self.layer_peak[layer], peak / MIB)
        if self._job is not None:
            self._job["traced_peak_mib"] = max(self._job["traced_peak_mib"], peak / MIB)

    # -- per-job records --------------------------------------------------

    def begin_job(self, label: str) -> None:
        self._job = {"job": label, "charge_bytes": 0, "traced_peak_mib": 0.0}

    def end_job(self, wall_s: float) -> None:
        self._job["wall_s"] = wall_s
        self.jobs.append(self._job)
        self._job = None

    # -- results ----------------------------------------------------------

    def self_by_function(self) -> Counter:
        out: Counter = Counter()
        for (_, name), (_, _, self_s) in self.spans.items():
            out[name] += self_s
        return out

    def self_by_layer(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for name, self_s in self.self_by_function().items():
            out[name.split(".", 1)[0]] += self_s
        return out

    def span_table(self) -> list:
        """The aggregated span tree as JSON-ready rows."""
        return [
            {"parent": parent, "name": name, "count": count,
             "total_s": total, "self_s": self_s}
            for (parent, name), (count, total, self_s) in sorted(
                self.spans.items(), key=lambda kv: -kv[1][1])
        ]
