"""Span recorder that wraps recoilspec's public functions from outside.

Every public function of a recoilspec module is replaced, in its defining
module and in every recoilspec module that imported it by name, by a
wrapper that records one span: name, layer (the defining module), start,
end, parent span and the exception type it raised, if any.  Calls between
functions of one module go through the module globals and are therefore
recorded too.  Spans stay in memory and are written out as JSON lines when
the round ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import re
import sys
import time

LAYERS = ("bloch", "recoil", "phasespace", "pdeoracle", "metrology",
          "doppler", "stateopt", "cli")

# Modules timed from `python -X importtime`: (metric, module).
IMPORT_MODULES = (("import.numpy_s", "numpy"),
                  ("import.scipy_linalg_s", "scipy.linalg"),
                  ("import.scipy_special_s", "scipy.special"),
                  ("import.scipy_optimize_s", "scipy.optimize"),
                  ("import.scipy_sparse_s", "scipy.sparse"))


class Tracer:
    def __init__(self):
        self.spans = []      # [name, layer, parent, start, end, error, cells]
        self._stack = []

    def install(self, package):
        """Wrap the public functions of every recoilspec layer module."""
        modules = [package] + [sys.modules[f"{package.__name__}.{m}"]
                               for m in LAYERS]
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self._wrap(layer, name, fn)
                for other in modules:
                    for attr, val in list(vars(other).items()):
                        if val is fn:
                            setattr(other, attr, wrapped)

    def _wrap(self, layer, name, fn):
        full = f"{layer}.{name}"
        spans, stack = self.spans, self._stack
        counts_cells = full == "pdeoracle.propagate"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [full, layer, stack[-1] if stack else None,
                   time.perf_counter(), None, None,
                   int(args[0].size) if counts_cells else 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
        return wrapper

    def write_jsonl(self, path):
        keys = ("name", "layer", "parent", "start", "end", "error", "cells")
        with open(path, "w") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **dict(zip(keys, rec))}) + "\n")

    def layer_metrics(self, cache_info):
        """Per-layer counts and self times of one round."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for rec in spans:
            if rec[2] is not None:
                child_time[rec[2]] += rec[4] - rec[3]
        self_s = dict.fromkeys(LAYERS, 0.0)
        for i, rec in enumerate(spans):
            self_s[rec[1]] += rec[4] - rec[3] - child_time[i]

        def ancestors(i):
            p = spans[i][2]
            while p is not None:
                yield spans[p][0]
                p = spans[p][2]

        def count(name, under=None, error=None):
            return sum(1 for i, rec in enumerate(spans)
                       if rec[0] == name
                       and (under is None or under in ancestors(i))
                       and (error is None or rec[5] == error))

        def per(numerator, denominator):
            return numerator / denominator if denominator else 0.0

        shifts = count("doppler.two_point_shift")
        sens = count("metrology.recoil_sensitivity")
        lookups = cache_info.hits + cache_info.misses
        out = {f"{layer}.self_s": t for layer, t in self_s.items()}
        out.update({
            "bloch.propagator_builds": cache_info.misses,
            "bloch.propagator_hit_ratio": per(cache_info.hits, lookups),
            "recoil.coefficient_calls": count("recoil.compute_coefficients"),
            "recoil.drift_p_calls": count("recoil.drift_p"),
            "recoil.quadrature_failures": count(
                "recoil.compute_coefficients",
                error="QuadratureConvergenceError"),
            "doppler.coefficient_calls_per_shift": per(count(
                "recoil.compute_coefficients", "doppler.two_point_shift"),
                shifts),
            "doppler.damping_solves_per_shift": per(count(
                "recoil.doppler_damping", "doppler.two_point_shift"), shifts),
            "phasespace.fock_overlap_s": sum(
                (rec[4] - rec[3] for rec in spans
                 if rec[0] == "phasespace.evolve_and_overlap_fock"), 0.0),
            "phasespace.overlap_calls.gaussian": count(
                "phasespace.overlap_gaussian"),
            "phasespace.overlap_calls.cat": count(
                "phasespace.evolve_and_overlap_cat"),
            "phasespace.overlap_calls.fock": count(
                "phasespace.evolve_and_overlap_fock"),
            "metrology.overlaps_per_sensitivity": per(count(
                "phasespace.overlap_after", "metrology.recoil_sensitivity"),
                sens),
            "metrology.root_search_retries": count(
                "metrology.find_root_tbar", error="NoCrossingError"),
            "stateopt.objective_evals": count(
                "stateopt.fock_sensitivity",
                "stateopt.optimize_fock_superposition"),
            "stateopt.objective_failures": sum(
                1 for i, rec in enumerate(spans)
                if rec[0] == "stateopt.fock_sensitivity" and rec[5]
                and "stateopt.optimize_fock_superposition" in ancestors(i)),
            "pdeoracle.propagate_calls": count("pdeoracle.propagate"),
            "pdeoracle.cells": sum(rec[6] for rec in spans),
        })
        return out


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s*\|\s*(\d+)\s*\|\s*(\S.*)$")


def import_metrics(stderr_text, package="recoilspec"):
    """Seconds per module from `python -X importtime` output.

    Library entries are the cumulative time of the module's first import;
    a module that is never imported reads 0.  The package entry sums the
    self time of all its own modules.
    """
    cumulative, own = {}, 0
    for line in stderr_text.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        name = m.group(3).strip()
        cumulative.setdefault(name, int(m.group(2)))
        if name == package or name.startswith(package + "."):
            own += int(m.group(1))
    out = {metric: cumulative.get(mod, 0) * 1e-6
           for metric, mod in IMPORT_MODULES}
    out[f"import.{package}_self_s"] = own * 1e-6
    return out

