"""Layer spans recorded from outside the package.

Every hook wraps one public name that ``runner``, ``evolve`` and ``cli``
call across module boundaries.  Hooks bind by attribute when installed, so
a name that a later version renames or removes is reported as missing
instead of failing the run.  Spans are kept in memory; counters are
computed from the arguments and results the hooked calls see, in a
``trace`` span of their own so that their cost stays out of every layer's
self time.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import inspect
import os
import time
from collections import Counter

import numpy as np


def _walk_arrays(obj, seen):
    """Yield every numpy array reachable through dataclasses, sequences and dicts."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from _walk_arrays(getattr(obj, f.name), seen)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _walk_arrays(item, seen)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _walk_arrays(item, seen)


def array_bytes(obj) -> int:
    """Computed size: total nbytes of the distinct arrays held by ``obj``."""
    return sum(a.nbytes for a in _walk_arrays(obj, set()))


def fingerprint(obj) -> str:
    """Digest of the arrays held by ``obj``; equal operators give equal digests."""
    h = hashlib.blake2b(digest_size=16)
    for a in _walk_arrays(obj, set()):
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _argument(fn, args, kwargs, name):
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments.get(name)
    except (TypeError, ValueError):
        return None


def _count(name):
    def observe(tr, fn, args, kwargs, result):
        tr.counts[name] += 1

    return observe


def _observe_model(tr, fn, args, kwargs, result):
    tr.counts["model.matrix_bytes"] += array_bytes(result)


def _observe_decompose_model(tr, fn, args, kwargs, result):
    tr.counts["evolve.decompose.calls"] += 1
    tr.distinct.add(fingerprint(args[0] if args else kwargs))
    if result is not None:
        tr.counts["evolve.decompose.basis_bytes"] += array_bytes(result)


def _observe_propagate(tr, fn, args, kwargs, result):
    frames = np.shape(_argument(fn, args, kwargs, "times"))
    tr.counts["evolve.propagate.frames"] += frames[0] if frames else 0
    densities = getattr(result, "site_densities", None)
    tr.counts["evolve.propagate.frame_sites"] += 0 if densities is None else densities.size


def _observe_trajectory(tr, fn, args, kwargs, result):
    sigma = getattr(result, "sigma_measured", None)
    if sigma is not None:
        tr.counts["wavepacket.width_ok_frames"] += int(np.isfinite(sigma).sum())
        tr.counts["wavepacket.frames"] += len(sigma)


def _observe_emit(tr, fn, args, kwargs, result):
    config = _argument(fn, args, kwargs, "config")
    directory = getattr(getattr(config, "output", None), "directory", None)
    names = list(result or ())
    tr.counts["runner.emit.files"] += len(names)
    if directory is not None:
        tr.counts["runner.emit.bytes"] += sum(
            os.path.getsize(os.path.join(directory, n)) for n in names
        )


# (layer, module, attribute, observer); the order is the install order
HOOKS = (
    ("presets", "skinwave.presets", "presets", None),
    ("model", "skinwave.runner", "build_hamiltonian", _observe_model),
    ("evolve.decompose", "skinwave.evolve", "decompose_model", _observe_decompose_model),
    ("evolve.decompose", "skinwave.evolve", "decompose", _count("evolve.decompose.generic_calls")),
    ("evolve.propagate", "skinwave.runner", "evolve_series", _observe_propagate),
    ("evolve.expm", "skinwave.evolve", "matrix_exp", _count("evolve.expm.calls")),
    ("wavepacket", "skinwave.runner", "gaussian_state", None),
    ("wavepacket", "skinwave.runner", "extract_trajectory", _observe_trajectory),
    ("wavepacket", "skinwave.runner", "classify_reflection", None),
    ("oracle", "skinwave.runner", "oracle_series", None),
    ("oracle", "skinwave.runner", "general_velocities", _count("oracle.velocity_calls")),
    ("runner.emit", "skinwave.runner", "emit_outputs", _observe_emit),
    ("runner", "skinwave.runner", "run_experiment", None),
    ("cli", "skinwave.cli", "main", None),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in HOOKS))


class Tracer:
    """Spans ``[layer, start, end, parent, run_id]`` plus counters, in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.distinct: set[str] = set()
        self.run_id = None

    def open(self, layer: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([layer, time.perf_counter(), None, parent, self.run_id])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per run id and layer: span durations minus the durations of their child spans."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        totals: dict = {}
        for (layer, _, _, _, run_id), t in zip(self.spans, own):
            per_run = totals.setdefault(run_id, dict.fromkeys(LAYERS + ("trace",), 0.0))
            per_run[layer] += t
        return totals

    def wrap(self, fn, layer, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(layer)
            result, failed = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                failed = exc
                raise
            finally:
                self.close(span)
                parent = self.spans[span][3]
                leaves_layer = parent is None or self.spans[parent][0] != layer
                if leaves_layer and type(failed).__name__ == "DefectiveMatrix":
                    self.counts[f"{layer}.refused"] += 1
                if observe is not None:
                    aside = self.open("trace")
                    try:
                        observe(self, fn, args, kwargs, result)
                    finally:
                        self.close(aside)

        return traced


class Hooks:
    """Installs a tracer's wrappers by attribute and restores the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def __enter__(self) -> "Hooks":
        for layer, module_name, attr, observe in HOOKS:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self.saved.append((module, attr, original))
            setattr(module, attr, self.tracer.wrap(original, layer, observe))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)

    def restored(self) -> bool:
        return all(getattr(m, a) is original for m, a, original in self.saved)
