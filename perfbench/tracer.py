"""In-process span recorder for the traced run.

Loaded by launch.py inside the child interpreter after `emaflow.cli` is
imported.  Every public function of each layer module is replaced by a
wrapper that records one span per call: function id, start and end in
perf_counter nanoseconds, the index of the enclosing span on the same
thread, and a tag (the termination kind for `spectral.integrate`).
Several modules import layer functions by value (`from .spectral import
integrate`), so each wrapper is bound in every loaded emaflow module
that holds the original object, not only in the defining module.

Spans stay in memory, one list per thread, and are written as JSON by
dump() when the command ends.
"""

import inspect
import json
import sys
import threading
import time

LAYERS = (
    "cli",
    "config",
    "profiles",
    "quadrature",
    "spectral",
    "threshold",
    "flow",
    "lagrange",
    "validation",
)

_names = []
_threads = []
_threads_lock = threading.Lock()
_local = threading.local()


def _thread_state():
    state = getattr(_local, "state", None)
    if state is None:
        state = _local.state = ([], [])  # (spans, stack of open span indices)
        with _threads_lock:
            _threads.append(state[0])
    return state


def _tag_integrate(result):
    return result.termination.kind


def _wrap(name, func, tagger=None):
    fid = len(_names)
    _names.append(name)
    clock = time.perf_counter_ns

    def wrapper(*args, **kwargs):
        spans, stack = _thread_state()
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        tag = None
        t0 = clock()
        try:
            result = func(*args, **kwargs)
            if tagger is not None:
                tag = tagger(result)
            return result
        except BaseException as exc:
            tag = "raised:" + type(exc).__name__
            raise
        finally:
            t1 = clock()
            stack.pop()
            spans[idx] = (fid, t0, t1, parent, tag)

    wrapper.__wrapped__ = func
    wrapper.__name__ = getattr(func, "__name__", name)
    return wrapper


def install():
    """Wrap the public functions of every loaded layer and rebind them in
    each emaflow module that imported them.  A layer module imported
    later still picks up the wrappers of the layers it imports from."""
    replacements = {}
    for layer in LAYERS:
        module = sys.modules.get("emaflow." + layer)
        if module is None:
            continue
        for attr in getattr(module, "__all__", ()):
            func = getattr(module, attr, None)
            if not inspect.isfunction(func) or id(func) in replacements:
                continue
            if not func.__module__.startswith("emaflow." + layer):
                continue  # a re-export; its own layer wraps it
            name = f"{layer}.{attr}"
            tagger = _tag_integrate if name == "spectral.integrate" else None
            replacements[id(func)] = (func, _wrap(name, func, tagger))
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "emaflow" and not mod_name.startswith("emaflow."):
            continue
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def dump(path):
    payload = {"names": _names, "threads": [list(spans) for spans in _threads]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))
