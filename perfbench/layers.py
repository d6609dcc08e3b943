"""Host self time and call counts grouped by layer, from a cProfile run.

A function belongs to the layer of the ``repro.<package>`` its file lives
in.  ``dsm/faults.py`` and ``dsm/recovery.py`` form the ``faults`` layer;
C functions (cProfile's ``~`` entries: builtins, ``generator.send`` resumes,
deque and dict methods) form ``builtins``; code the closure backend
generates (``<acec-codegen>``) is ``compiler``; methods that ``namedtuple``
and ``dataclass`` generate (``<string>``) belong to the layer of their most
frequent caller, so ``TraceEvent.__new__`` counts as ``obs``; everything
else (NumPy, the standard library, this benchmark) is ``other``.
"""

from __future__ import annotations

import cProfile
import os
import pstats

import repro

LAYERS = ("sim", "machine", "dsm", "faults", "protocols", "core", "compiler",
          "apps", "obs", "serve", "builtins", "other")

#: repro package -> layer, for packages that are not a layer of their own
_PACKAGE_LAYER = {
    "crl": "dsm",        # CRLRuntime binds dsm.CoherenceEngine with CRL costs
    "memory": "dsm",
    "spec": "protocols",  # the ProtocolTable rows the protocols run
    "facade": "core",     # run_spmd and the per-node context
    "sanitize": "compiler",
    "harness": "apps",
}
_FAULTS_FILES = {os.path.join("dsm", "faults.py"), os.path.join("dsm", "recovery.py")}
_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def layer_of(filename: str) -> str:
    if filename == "~":
        return "builtins"
    if filename == "<acec-codegen>":
        return "compiler"
    if not filename.startswith(_REPRO_DIR):
        return "other"
    rel = filename[len(_REPRO_DIR):]
    if rel in _FAULTS_FILES:
        return "faults"
    package = rel.split(os.sep, 1)[0]
    if package in LAYERS:
        return package
    return _PACKAGE_LAYER.get(package, "other")


def profiled(fn):
    """Run ``fn()`` under cProfile; returns ``(result, {layer: (self_s, calls)})``."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        result = fn()
    finally:
        prof.disable()
    split = {layer: [0.0, 0] for layer in LAYERS}
    for (filename, _, _), (_, calls, self_s, _, callers) in pstats.Stats(prof).stats.items():
        if filename == "<string>" and callers:
            filename = max(callers.items(), key=lambda kv: kv[1][1])[0][0]
        acc = split[layer_of(filename)]
        acc[0] += self_s
        acc[1] += calls
    return result, {layer: tuple(v) for layer, v in split.items()}
