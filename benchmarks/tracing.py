"""Per-layer counts and self times, taken by wrapping public functions.

The tracer replaces each target function of the package with a wrapper
that counts calls and measures self time (its own duration minus the time
spent in traced callees).  Spans are aggregated in memory as they close;
nothing is written until the benchmark ends.  Targets are resolved once;
``install`` puts the wrappers in place and ``uninstall`` puts every
original back, so untraced requests run the package's own functions.

Targets are dotted names below ``ghzline``: ``module.function`` or
``module.Class.method``.  A target that does not resolve, because a later
change moved or removed it, is reported as absent instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import re
import statistics
import subprocess
import sys
import time
from collections import defaultdict

PACKAGE = "ghzline"

TARGETS = (
    "density.DensityMatrix.depolarize",
    "density.DensityMatrix.dephase",
    "density.DensityMatrix.noisy_cz",
    "density.DensityMatrix.measure",
    "density.DensityMatrix.fidelity",
    "density.DensityMatrix.expectation",
    "protocol.run_pipeline",
    "rates.report_for_outcome",
    "netmodel.yield_memoryless",
    "netmodel.yield_with_memory",
    "netmodel.expected_coherence_near",
    "mc.mc_expected_max",
    "mc.mc_yield_memoryless",
    "mc.mc_coherence_near",
    "cli.load_config",
    "cli.validate_document",
    "cli.run_sweep",
    "cli.render_csv",
)
# Targets whose ``num_samples`` argument is summed into mc.samples.
SAMPLED = frozenset(("mc.mc_expected_max", "mc.mc_yield_memoryless", "mc.mc_coherence_near"))
# Time inside the benchmark's own request span that no target covers.
ROOT = "bench.rest"
IMPORTS = ("numpy", "yaml", "jsonschema")
IMPORT_RUNS = 3


def metric_name(target: str) -> str:
    """``density.DensityMatrix.depolarize`` -> ``density.depolarize``."""
    parts = target.split(".")
    return f"{parts[0]}.{parts[-1]}"


class Tracer:
    """Wraps targets, then aggregates calls and self time per target."""

    def __init__(self, targets=TARGETS) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.samples = 0
        self._active = False  # spans count only inside a root span
        self._child = [0.0]  # per open span: time its traced children took
        # (owner, attribute, original, wrapper) for every place a target is held
        self._patches: list[tuple[object, str, object, object]] = []
        self.absent = self._resolve(targets)

    def _span(self, name: str, fn, args, kwargs):
        self._child.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = self._child.pop()
            self._child[-1] += dt
            self.calls[name] += 1
            self.self_s[name] += dt - child

    def root(self, fn):
        """Run one benchmark request as the root span.

        Calls made outside a root span, such as the benchmark's own output
        checks, pass through uncounted."""
        self._active = True
        try:
            return self._span(ROOT, fn, (), {})
        finally:
            self._active = False

    def _wrapper(self, name: str, fn, sampled: bool):
        signature = inspect.signature(fn) if sampled else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.samples += int(bound.arguments["num_samples"])
            return self._span(name, fn, args, kwargs)

        return wrapper

    def _resolve(self, targets) -> list[str]:
        """Make a wrapper for every resolvable target and record each place
        it must go; return the targets that are absent."""
        absent = []
        for target in targets:
            module_name, *path = target.split(".")
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
                for attr in path[:-1]:
                    owner = getattr(owner, attr)
                original = getattr(owner, path[-1])
            except (ImportError, AttributeError):
                absent.append(target)
                continue
            wrapper = self._wrapper(metric_name(target), original, target in SAMPLED)
            if isinstance(owner, type):
                self._patches.append((owner, path[-1], original, wrapper))
                continue
            # Modules import functions by name from each other, so every
            # package module that holds this function object is patched.
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if name != PACKAGE and not name.startswith(PACKAGE + "."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original, wrapper))
        return absent

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)


_IMPORTTIME = re.compile(r"^import time:\s*(\d+) \|\s*(\d+) \|( *)(\S+)\s*$")


def import_times(env: dict) -> dict[str, float]:
    """Median over IMPORT_RUNS of cumulative import seconds of
    ``import ghzline.cli``, by part.

    Read from ``python -X importtime`` in fresh interpreters.  numpy, yaml
    and jsonschema are each top-level cumulative entries; ``ghzline`` is
    the package's own share, its cumulative time minus those three.
    """
    samples: dict[str, list[float]] = defaultdict(list)
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", f"import {PACKAGE}.cli"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        cumulative: dict[str, float] = {}
        top_level = 0.0
        for line in proc.stderr.splitlines():
            m = _IMPORTTIME.match(line)
            if not m:
                continue
            seconds, depth, name = int(m.group(2)) * 1e-6, len(m.group(3)), m.group(4)
            cumulative.setdefault(name, seconds)
            if depth == 1 and (name == PACKAGE or name.startswith(PACKAGE + ".")):
                top_level += seconds
        deps = {dep: cumulative.get(dep, 0.0) for dep in IMPORTS}
        for dep, seconds in deps.items():
            samples[dep].append(seconds)
        samples[PACKAGE].append(top_level - sum(deps.values()))
    return {name: statistics.median(values) for name, values in samples.items()}
