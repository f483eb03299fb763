"""Attempt-level Monte Carlo oracles for the closed-form expectations.

Each estimator streams fixed-size chunks, drawing chunk k from child
stream k of SeedSequence(seed) and merging running moments in chunk
order.  The result is therefore bit-for-bit reproducible for a given
(num_samples, seed) regardless of how the chunks might be scheduled.
Each oracle call allocates its chunk buffers once and refills them for
every chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .netmodel import TrioConfig, near_far_memory, require_memory, window_click_probs

CHUNK = 1 << 16


@dataclass(frozen=True)
class McResult:
    """Sample mean with its standard error."""

    estimate: float
    standard_error: float
    num_samples: int
    seed: int


def sample_geometric(p: float, rng: np.random.Generator) -> int:
    """One geometric attempt count (support 1, 2, ...) by inverse CDF."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    if p == 1.0:
        return 1
    u = rng.random()
    return max(1, math.ceil(math.log1p(-u) / math.log1p(-p)))


def _geometric_block(
    rng: np.random.Generator, p: float, size: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Vector of geometric attempt counts; inverse CDF, same law as sample_geometric.

    Fills and returns ``out`` (float64, length ``size``) when given.
    """
    x = np.empty(size) if out is None else out
    if p == 1.0:
        x.fill(1.0)
        return x
    rng.random(out=x)
    np.negative(x, out=x)
    np.log1p(x, out=x)
    x /= math.log1p(-p)
    np.ceil(x, out=x)
    return np.maximum(1.0, x, out=x)


def _chunk_len(num_samples: int) -> int:
    """Length of the largest chunk, hence of an oracle's buffers."""
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    return min(CHUNK, num_samples)


def _mc_mean(
    block_fn: Callable[[np.random.Generator, int], np.ndarray],
    num_samples: int,
    seed: int,
) -> McResult:
    """Chunked streaming mean/variance with per-chunk child seeds.

    ``block_fn(rng, size)`` returns the ``size`` samples of one chunk as a
    float64 array, which may be a view of a buffer it refills for every
    chunk: this function overwrites the values while forming the second
    moment, and is done with them before it asks for the next chunk.
    """
    _chunk_len(num_samples)
    n_chunks = -(-num_samples // CHUNK)
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    count = 0
    mean = 0.0
    m2 = 0.0
    for k, child in enumerate(children):
        size = min(CHUNK, num_samples - k * CHUNK)
        values = block_fn(np.random.default_rng(child), size)
        c = values.size
        m = float(values.mean())
        values -= m
        np.square(values, out=values)
        s = float(values.sum())
        total = count + c
        delta = m - mean
        mean += delta * c / total
        m2 += s + delta * delta * count * c / total
        count = total
    var = m2 / (count - 1) if count > 1 else 0.0
    return McResult(
        estimate=mean,
        standard_error=math.sqrt(max(var, 0.0) / count),
        num_samples=count,
        seed=seed,
    )


def mc_expected_max(
    p_a: float, p_c: float, num_samples: int = 10**6, seed: int = 0
) -> McResult:
    """Sampled E[max(N_A, N_C)] for independent geometric attempt counts."""
    if not 0.0 < p_a <= 1.0:
        raise ValueError(f"p_a must be in (0, 1], got {p_a}")
    if not 0.0 < p_c <= 1.0:
        raise ValueError(f"p_c must be in (0, 1], got {p_c}")

    # The counts grow as 1 / min(p_a, p_c), and squared deviations from
    # their mean overflow past about 2^512.  Counts that large are sampled
    # as 2^-k times themselves, and the mean and standard error scaled back
    # by 2^k.  A power of two scales exactly, and sqrt(4^-k x) = 2^-k sqrt(x).
    k = max(0, math.ceil(-math.log2(min(p_a, p_c))) - 400)
    counts = np.empty((2, _chunk_len(num_samples)))

    def block(rng: np.random.Generator, size: int) -> np.ndarray:
        n_a = _geometric_block(rng, p_a, size, counts[0, :size])
        n_c = _geometric_block(rng, p_c, size, counts[1, :size])
        n_max = np.maximum(n_a, n_c, out=n_a)
        return np.ldexp(n_max, -k, out=n_max) if k else n_max

    result = _mc_mean(block, num_samples, seed)
    return replace(
        result,
        estimate=math.ldexp(result.estimate, k),
        standard_error=math.ldexp(result.standard_error, k),
    )


def mc_coherence_near(
    cfg: TrioConfig, num_samples: int = 10**6, seed: int = 0
) -> McResult:
    """Sampled E[e^(-t/T2)] of the near-side memory's storage interval.

    Draws the two outer attempt counts, waits |dN| far-side attempt
    periods plus the near-side confirmation, and averages the coherence
    factor.  Oracle for expected_coherence_near.
    """
    t2 = require_memory(cfg).t2
    p_near, p_far, tau_far, l_near = near_far_memory(cfg)
    t_near = 2.0 * l_near / cfg.speed_of_light
    counts = np.empty((2, _chunk_len(num_samples)))

    def block(rng: np.random.Generator, size: int) -> np.ndarray:
        wait = _geometric_block(rng, p_near, size, counts[0, :size])
        wait -= _geometric_block(rng, p_far, size, counts[1, :size])
        np.abs(wait, out=wait)
        # The wait, or the wait over T2 (T2 near 1e-200 in a valid config),
        # can pass the float maximum.  The +inf it then rounds to is exact
        # for this estimator: exp(-inf) = 0 is the limit of exp(-t / T2).
        with np.errstate(over="ignore"):
            wait *= tau_far
            wait += t_near
            np.negative(wait, out=wait)
            wait /= t2
        return np.exp(wait, out=wait)

    return _mc_mean(block, num_samples, seed)


def mc_yield_memoryless(
    cfg: TrioConfig, num_samples: int = 10**6, seed: int = 0
) -> McResult:
    """Sampled per-attempt success frequency without memories.

    Each attempt has four independent detection windows (A, two at B, C)
    and succeeds when all click.  The windows are drawn rarest first, and
    an attempt stops at its first dark window: each window is drawn only
    for the attempts whose earlier windows all clicked.  The law is that
    of drawing all four, but a seed gives different estimates than the
    four-draw sampler of earlier 0.1.0 builds.  Oracle for
    yield_memoryless.
    """
    p = window_click_probs(cfg, with_memory=False)
    rarest_first = sorted((p["A"], p["B"], p["B"], p["C"]))
    n = _chunk_len(num_samples)
    uniforms = np.empty(n)
    clicked = np.empty(n, dtype=bool)
    hits = np.empty(n)

    def block(rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random(out=uniforms[:size])
        live = np.flatnonzero(np.less(u, rarest_first[0], out=clicked[:size]))
        for q in rarest_first[1:]:
            live = live[rng.random(out=uniforms[: live.size]) < q]
        success = hits[:size]
        success.fill(0.0)
        success[live] = 1.0
        return success

    return _mc_mean(block, num_samples, seed)
