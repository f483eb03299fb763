"""Seeded Monte Carlo oracles for the closed-form expectations.

The yield oracle draws its success count directly: the attempts still
alive after each detection window are a binomial draw from those alive
before it, so a call costs the same for any sample count.  The
expected-max and coherence oracles draw every attempt.  They stream
fixed-size chunks, drawing chunk k from child stream k of
SeedSequence(seed) and merging running moments in chunk order.  The
result is therefore bit-for-bit reproducible for a given
(num_samples, seed) however the chunks are scheduled.  An oracle call
spreads its chunks over min(usable CPUs, chunks, MAX_WORKERS) workers:
the calling thread plus one thread for each worker past the first.  The
chunks' random fills and ufunc loops release the GIL, so the workers
overlap.  Each worker refills one set of chunk buffers, allocated by
the calling thread before any chunk runs.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .netmodel import TrioConfig, segment_physics

CHUNK = 1 << 16
# Each worker holds one chunk's buffers (1 MiB for the two-count oracles),
# so this caps an oracle call's buffer memory as well as its threads.
MAX_WORKERS = 4

# A string, so that importing this module leaves numpy.random (5 MiB of
# RSS) unloaded until an oracle runs.
Block = Callable[["np.random.Generator", int], np.ndarray]


@dataclass(frozen=True)
class McResult:
    """Sample mean with its standard error."""

    estimate: float
    standard_error: float
    num_samples: int
    seed: int


def _geometric_block(rng: np.random.Generator, p: float, out: np.ndarray) -> np.ndarray:
    """Fill the float64 vector ``out`` with geometric attempt counts
    (support 1, 2, ...) by inverse CDF, and return it."""
    if p == 1.0:
        out.fill(1.0)
        return out
    rng.random(out=out)
    np.negative(out, out=out)
    np.log1p(out, out=out)
    out /= math.log1p(-p)
    np.ceil(out, out=out)
    return np.maximum(1.0, out, out=out)


def _chunk_len(num_samples: int) -> int:
    """Length of the largest chunk, hence of an oracle's buffers."""
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    return min(CHUNK, num_samples)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _chunk_moments(block: Block, child: np.random.SeedSequence, size: int):
    """(count, mean, centred sum of squares) of one chunk's samples."""
    values = block(np.random.default_rng(child), size)
    m = float(values.mean())
    values -= m
    np.square(values, out=values)
    return values.size, m, float(values.sum())


def _run_chunks(blocks: list[Block], seed: int, num_samples: int) -> tuple[int, float, float]:
    """(count, mean, centred sum of squares) of all chunks, merged in
    chunk order, from one worker per block.

    Chunk k draws from child stream k of SeedSequence(seed), the stream
    ``SeedSequence(seed).spawn`` gives as its k-th child, built when the
    chunk starts rather than all at once.  A finished chunk is merged as
    soon as every earlier chunk has been.  Workers take chunks in
    increasing order, and none takes a chunk 2 * len(blocks) or more past
    the first one not yet merged, so at most that many finished chunks
    wait to be merged, whatever the chunk count.

    The calling thread works with ``blocks[0]``, alone when it is the only
    block.  Each other block gets a thread that runs in a copy of the
    caller's context, so that the caller's ``np.errstate`` holds in it
    too.  After a chunk raises, workers take no further chunk, and once
    all have stopped, the exception of the lowest-numbered failing chunk,
    the one the serial loop would have raised, is raised.
    """
    n_chunks = -(-num_samples // CHUNK)
    ahead = 2 * len(blocks)
    early: dict[int, tuple] = {}  # finished chunks waiting for an earlier one
    taken = merged = count = 0
    mean = m2 = 0.0
    stopped = False
    errors: dict[int, BaseException] = {}
    turn = threading.Condition()

    def stop() -> None:
        nonlocal stopped
        with turn:
            stopped = True
            turn.notify_all()

    def work(block: Block) -> None:
        nonlocal taken, merged, count, mean, m2
        while True:
            with turn:
                turn.wait_for(lambda: stopped or taken < merged + ahead)
                if stopped or taken == n_chunks:
                    return
                k = taken
                taken += 1
            try:
                size = min(CHUNK, num_samples - k * CHUNK)
                child = np.random.SeedSequence(seed, spawn_key=(k,))
                moments = _chunk_moments(block, child, size)
            except BaseException as exc:  # re-raised by the caller below
                errors[k] = exc
                stop()
                return
            with turn:
                early[k] = moments
                while merged in early:
                    c, m, s = early.pop(merged)
                    total = count + c
                    delta = m - mean
                    mean += delta * c / total
                    m2 += s + delta * delta * count * c / total
                    count = total
                    merged += 1
                turn.notify_all()

    helpers = [
        threading.Thread(target=contextvars.copy_context().run, args=(work, block))
        for block in blocks[1:]
    ]
    for helper in helpers:
        helper.start()
    try:
        work(blocks[0])
    finally:
        stop()
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]
    return count, mean, m2


def _mc_mean(new_block: Callable[[], Block], num_samples: int, seed: int) -> McResult:
    """Chunked streaming mean/variance with per-chunk child seeds.

    ``new_block()`` allocates one worker's buffers and returns its
    ``block(rng, size)``, which gives the ``size`` samples of one chunk as
    a float64 array.  That array may be a view of a buffer the block
    refills for every chunk: the worker overwrites the values while
    forming the second moment, and is done with them before it runs the
    block again.  Buffers are allocated once per worker, all of them in
    the calling thread.  With one worker no thread starts.
    """
    _chunk_len(num_samples)
    workers = min(_usable_cpus(), -(-num_samples // CHUNK), MAX_WORKERS)
    count, mean, m2 = _run_chunks([new_block() for _ in range(workers)], seed, num_samples)
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
    n = _chunk_len(num_samples)

    def new_block() -> Block:
        counts = np.empty((2, n))

        def block(rng: np.random.Generator, size: int) -> np.ndarray:
            n_a = _geometric_block(rng, p_a, counts[0, :size])
            n_c = _geometric_block(rng, p_c, counts[1, :size])
            n_max = np.maximum(n_a, n_c, out=n_a)
            return np.ldexp(n_max, -k, out=n_max) if k else n_max

        return block

    result = _mc_mean(new_block, num_samples, seed)
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
    physics = segment_physics(cfg, use_memory=True)
    t2, times = cfg.memory.t2, physics.times
    p_near, p_far = physics.clicks[times.near_node], physics.clicks[times.far_node]
    tau_far = times.tau_far
    t_near = 2.0 * times.l_near / cfg.speed_of_light
    n = _chunk_len(num_samples)

    def new_block() -> Block:
        counts = np.empty((2, n))

        def block(rng: np.random.Generator, size: int) -> np.ndarray:
            wait = _geometric_block(rng, p_near, counts[0, :size])
            wait -= _geometric_block(rng, p_far, counts[1, :size])
            np.abs(wait, out=wait)
            # The wait, or the wait over T2 (T2 near 1e-200 in a valid config),
            # can pass the float maximum.  The +inf it then rounds to is exact
            # for this estimator: exp(-inf) = 0 is the limit of exp(-t / T2).
            with np.errstate(over="ignore"):
                if tau_far == math.inf:
                    # Tied counts wait no far-side period: 0, where the
                    # product would form 0 * inf = NaN.
                    np.multiply(wait, tau_far, out=wait, where=wait > 0.0)
                else:
                    wait *= tau_far
                wait += t_near
                np.negative(wait, out=wait)
                wait /= t2
            return np.exp(wait, out=wait)

        return block

    return _mc_mean(new_block, num_samples, seed)


def mc_yield_memoryless(
    cfg: TrioConfig, num_samples: int = 10**6, seed: int = 0
) -> McResult:
    """Sampled per-attempt success frequency without memories.

    Each attempt has four independent detection windows (A, two at B, C)
    and succeeds when all click.  Of the ``num_samples`` attempts, those
    still alive after a window are drawn as Binomial(alive, q) of those
    alive before it, for the windows A, B, B, C in turn, from one
    ``default_rng(seed)``.  The success count K then has the law of
    drawing every window of every attempt, Binomial(n, q_A q_B^2 q_C),
    without forming the product that yield_memoryless computes, and a
    call costs the same for any ``num_samples``.  The standard error is
    that of the n 0/1 outcomes, computed from K.  Oracle for
    yield_memoryless.
    """
    n = num_samples
    if n < 1:
        raise ValueError(f"num_samples must be >= 1, got {n}")
    p = segment_physics(cfg, use_memory=False).clicks
    rng = np.random.default_rng(seed)
    k = n
    # One draw per window, never one Binomial(n, product): the product is
    # the formula this oracle checks.
    for q in (p["A"], p["B"], p["B"], p["C"]):
        k = int(rng.binomial(k, q))
    m = k / n
    var = (k * (1.0 - m) ** 2 + (n - k) * m**2) / (n - 1) if n > 1 else 0.0
    return McResult(
        estimate=m, standard_error=math.sqrt(var / n), num_samples=n, seed=seed
    )
