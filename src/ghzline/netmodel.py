"""Closed-form link, detector, and memory analytics for an A-B-C segment.

A segment is a middle station B holding two entangled-pair sources (and
optionally two quantum memories), with outer stations A and C at the far
ends of two fiber links.  Everything here is a per-attempt probability or
an expectation over attempt counts; none of it touches density matrices.

Lengths are in km, times in seconds, the signal velocity in km/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

SPEED_OF_LIGHT_FIBER = 2.0e5  # km/s, group velocity in standard fiber

# Below this a difference of two floats near 1 keeps fewer than half of
# its 53 bits: click_prob, dark_count_depolarization, dephasing_prob and
# expected_coherence_near then take exactly equal forms without the
# cancellation.
CANCELLATION_LIMIT = 2.0**-26


def transmission_from_db(loss_db: float) -> float:
    """Power transmission 10^(-loss_db / 10) of a link with the given loss."""
    if loss_db < 0.0:
        raise ValueError(f"loss_db must be >= 0, got {loss_db}")
    return 10.0 ** (-loss_db / 10.0)


def db_from_transmission(transmission: float) -> float:
    """Loss in dB, the inverse of transmission_from_db."""
    if not 0.0 < transmission <= 1.0:
        raise ValueError(f"transmission must be in (0, 1], got {transmission}")
    return -10.0 * math.log10(transmission)


def _require(cond: bool, msg: str, *values) -> None:
    """Raise ValueError(msg.format(*values)) unless cond holds.

    The message is formatted only on failure: the hot paths run these
    checks a dozen times per operating point.
    """
    if not cond:
        raise ValueError(msg.format(*values))


@dataclass(frozen=True)
class NodeParams:
    """One station's detection hardware."""

    name: str
    detector_efficiency: float
    dark_count_prob: float = 0.0

    def __post_init__(self) -> None:
        _require(bool(self.name), "node name must be nonempty")
        _require(
            0.0 < self.detector_efficiency <= 1.0,
            "{}: detector_efficiency must be in (0, 1], got {}",
            self.name,
            self.detector_efficiency,
        )
        _require(
            0.0 <= self.dark_count_prob < 1.0,
            "{}: dark_count_prob must be in [0, 1), got {}",
            self.name,
            self.dark_count_prob,
        )


@dataclass(frozen=True)
class LinkParams:
    """A fiber link: physical length and end-to-end photon transmission.

    Zero length is allowed for a co-located pair of stations (no fiber, so
    also no signaling delay).
    """

    length: float
    transmission: float

    def __post_init__(self) -> None:
        _require(self.length >= 0.0, "link length must be >= 0, got {}", self.length)
        _require(
            0.0 < self.transmission <= 1.0,
            "link transmission must be in (0, 1], got {}",
            self.transmission,
        )

    @property
    def loss_db(self) -> float:
        return db_from_transmission(self.transmission)


@dataclass(frozen=True)
class MemoryParams:
    """Middle-station quantum memory: retrieval efficiency and coherence time."""

    efficiency: float
    t2: float

    def __post_init__(self) -> None:
        _require(
            0.0 < self.efficiency <= 1.0,
            "memory efficiency must be in (0, 1], got {}",
            self.efficiency,
        )
        _require(self.t2 > 0.0, "memory T2 must be > 0, got {}", self.t2)


@dataclass(frozen=True)
class SourceParams:
    """Entangled-pair source; frequency is the attempt rate in Hz."""

    frequency: float

    def __post_init__(self) -> None:
        _require(self.frequency > 0.0, "source frequency must be > 0, got {}", self.frequency)


@dataclass(frozen=True)
class TrioConfig:
    """Full description of one A-B-C segment."""

    name: str
    node_a: NodeParams
    node_b: NodeParams
    node_c: NodeParams
    link_ab: LinkParams
    link_bc: LinkParams
    source: SourceParams
    memory: MemoryParams | None = None
    speed_of_light: float = SPEED_OF_LIGHT_FIBER

    def __post_init__(self) -> None:
        _require(bool(self.name), "segment name must be nonempty")
        _require(
            self.speed_of_light > 0.0,
            "speed_of_light must be > 0, got {}",
            self.speed_of_light,
        )


def require_memory(cfg: TrioConfig) -> MemoryParams:
    """The segment's memory parameters; ValueError if it has none."""
    if cfg.memory is None:
        raise ValueError(f"segment {cfg.name} has no memory parameters")
    return cfg.memory


@dataclass(frozen=True)
class StorageTimes:
    """Per-success storage intervals of the two middle-station memories."""

    tau_a: float  # full attempt period of the A-side pair, seconds
    tau_c: float  # full attempt period of the C-side pair, seconds
    t_far: float  # confirmation wait of the far-side memory, seconds
    far_node: str  # "A" or "C"


def detection_prob(cfg: TrioConfig, node: str, with_memory: bool = False) -> float:
    """Probability that the photon heading for ``node`` arrives and clicks.

    Outer nodes see their link transmission times their detector; the
    middle node B detects locally, so only its detector enters, times the
    memory retrieval efficiency when the attempt runs through a memory.
    """
    if node == "A":
        return cfg.node_a.detector_efficiency * cfg.link_ab.transmission
    if node == "C":
        return cfg.node_c.detector_efficiency * cfg.link_bc.transmission
    if node == "B":
        xi = cfg.node_b.detector_efficiency
        if with_memory:
            xi *= require_memory(cfg).efficiency
        return xi
    raise ValueError(f"node must be one of A, B, C, got {node!r}")


def click_prob(detection: float, dark_count: float) -> float:
    """Click probability once dark counts are folded in.

    A detection window holds two detectors; a click is a real detection or
    a dark count in either: xi' = 1 - (1 - xi)(1 - p_d)^2.
    """
    _require(0.0 <= detection <= 1.0, "detection must be in [0, 1], got {}", detection)
    _require(0.0 <= dark_count < 1.0, "dark_count must be in [0, 1), got {}", dark_count)
    click = 1.0 - (1.0 - detection) * (1.0 - dark_count) ** 2
    if click < CANCELLATION_LIMIT:
        # a sum of non-negative terms, equal to the cancelling form
        return detection + (1.0 - detection) * dark_count * (2.0 - dark_count)
    # the max() guards the xi' >= xi invariant against rounding at pd ~ 0
    return max(detection, click)


def dark_count_depolarization(detection: float, click: float, dark_count: float) -> float:
    """Fraction of clicks that carry no quantum correlation.

    Conditioned on a click, the state is genuine with probability
    xi (1 - p_d) / xi' and junk otherwise; the junk fraction is applied as
    a depolarization strength on the corresponding qubit.
    """
    _require(0.0 < click <= 1.0, "click must be in (0, 1], got {}", click)
    _require(0.0 <= detection <= click, "detection cannot exceed the click probability")
    _require(0.0 <= dark_count < 1.0, "dark_count must be in [0, 1), got {}", dark_count)
    alpha = 1.0 - detection * (1.0 - dark_count) / click
    if alpha * click < CANCELLATION_LIMIT:
        # The plain form cancels and turns click's rounding, up to an ulp
        # of 1, into a relative error of about 2^-53 / (alpha click); this
        # equal form is exactly 0 without dark counts and as accurate as click.
        alpha = dark_count * (detection + (1.0 - detection) * (2.0 - dark_count)) / click
    return min(1.0, max(0.0, alpha))


def window_click_probs(cfg: TrioConfig, with_memory: bool) -> dict[str, float]:
    """Click probabilities of the four detection windows: A, both B windows, C."""
    return {
        "A": click_prob(detection_prob(cfg, "A"), cfg.node_a.dark_count_prob),
        "B": click_prob(detection_prob(cfg, "B", with_memory), cfg.node_b.dark_count_prob),
        "C": click_prob(detection_prob(cfg, "C"), cfg.node_c.dark_count_prob),
    }


def yield_memoryless(cfg: TrioConfig) -> float:
    """Per-attempt success probability without memories.

    All four windows (A, two at B, C) must click in the same attempt:
    Y = xi'_A (xi'_B)^2 xi'_C.
    """
    p = window_click_probs(cfg, with_memory=False)
    return p["A"] * p["B"] ** 2 * p["C"]


def expected_max_geometric(p_a: float, p_c: float) -> float:
    """E[max(N_A, N_C)] for independent geometric attempt counts.

    With survival P(N > k) = (1-p)^k, inclusion-exclusion gives
    1/p_a + 1/p_c - 1/(p_a + p_c - p_a p_c).
    """
    _require(0.0 < p_a <= 1.0, "p_a must be in (0, 1], got {}", p_a)
    _require(0.0 < p_c <= 1.0, "p_c must be in (0, 1], got {}", p_c)
    both = p_a + p_c - p_a * p_c
    return 1.0 / p_a + 1.0 / p_c - 1.0 / both


def yield_with_memory(cfg: TrioConfig) -> float:
    """Per-attempt success probability with both memories in use.

    The outer links are heralded independently and the merge fires once
    both sides are loaded, so the cost per success is E[max] outer
    attempts and the two B-side retrievals must still click:
    Y_QM = (xi'_B,QM)^2 / E[max(N_A, N_C)].
    """
    require_memory(cfg)
    p = window_click_probs(cfg, with_memory=True)
    return p["B"] ** 2 / expected_max_geometric(p["A"], p["C"])


def storage_times(cfg: TrioConfig) -> StorageTimes:
    """Attempt periods and the far-side confirmation wait.

    One attempt on link X takes tau_X = 1/f + 2 L_X / c (emission plus the
    round-trip heralding signal).  The memory paired with the longer link
    is "far"; after its last attempt it only waits out its own confirmation
    t_far = 2 L_far / c, while the near memory also idles through the
    attempt-count difference.  A length tie resolves to C as the far side.
    """
    tau_a = 1.0 / cfg.source.frequency + 2.0 * cfg.link_ab.length / cfg.speed_of_light
    tau_c = 1.0 / cfg.source.frequency + 2.0 * cfg.link_bc.length / cfg.speed_of_light
    if cfg.link_ab.length > cfg.link_bc.length:
        far_node, far_len = "A", cfg.link_ab.length
    else:
        far_node, far_len = "C", cfg.link_bc.length
    return StorageTimes(
        tau_a=tau_a,
        tau_c=tau_c,
        t_far=2.0 * far_len / cfg.speed_of_light,
        far_node=far_node,
    )


def near_far_memory(cfg: TrioConfig) -> tuple[float, float, float, float]:
    """(p_near, p_far, tau_far, l_near) of the two middle-station memories.

    p_near and p_far are the click probabilities of the outer windows on
    the near and far side, tau_far is the far link's attempt period and
    l_near the near link's length.  The far side is the one storage_times
    picks: the longer link, C on a tie.
    """
    p = window_click_probs(cfg, with_memory=True)
    times = storage_times(cfg)
    if times.far_node == "A":
        return p["C"], p["A"], times.tau_a, cfg.link_bc.length
    return p["A"], p["C"], times.tau_c, cfg.link_ab.length


def expected_coherence_near(cfg: TrioConfig) -> float:
    """Expected e^(-t/T2) retained by the near-side memory over its random wait.

    The near memory sits loaded for t = |N_near - N_far| tau_far plus its
    own confirmation 2 L_near / c, with N geometric in the outer click
    probabilities.  For independent geometrics and beta = e^(-tau_far/T2),

        E[beta^|dN|] = p_n p_f / (p_n + p_f - p_n p_f)
                       * (1/(1 - beta(1-p_n)) + 1/(1 - beta(1-p_f)) - 1),

    which this multiplies by the deterministic e^(-2 L_near / (c T2)).
    """
    t2 = require_memory(cfg).t2
    p_near, p_far, tau_far, l_near = near_far_memory(cfg)
    x = tau_far / t2
    beta = math.exp(-x)
    both = p_near + p_far - p_near * p_far
    d_near = 1.0 - beta * (1.0 - p_near)
    d_far = 1.0 - beta * (1.0 - p_far)
    if min(d_near, d_far) >= CANCELLATION_LIMIT:
        gap_factor = (p_near * p_far / both) * (1.0 / d_near + 1.0 / d_far - 1.0)
    else:
        # beta and 1 - p both lie within CANCELLATION_LIMIT of 1, so the
        # plain 1 - beta (1 - p) has cancelled away at least half its
        # digits, and all of them where it rounds to 0.  The same divisor
        # is p - (1 - p) expm1(-x), a sum of two non-negative terms, and
        # the gap factor is regrouped as quotients of at most 1 each, so
        # that p_near * p_far cannot underflow on the way.
        d_near = p_near - (1.0 - p_near) * math.expm1(-x)
        d_far = p_far - (1.0 - p_far) * math.expm1(-x)
        gap_factor = (
            (p_far / both) * (p_near / d_near)
            + (p_near / both) * (p_far / d_far)
            - p_near * (p_far / both)
        )
    # c T2 can underflow to 0 (both tiny); exp(-2 L_near / (c T2)) then
    # takes its exact limit, 0 for a near link of length > 0 and 1 for 0.
    c_t2 = cfg.speed_of_light * t2
    if c_t2 == 0.0:
        storage = 0.0 if l_near > 0.0 else 1.0
    else:
        storage = math.exp(-2.0 * l_near / c_t2)
    # Exact, not a mask: E[beta^|dN|] <= 1 and exp(-x) <= 1 for x >= 0, so
    # the product is at most 1.  Once beta rounds to 1 (a long T2), the
    # float gap factor can still come out an ulp above 1.
    return min(1.0, gap_factor * storage)


def dephasing_prob(wait: float, t2: float) -> float:
    """Phase-flip probability (1 - e^(-t/T2)) / 2 after storing for ``wait``."""
    _require(wait >= 0.0, "wait must be >= 0, got {}", wait)
    _require(t2 > 0.0, "T2 must be > 0, got {}", t2)
    lam = 0.5 * (1.0 - math.exp(-wait / t2))
    if lam < CANCELLATION_LIMIT:
        # the plain form has cancelled; this exactly equal form does not
        return -0.5 * math.expm1(-wait / t2)
    return lam
