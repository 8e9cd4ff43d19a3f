"""Phase-structured collective-communication workloads (distributed ML).

The ML power scaler is trained on PARSEC/SPLASH2-style CPU+GPU pairs;
collective traffic from distributed training (all-reduce, all-to-all,
parameter-server aggregation) deliberately leaves that distribution —
bursty, phase-synchronised, and topology-structured — which is what the
drift detector and the closed retraining loop exist for.

Each collective *schedule* is a sequence of :class:`CollectiveStep`
windows separated by barriers: every transfer of step ``k`` is injected
strictly before step ``k+1`` opens (``start >= previous end +
drain_slack``), and phases (reduce-scatter vs. all-gather, push vs.
pull) are additionally separated by a compute gap that models the
gradient computation between communication rounds.  Steps compile down
to the same integer trace columns as the PARSEC traces (one vector
draw places every packet in its step window), so both cycle engines
replay them bit-identically.

Roles respect the heterogeneous clusters: accelerator workers inject
GPU-class requests (``GPU_L2_DOWN``), while the parameter-server host
pins router 0 and answers with CPU-class traffic (``CPU_L2_DOWN``).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import ArchitectureConfig
from ..noc.packet import CacheLevel, CoreType, PacketClass
from .trace import CODE, Trace

#: Largest packet one collective transfer is chunked into.
MAX_PACKET_FLITS = 4

#: Supported collective algorithms, in canonical order.
COLLECTIVE_ALGORITHMS: Tuple[str, ...] = (
    "allreduce_ring",
    "halving_doubling",
    "alltoall",
    "parameter_server",
)

#: Router hosting the parameter server (CPU-role, Fig. 1b corner).
PARAMETER_HOST = 0

#: Gradient-exchange iterations in the parameter-server schedule.
PS_ITERATIONS = 2

#: Default flits of gradient payload reduced per collective pass.
DEFAULT_PAYLOAD_FLITS = 256

#: Injection window width of one collective step (cycles).
DEFAULT_STEP_SPREAD = 32

#: Barrier slack after each step before the next may open (cycles).
DEFAULT_DRAIN_SLACK = 32

#: Compute gap between phases (gradient computation, cycles).
DEFAULT_COMPUTE_GAP = 64


def validate_collective(algorithm: str) -> str:
    """Return ``algorithm`` or raise listing the known collectives."""
    if algorithm not in COLLECTIVE_ALGORITHMS:
        known = ", ".join(COLLECTIVE_ALGORITHMS)
        raise ValueError(
            f"unknown collective algorithm {algorithm!r}; available: {known}"
        )
    return algorithm


def _collective_seed(algorithm: str, seed: int) -> int:
    """Stable per-algorithm seed (same scheme as synthetic traces)."""
    return zlib.crc32(algorithm.encode()) ^ (seed * 0x9E3779B1) & 0x7FFFFFFF


@dataclass(frozen=True)
class Transfer:
    """One point-to-point message of a collective step."""

    source: int
    destination: int
    flits: int
    core_type: CoreType
    cache_level: CacheLevel

    def __post_init__(self) -> None:
        if self.flits <= 0:
            raise ValueError("transfer must carry at least one flit")
        if self.source == self.destination:
            raise ValueError("transfer endpoints must differ")


@dataclass(frozen=True)
class CollectiveStep:
    """One barrier-delimited step: a window of concurrent transfers."""

    phase: str
    phase_index: int
    step_index: int
    start_cycle: int
    end_cycle: int
    transfers: Tuple[Transfer, ...]

    def __post_init__(self) -> None:
        if self.end_cycle <= self.start_cycle:
            raise ValueError("step window must be non-empty")

    @property
    def flits(self) -> int:
        """Total flits injected during this step."""
        return sum(t.flits for t in self.transfers)


def worker_routers(
    algorithm: str, architecture: Optional[ArchitectureConfig] = None
) -> Tuple[int, ...]:
    """The cluster routers acting as accelerator workers.

    Ring/all-to-all collectives use every cluster; recursive
    halving/doubling uses the largest power-of-two prefix; the
    parameter-server pattern excludes the host router.
    """
    architecture = architecture or ArchitectureConfig()
    n = architecture.num_clusters
    if algorithm == "halving_doubling":
        p = 1
        while p * 2 <= n:
            p *= 2
        return tuple(range(p))
    if algorithm == "parameter_server":
        return tuple(r for r in range(n) if r != PARAMETER_HOST)
    return tuple(range(n))


def router_roles(
    algorithm: str, architecture: Optional[ArchitectureConfig] = None
) -> Dict[int, str]:
    """Role of each cluster router: worker, parameter-host, or idle."""
    architecture = architecture or ArchitectureConfig()
    validate_collective(algorithm)
    workers = set(worker_routers(algorithm, architecture))
    roles: Dict[int, str] = {}
    for router in range(architecture.num_clusters):
        if algorithm == "parameter_server" and router == PARAMETER_HOST:
            roles[router] = "parameter-host"
        elif router in workers:
            roles[router] = "worker"
        else:
            roles[router] = "idle"
    return roles


def _worker_transfer(source: int, destination: int, flits: int) -> Transfer:
    """An accelerator-to-accelerator gradient message."""
    return Transfer(
        source=source,
        destination=destination,
        flits=flits,
        core_type=CoreType.GPU,
        cache_level=CacheLevel.GPU_L2_DOWN,
    )


def _phase_steps(
    algorithm: str,
    workers: Tuple[int, ...],
    payload_flits: int,
) -> List[Tuple[str, List[Transfer]]]:
    """The (phase-label, transfers) list of one collective pass."""
    n = len(workers)
    steps: List[Tuple[str, List[Transfer]]] = []
    if algorithm == "allreduce_ring":
        # Ring all-reduce: a reduce-scatter pass then an all-gather
        # pass, each of N-1 steps moving one payload/N chunk around the
        # ring (Patarasuk & Yuan's bandwidth-optimal schedule).
        chunk = -(-payload_flits // n)
        for phase in ("reduce_scatter", "all_gather"):
            for _ in range(n - 1):
                steps.append(
                    (
                        phase,
                        [
                            _worker_transfer(
                                workers[i], workers[(i + 1) % n], chunk
                            )
                            for i in range(n)
                        ],
                    )
                )
    elif algorithm == "halving_doubling":
        # Recursive halving (reduce-scatter) then recursive doubling
        # (all-gather) over the power-of-two worker set: step k pairs
        # i with i^(1<<k) and exchanges payload / 2^(k+1).
        rounds = n.bit_length() - 1
        for k in range(rounds):
            size = max(1, -(-payload_flits // (1 << (k + 1))))
            steps.append(
                (
                    "reduce_halving",
                    [
                        _worker_transfer(workers[i], workers[i ^ (1 << k)], size)
                        for i in range(n)
                    ],
                )
            )
        for k in reversed(range(rounds)):
            size = max(1, -(-payload_flits // (1 << (k + 1))))
            steps.append(
                (
                    "gather_doubling",
                    [
                        _worker_transfer(workers[i], workers[i ^ (1 << k)], size)
                        for i in range(n)
                    ],
                )
            )
    elif algorithm == "alltoall":
        # Shifted-exchange all-to-all: step k sends each worker's k-th
        # chunk to the peer k positions around the ring.
        chunk = -(-payload_flits // n)
        for k in range(1, n):
            steps.append(
                (
                    "exchange",
                    [
                        _worker_transfer(workers[i], workers[(i + k) % n], chunk)
                        for i in range(n)
                    ],
                )
            )
    elif algorithm == "parameter_server":
        # Gradient push to the host, parameter pull back, iterated.
        # The host answers as the CPU-role router of its cluster.
        share = -(-payload_flits // (n + 1))
        for it in range(PS_ITERATIONS):
            steps.append(
                (
                    f"push_{it}",
                    [
                        _worker_transfer(w, PARAMETER_HOST, share)
                        for w in workers
                    ],
                )
            )
            steps.append(
                (
                    f"pull_{it}",
                    [
                        Transfer(
                            source=PARAMETER_HOST,
                            destination=w,
                            flits=share,
                            core_type=CoreType.CPU,
                            cache_level=CacheLevel.CPU_L2_DOWN,
                        )
                        for w in workers
                    ],
                )
            )
    else:  # pragma: no cover - guarded by validate_collective
        raise AssertionError(algorithm)
    return steps


def step_volumes(
    algorithm: str,
    participants: int,
    payload_flits: int = DEFAULT_PAYLOAD_FLITS,
) -> Tuple[int, ...]:
    """Closed-form flit volume of each step of one collective pass.

    Computed from the algorithms' analytical cost models, *not* from
    the compiled schedule — the property suite cross-checks the two.
    """
    validate_collective(algorithm)
    if participants <= 1:
        raise ValueError("collectives need at least two participants")
    if payload_flits <= 0:
        raise ValueError("payload_flits must be positive")
    n = participants
    if algorithm == "allreduce_ring":
        chunk = -(-payload_flits // n)
        return tuple(n * chunk for _ in range(2 * (n - 1)))
    if algorithm == "halving_doubling":
        p = 1
        while p * 2 <= n:
            p *= 2
        rounds = p.bit_length() - 1
        halving = [
            p * max(1, -(-payload_flits // (1 << (k + 1))))
            for k in range(rounds)
        ]
        return tuple(halving + halving[::-1])
    if algorithm == "alltoall":
        chunk = -(-payload_flits // n)
        return tuple(n * chunk for _ in range(n - 1))
    # parameter_server: N-1 workers push a share each, then pull it back.
    workers = n - 1
    share = -(-payload_flits // n)
    return tuple(workers * share for _ in range(2 * PS_ITERATIONS))


def phase_timeline(
    algorithm: str,
    architecture: Optional[ArchitectureConfig] = None,
    duration: int = 20_000,
    payload_flits: int = DEFAULT_PAYLOAD_FLITS,
    step_spread: int = DEFAULT_STEP_SPREAD,
    drain_slack: int = DEFAULT_DRAIN_SLACK,
    compute_gap: int = DEFAULT_COMPUTE_GAP,
) -> Tuple[CollectiveStep, ...]:
    """The barrier-ordered step windows fitting inside ``duration``.

    The collective pass repeats (separated by a compute gap) until the
    next step would no longer fully fit.  The timeline is closed-form —
    independent of the injection seed, which only places packets inside
    their step window.
    """
    validate_collective(algorithm)
    if duration <= 0:
        raise ValueError("duration must be positive")
    if payload_flits <= 0:
        raise ValueError("payload_flits must be positive")
    if step_spread <= 0 or drain_slack < 0 or compute_gap < 0:
        raise ValueError("step timing parameters out of range")
    architecture = architecture or ArchitectureConfig()
    workers = worker_routers(algorithm, architecture)
    if len(workers) < 2:
        raise ValueError("collectives need at least two worker routers")
    pass_steps = _phase_steps(algorithm, workers, payload_flits)

    steps: List[CollectiveStep] = []
    cycle = 0
    step_index = 0
    phase_index = 0
    while True:
        previous_phase: Optional[str] = None
        for phase, transfers in pass_steps:
            if previous_phase is not None and phase != previous_phase:
                cycle += compute_gap
                phase_index += 1
            previous_phase = phase
            end = cycle + step_spread
            if end + drain_slack > duration:
                return tuple(steps)
            steps.append(
                CollectiveStep(
                    phase=phase,
                    phase_index=phase_index,
                    step_index=step_index,
                    start_cycle=cycle,
                    end_cycle=end,
                    transfers=tuple(transfers),
                )
            )
            step_index += 1
            cycle = end + drain_slack
        # Next training iteration: compute gap, then the pass repeats.
        cycle += compute_gap
        phase_index += 1


def generate_collective_trace(
    algorithm: str,
    architecture: Optional[ArchitectureConfig] = None,
    duration: int = 20_000,
    seed: int = 1,
    payload_flits: int = DEFAULT_PAYLOAD_FLITS,
    step_spread: int = DEFAULT_STEP_SPREAD,
    drain_slack: int = DEFAULT_DRAIN_SLACK,
    compute_gap: int = DEFAULT_COMPUTE_GAP,
) -> Trace:
    """Compile a collective schedule down to an injection trace.

    Each transfer is chunked into packets of at most
    :data:`MAX_PACKET_FLITS` flits placed uniformly at random (per
    seed) inside the step's injection window, so total injected flits
    equal the schedule's closed-form volume exactly and every packet of
    step ``k`` precedes every packet of step ``k+1``.
    """
    steps = phase_timeline(
        algorithm,
        architecture,
        duration=duration,
        payload_flits=payload_flits,
        step_spread=step_spread,
        drain_slack=drain_slack,
        compute_gap=compute_gap,
    )
    # Per-transfer columns in step -> transfer order.
    starts: List[int] = []
    widths: List[int] = []
    transfers: List[Transfer] = []
    for step in steps:
        count = len(step.transfers)
        starts.extend([step.start_cycle] * count)
        widths.extend([step.end_cycle - step.start_cycle] * count)
        transfers.extend(step.transfers)
    flits = np.array([t.flits for t in transfers], dtype=np.int64)
    # Chunk each transfer: full packets, the remainder in its last one.
    chunks = -(-flits // MAX_PACKET_FLITS)
    size = np.full(int(chunks.sum()), MAX_PACKET_FLITS, dtype=np.int64)
    size[np.cumsum(chunks) - 1] = flits - MAX_PACKET_FLITS * (chunks - 1)

    def per_packet(values: List[int]) -> np.ndarray:
        """Repeat a per-transfer column once per packet of the transfer."""
        return np.repeat(np.array(values, dtype=np.int64), chunks)

    # One draw per packet, in step -> transfer -> chunk order.
    rng = np.random.default_rng(_collective_seed(algorithm, seed))
    offsets = rng.integers(0, per_packet(widths))
    return Trace.from_columns(
        cycle=per_packet(starts) + offsets,
        source=per_packet([t.source for t in transfers]),
        destination=per_packet([t.destination for t in transfers]),
        core_type=per_packet([CODE[t.core_type] for t in transfers]),
        packet_class=CODE[PacketClass.REQUEST],
        cache_level=per_packet([CODE[t.cache_level] for t in transfers]),
        size_flits=size,
        name=f"collective:{algorithm}",
    )
