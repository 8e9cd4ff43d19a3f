"""Engine identity: the array core reproduces the reference engine.

Every case goes through :func:`tests.oracle.check_run`: both engines
run one :class:`~tests.oracle.Run`, each obeys the conservation laws,
and they agree on the frozen rows of every window close and on the
whole-run fingerprint.

``ROWS`` are the hand-picked cases, kept as data:

* ``seed-*``: every policy under both allocators at three seeds, the
  faulted and q4.12 variants per seed, and every collective under the
  adaptive policies with NRZ and PAM4.  The ML model goes through a
  registry put, promote and get first, the path workers deploy;
* ``array-*``: every policy and allocator on an idle-heavy trace,
  benchmark pairs ending in an idle tail, both L3 link banks, faults,
  Qm.n inference, unstaggered windows, saturated and empty traces;
* ``zero-latency-*``: a response ready in the cycle its request
  drained must inject on the next cycle, so pending responses are due
  when their ready cycle is at most the current one; L3 miss rates of
  0 and 1 send every L3 response through the hit path or the memory
  controllers;
* ``pools-48-40-*``: at power-of-two pool sizes every per-cycle
  ``slots / capacity`` is exact, at 48/40 it is not, so the frozen rows
  and predictions pin that both engines freeze windows through one
  definition;
* ``collective-*``: barrier-ordered multi-flit traffic, and under PAM4
  every serialization and power constant flipped;
* ``clusters-*``: the array core sizes its arrays from the live
  network, not the paper's 16 clusters;
* ``faults-*``: fault onsets and clears inside idle spans (in the
  ``skip-guard`` rows nothing else bounds the array core's idle skip),
  inside a laser turn-on, and total corruption with a one-retry
  budget.

The property draws whole runs from :func:`tests.oracle.run_descriptions`
(the random quiet spans and idle tails exercise the array core's idle
skipping) and reports the first run that diverges or breaks a law as
drawn, unshrunk: every shrink step would run both engines again over
hundreds of cycles, minutes before a report.  The reported ``Run(...)``
replays through :func:`tests.oracle.check_run`.
"""

from __future__ import annotations

import pytest
from hypothesis import Phase, given, settings

from repro.faults import (
    BitErrorFault,
    FaultSchedule,
    LaserDroopFault,
    WavelengthFault,
)
from repro.traffic.collectives import COLLECTIVE_ALGORITHMS

from .. import oracle
from ..oracle import FAULTS, POLICIES, ZERO_LATENCY, Run

# -- extra checks on the array engine's outcome ------------------------------


def crc_errors(outcome):
    return outcome.fingerprint["stats"]["crc_errors"] > 0


def packets_dropped(outcome):
    return outcome.fingerprint["stats"]["packets_dropped"] > 0


def link_cycles(outcome):
    return outcome.fingerprint["stats"]["link_total_cycles"] > 0


def local_and_network_deliveries(outcome):
    stats = outcome.fingerprint["stats"]
    return (
        stats["local_packets_delivered"] > 0
        and stats["network_flits_delivered"] > 0
    )


def collected_119_rows(outcome):
    """A collection hook records one training row per window close
    after each router's first."""
    rows = sum(len(frozen) for _, _, frozen in outcome.closes)
    routers = {rid for _, rids, _ in outcome.closes for rid in rids}
    return rows - len(routers) == 119


def fault_clamps(outcome):
    return sum(outcome.fingerprint["fault_clamp_events"]) > 0


def delivered(outcome):
    counters = outcome.fingerprint["stats"]["counters"].values()
    return sum(c["packets_delivered"] for c in counters) > 0


# -- the rows -----------------------------------------------------------------

SEEDS = (3, 11, 2018)
ALLOCATORS = ("dynamic", "fcfs")
SIGNALING = ("nrz", "pam4")


def _seed_faults(seed: int) -> FaultSchedule:
    """A per-seed fault mix (offsets keyed to the seed so the three
    seeds exercise different overlap patterns)."""
    return FaultSchedule(
        wavelength_faults=(
            WavelengthFault(
                wavelengths=24,
                router=seed % 16,
                start=200 + seed % 97,
                end=800 + seed % 97,
            ),
        ),
        droop_faults=(
            LaserDroopFault(max_state=32, router=(seed + 5) % 16, start=400),
        ),
        bit_error_faults=(BitErrorFault(rate=0.02, start=150, end=900),),
    )


def _seed(policy, allocator, seed, **knobs) -> Run:
    return Run(
        trace=("pair", "fluidanimate", "dct", 1_100, seed),
        policy=policy,
        allocator=allocator,
        seed=seed,
        model="registry",
        measure=1_000,
        window=500,
        **knobs,
    )


def _seed_collective(algorithm, policy, signaling, **knobs) -> Run:
    return Run(
        trace=("collective", algorithm, 1_100, 7),
        policy=policy,
        seed=7,
        model="registry",
        measure=1_000,
        window=500,
        signaling=signaling,
        **knobs,
    )


#: All onsetting mid-run: at a quarter, a third, half and a fifth.
MIXED_FAULTS = FaultSchedule(
    wavelength_faults=(
        WavelengthFault(wavelengths=20, start=400, end=1_200),
        WavelengthFault(indices=(4, 9), router=2, start=533),
    ),
    droop_faults=(LaserDroopFault(max_state=32, router=16, start=800),),
    bit_error_faults=(BitErrorFault(rate=0.002, start=320, end=1_280),),
    seed=7,
)

PAIR = ("pair", "fluidanimate", "dct", 1_600, 11)
IDLE_HEAVY = ("uniform", "cpu", 0.05, 400, 5)


def _array(policy, trace=PAIR, **knobs) -> Run:
    return Run(trace=trace, policy=policy, model="toy", **knobs)


def _skip_guard(faults) -> Run:
    """Static lasers on an idle network whose window boundaries all fall
    in the first 170 cycles, so only the fault bounds the idle skip: its
    onset and clear must clamp and release the lasers on their own
    cycles."""
    return Run(
        ("events", ()), faults=faults, warmup=0, measure=600, window=1_000
    )


def _row(name, run, *checks, slow=False):
    marks = (pytest.mark.slow,) if slow else ()
    return pytest.param(run, checks, id=name, marks=marks)


SEED_ROWS = (
    [
        _row(f"seed-{p}-{a}-s{s}", _seed(p, a, s), slow=True)
        for p in POLICIES
        for a in ALLOCATORS
        for s in SEEDS
    ]
    + [
        _row(
            f"seed-{p}-{variant}-s{s}",
            _seed(
                p,
                "dynamic",
                s,
                quantization="q4.12" if variant == "q4.12" else None,
                faults=_seed_faults(s) if variant == "faulted" else None,
            ),
            slow=True,
        )
        for p, variant in (
            ("ml", "faulted"),
            ("ml", "q4.12"),
            ("proteus", "faulted"),
            ("d3noc", "faulted"),
        )
        for s in SEEDS
    ]
    + [
        _row(
            f"seed-collective-{alg}-{p}-{sig}",
            _seed_collective(alg, p, sig),
            slow=True,
        )
        for alg in COLLECTIVE_ALGORITHMS
        for p in ("reactive", "ml", "proteus", "d3noc")
        for sig in SIGNALING
    ]
    + [
        _row(
            "seed-collective-faulted",
            _seed_collective("alltoall", "ml", "pam4", faults=_seed_faults(7)),
            slow=True,
        ),
        _row(
            "seed-collective-quantized",
            _seed_collective(
                "allreduce_ring", "ml", "nrz", quantization="q4.12"
            ),
            slow=True,
        ),
    ]
)

ARRAY_ROWS = (
    [
        _row(f"array-matrix-{p}-{a}", _array(p, IDLE_HEAVY, allocator=a))
        for p in POLICIES
        for a in ALLOCATORS
    ]
    + [
        _row(
            f"array-pair-{p}-s{s}",
            _array(
                p,
                ("pair", "fluidanimate", "dct", 650, s),
                seed=s,
                measure=1_200,
            ),
        )
        for s in (1, 2, 9)
        for p in ("reactive", "ml")
    ]
    + [
        _row(
            f"array-l3-links-{links}",
            _array(
                "reactive", ("uniform", "cpu", 0.05, 400, 11), l3_links=links
            ),
        )
        for links in (1, 8)
    ]
    + [
        _row(
            f"array-faulted-{p}-{a}",
            _array(p, allocator=a, faults=FAULTS),
            crc_errors,
        )
        for p in ("ml", "reactive", "static", "proteus", "d3noc")
        for a in ALLOCATORS
    ]
    + [
        _row(f"array-quantized-{q}", _array("ml", quantization=q))
        for q in ("q4.12", "q2.14")
    ]
    + [
        _row(
            "array-quantized-faulted",
            _array("ml", quantization="q4.12", faults=FAULTS),
        ),
        # All 17 rows close on one cycle: each close group's inference
        # is one (17 x 30) @ (30,) matmul on both engines.
        _row("array-stagger-zero", _array("ml", stagger=0)),
        _row(
            "array-saturated",
            _array("reactive", ("uniform", "gpu", 0.4, 1_100, 5), measure=1_000),
        ),
        _row("array-empty", _array("reactive", ("events", ())), link_cycles),
    ]
    + [
        _row(
            f"zero-latency-{p}-miss{responder.cpu_l3_miss_rate:g}",
            _array(p, responder=responder),
            local_and_network_deliveries,
        )
        for responder in ZERO_LATENCY[1:]
        for p in ("static", "reactive")
    ]
    + [
        _row(
            "zero-latency-faulted",
            _array("reactive", faults=FAULTS, responder=ZERO_LATENCY[0]),
            crc_errors,
        )
    ]
    + [
        _row(
            f"pools-48-40-{p}",
            _array(
                p,
                ("pair", "fluidanimate", "dct", 1_600, 5),
                seed=5,
                pools=(48, 40),
            ),
            collected_119_rows,
        )
        for p in ("reactive", "adaptive", "proteus", "d3noc", "ml", "random")
    ]
    + [
        _row(
            f"collective-ml-{alg}-{sig}",
            _array("ml", ("collective", alg, 1_600, 7), signaling=sig),
        )
        for alg in COLLECTIVE_ALGORITHMS
        for sig in SIGNALING
    ]
    + [
        _row(
            f"collective-pam4-{p}",
            _array(p, ("collective", "alltoall", 1_600, 7), signaling="pam4"),
        )
        for p in ("reactive", "proteus", "d3noc")
    ]
    + [
        _row(
            "collective-faulted",
            _array(
                "ml",
                ("collective", "halving_doubling", 1_600, 7),
                signaling="pam4",
                faults=FAULTS,
            ),
            crc_errors,
        ),
        _row(
            "collective-quantized",
            _array(
                "ml",
                ("collective", "parameter_server", 1_600, 7),
                quantization="q4.12",
            ),
        ),
    ]
    + [
        _row(
            f"clusters-{n}",
            Run(
                ("uniform", "cpu", 0.1, 450, 7),
                policy="reactive",
                seed=7,
                clusters=n,
                measure=800,
                window=500,
            ),
            delivered,
        )
        for n in (4, 9)
    ]
)

FAULT_ROWS = [
    _row(
        f"faults-mixed-{p}",
        _array(p, ("pair", "fluidanimate", "dct", 800, 3), faults=MIXED_FAULTS),
    )
    for p in POLICIES
] + [
    # Faults fire deep in the idle tail, where the array core would
    # otherwise skip hundreds of cycles at a time.
    _row(
        "faults-idle-skip",
        _array(
            "reactive",
            IDLE_HEAVY,
            faults=FaultSchedule(
                wavelength_faults=(
                    WavelengthFault(wavelengths=32, start=800, end=1_133),
                ),
                droop_faults=(LaserDroopFault(max_state=16, start=1_200),),
            ),
        ),
        fault_clamps,
    ),
    _row(
        "faults-skip-guard-wavelength",
        _skip_guard(
            FaultSchedule(
                wavelength_faults=(
                    WavelengthFault(wavelengths=8, start=377, end=455),
                )
            )
        ),
        fault_clamps,
    ),
    _row(
        "faults-skip-guard-droop",
        _skip_guard(
            FaultSchedule(
                droop_faults=(
                    LaserDroopFault(max_state=32, start=377, end=455),
                )
            )
        ),
        fault_clamps,
    ),
    # The droop onset lands inside an 80-cycle laser turn-on.
    _row(
        "faults-long-stabilization",
        _array(
            "reactive",
            ("uniform", "gpu", 0.15, 800, 9),
            window=100,
            turn_on_ns=40.0,
            faults=FaultSchedule(
                droop_faults=(
                    LaserDroopFault(max_state=16, start=533, end=1_066),
                ),
            ),
        ),
    ),
    # Every packet fails its CRC and exhausts a one-retry budget:
    # neither engine may livelock.
    _row(
        "faults-total-corruption",
        _array(
            "static",
            ("uniform", "cpu", 0.1, 400, 3),
            warmup=0,
            measure=800,
            retry=(1, 8, 16),
            faults=FaultSchedule(
                bit_error_faults=(BitErrorFault(rate=1.0, start=0),)
            ),
        ),
        packets_dropped,
    ),
]

ROWS = SEED_ROWS + ARRAY_ROWS + FAULT_ROWS


@pytest.mark.parametrize("run,checks", ROWS)
def test_engines_identical(run, checks):
    outcome = oracle.check_run(run)
    assert len(outcome.fingerprint["final_state"]) == run.clusters + 1
    for check in checks:
        assert check(outcome), check.__name__


@settings(
    max_examples=100,
    deadline=None,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)
@given(run=oracle.run_descriptions())
def test_generated_runs_identical(run):
    oracle.check_run(run)
