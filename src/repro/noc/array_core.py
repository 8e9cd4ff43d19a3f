"""Struct-of-arrays cycle engine (``engine="array"``).

The reference engine walks 17 :class:`~repro.noc.router.PearlRouter`
objects every cycle; this engine keeps the per-router *cycle-path*
state in flat arrays indexed by router id and replaces the per-router
Python calls with one loop, in one frame, over only the routers that
can actually do work this cycle.  Everything it computes is
**bit-identical** to the reference engine — the engine oracle in
``tests/oracle.py`` enforces array == reference, on hand-picked rows
and generated runs (``tests/noc/test_engine_identity.py``), across
every policy, allocator, fault schedule, responder setting and
quantization format.  It is the default engine of
:meth:`~repro.noc.network.PearlNetwork.run`.

A packet is a row tuple from injection to delivery: the
:class:`~repro.traffic.trace.TraceCursor` row layout ``(source,
destination, core_type, packet_class, cache_level, size_flits,
created_cycle)``.  Trace rows are the cursor's own tuples, validated
once, vectorised, when the trace was built; responses are the rows
:func:`~repro.noc.responder.build_response` returns; a CRC
retransmission appends its retry count as an eighth field.  Pools,
backlogs and cycle buckets hold these rows; no :class:`Packet` is built.

State layout (plain Python lists indexed by router id, ``n =
num_routers``, unless noted):

=========================  ====================================================
``_s_*``                   occupied slots (cpu, ej-cpu, gpu, ej-gpu pools):
                           the run's only per-packet copy of occupancy
``_st_*``                  occupancy event stamps of those four pools
                           (features 2-5 and the reactive Buf_w numerators)
``_occ_base/_link_base``   lazy sample counters: ``samples = cycle - base``
``_feat_link_busy``        link-busy cycles settled into the open window
``_emax / _cpu_free ...``  per-pool transmit-engine busy caches
``_f_* lists``             Table III event counters (features 7-29)
``_resv``                  photonic dispatches (``reservations_sent``)
``_ser_now / _tx_ok``      transmit mirrors of each router's ``LaserBank``,
                           the one copy of its laser state
``_close_groups``          close schedule: rows per stagger offset, in order
``_arrivals``              dict: arrival cycle -> rows in flight, in push
                           order; ``_arrival_cycles`` heaps its keys
``_responses``             dict: ready cycle -> pending responses, in push
                           order; ``_response_cycles`` heaps its keys
=========================  ====================================================

Four ideas make the loop cheap *and* exact:

* **One frame.**  :meth:`ArrayCore._advance` is the whole cycle loop:
  phases 0-7 run inline in :meth:`PearlNetwork.step`'s order, the
  state lists, the run's packet, flit and latency counters and the
  packet sequence are locals bound once per call, and ready responses
  and new trace rows share one inline copy of the inject logic.  Only
  rare work calls out: backlog and retransmit retries, laser flips,
  fault events, window closes and CRC errors.  The pool objects'
  occupied slots, the routers' ``reservations_sent`` and the
  :class:`~repro.noc.stats.NetworkStats` traffic counters are written
  once, when the call returns.
* **Cycle buckets.**  The reference engine keeps in-flight packets and
  pending responses in ``(cycle, sequence, ...)`` heaps.  The core
  appends each row to the list of its arrival (or ready) cycle and
  heaps only the distinct pending cycles.  Every push takes the next
  sequence number, so a bucket holds its rows in sequence order, and
  popping the cycles in ascending order (with ``<=``, as the heaps are
  popped) visits them exactly in heap order.  The core still advances
  ``net._sequence`` per push, so retransmits and the final sequence
  stay identical.
* **Lazy settlement and event stamps.**  Laser residency/power/stall
  counts, the link-busy integral and the sample counters are
  piecewise constant between events, so they are settled in closed
  form only when something changes (a state flip, a dispatch, a window
  close).  Occupancy needs no settlement at all: every pool push or
  pop adds ``Δslots × e`` to its pool's stamp, where ``e`` is the
  first cycle whose observation sees the change (the cycle itself in
  phases 0-3, the next one in phases 5-7).  A window closing on cycle
  ``c`` then holds ``slots × (c + 1) − stamp`` slot-cycles, and the
  close leaves ``slots × (c + 1)`` in the stamp for the next window.
  Every closed form is integer arithmetic, so a settled span equals
  the per-cycle accumulation exactly.  Idle spans cost nothing: when
  no packet can move, the loop jumps to the next externally scheduled
  event.
* **Frozen rows, one close path.**  At a window boundary the engine
  freezes each closing row's label, Table III row, Buf_w mean and
  pool slots straight from its counters and stamps, through the same
  :func:`~repro.ml.features.window_row` the reference engine's feature
  collector uses (a plain list: no array is built per row), and hands
  them to the *same*
  :meth:`~repro.noc.network.PearlNetwork._close_windows` as the
  reference engine — under ML one ``np.array`` of the group's rows and
  one ``(k, n_features)`` inference, then each router's policy, which
  requests its state from the router's (settled) bank, and the window
  telemetry, which reads the handed-over slots; the routers' feature
  collectors stay untouched.  The close then refreshes only what it
  changed: the closers' transmit mirrors and, under D3NOC, their pin
  mirrors; ``_next_flip`` is recomputed over every bank only when a
  closer had a turn-on pending (otherwise the closers' new flips fold
  into the current minimum).

A router is a transmit candidate only when a pool head can actually
move: a photonic engine is free, or the head packet is local and the
crossbar is free.  Head-locality flags are maintained at push/pop
time, and excluded routers are provably side-effect-free (the
allocator is pure, link/feature sampling is lazy).

The core runs one whole warm-up-plus-measurement run of a fresh
network, so its state starts from cycle-0 constants (see
:class:`ArrayCore`).

What stays scalar: packet movement (FIFO pushes/pops, bucket pushes,
responder/fault RNG draws, all in order) and the policy decisions at
window cadence.  Per-packet work is irreducible and order-sensitive;
the array core reads each row's fields by index, keeps one copy of
each per-packet count and removes the per-cycle *per-router* overhead
around them.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional

from ..core.d3noc import D3nocReconfigurer
from ..ml.features import input_buffer_mean, window_row
from ..obs import OBS
from ..traffic.trace import TraceCursor
from .packet import CoreType, PacketClass
from .responder import build_response
from .router import (
    EJECTION_DRAIN_PER_CYCLE,
    LOCAL_CROSSBAR_CYCLES,
    PIPELINE_OVERHEAD_CYCLES,
)

#: Sentinel "never" cycle for event minima (far beyond any horizon).
_FAR = 1 << 62


class ArrayCore:
    """Struct-of-arrays engine over a fresh :class:`PearlNetwork`.

    A core is built at cycle 0 of a network that has not run yet
    (:meth:`PearlNetwork.run` is single-use), so every counter, stamp
    and queue flag starts at its cycle-0 constant: only each router's
    initial laser state, stagger offset and fault injector's first
    event are read from the objects.  All lists are sized from
    ``len(network.routers)``, so any cluster count works.  Pool queues,
    engines, policy histories and laser banks are updated in place as
    the run goes; pool slots, reservation counts and the traffic
    statistics at the end of each :meth:`_advance`.  A bank is settled
    (:meth:`LaserBank.settle`) before each of its requests, at its due
    flips, and at the warm-up boundary and the end of the run.
    """

    def __init__(self, network) -> None:
        self.net = network
        routers = network.routers
        self.routers = routers
        n = len(routers)
        self.n = n

        # -- shared lookups ------------------------------------------------
        ladder = routers[0].ladder
        self._ser = {s: ladder.serialization_cycles(s) for s in ladder.states}
        #: Each router's laser bank: the one copy of its laser state.
        self._banks = [r.laser for r in routers]

        # -- object hoists (packet movement stays on these) ----------------
        #: Per row: the four pools in feature order (cpu, ej-cpu, gpu,
        #: ej-gpu), whose slots :meth:`_advance` writes back.
        self._pools = [
            (r.buffers.cpu, r._ejection_cpu, r.buffers.gpu, r._ejection_gpu)
            for r in routers
        ]
        self._q_cpu = [pools[0]._queue for pools in self._pools]
        self._q_ejc = [pools[1]._queue for pools in self._pools]
        self._q_gpu = [pools[2]._queue for pools in self._pools]
        self._q_ejg = [pools[3]._queue for pools in self._pools]
        self._ej_info = [
            ((self._q_ejc[r], True), (self._q_ejg[r], False)) for r in range(n)
        ]
        self._ej_backlog = [r._ejection_backlog for r in routers]
        self._cpu_eng = [r._engines[CoreType.CPU] for r in routers]
        self._gpu_eng = [r._engines[CoreType.GPU] for r in routers]
        self._local_eng = [r._local_engine for r in routers]
        self._tx_info = [
            (
                (self._q_cpu[r], self._cpu_eng[r], True),
                (self._q_gpu[r], self._gpu_eng[r], False),
            )
            for r in range(n)
        ]
        self._stats = network.stats

        # -- allocator constants (the DBA decision is inlined per row) -----
        from ..core.dba import DynamicBandwidthAllocator

        dbas = [r.dba for r in routers]
        self._dba_dyn = [
            isinstance(d, DynamicBandwidthAllocator) for d in dbas
        ]
        self._dba_minor = [getattr(d, "_minor", 0.0) for d in dbas]
        self._dba_major = [getattr(d, "_major", 0.0) for d in dbas]
        self._dba_gub = [d.config.gpu_upper_bound for d in dbas]
        self._dba_cub = [d.config.cpu_upper_bound for d in dbas]
        self._dbas = dbas
        # D3NOC window pins (per row: fractions + split label, None =
        # unpinned).  Nothing is pinned before the first close, and pins
        # only change inside _close_windows, where only a D3NOC policy
        # sets them, so the closers' mirrors refresh after a boundary of
        # a run whose policy pins.
        self._pins = any(
            isinstance(router.policy, D3nocReconfigurer) for router in routers
        )
        self._dba_pin_cf = [0.0] * n
        self._dba_pin_gf = [0.0] * n
        self._dba_pin_label: List[Optional[str]] = [None] * n

        # -- slot accounting (every pool starts empty) ----------------------
        #: Per row: the four pool capacities features 2-5 divide by
        #: (cpu, ej-cpu, gpu, ej-gpu).
        self._feat_caps = [
            tuple(pool.capacity_slots for pool in pools)
            for pools in self._pools
        ]
        self._cap_cpu = [caps[0] for caps in self._feat_caps]
        self._cap_ejc = [caps[1] for caps in self._feat_caps]
        self._cap_gpu = [caps[2] for caps in self._feat_caps]
        self._cap_ejg = [caps[3] for caps in self._feat_caps]
        #: The pooled input capacity Buf_w divides by.
        self._in_caps = [caps[0] + caps[2] for caps in self._feat_caps]
        self._s_cpu = [0] * n
        self._s_ejc = [0] * n
        self._s_gpu = [0] * n
        self._s_ejg = [0] * n
        #: Occupancy event stamps: each push or pop of ``d`` slots adds
        #: ``d × e`` (``e`` = ``cycle`` in phases 0-3, ``cycle + 1`` in
        #: phases 5-7), and each close leaves ``slots × (close + 1)``,
        #: so ``slots × (c + 1) − stamp`` is the open window's
        #: slot-cycle integral at a close on cycle ``c``.  The first
        #: window opens at cycle 0 with empty pools: every stamp is 0.
        self._st_cpu = [0] * n
        self._st_ejc = [0] * n
        self._st_gpu = [0] * n
        self._st_ejg = [0] * n
        self._resv = [0] * n

        # -- queue-head flags and work counter ------------------------------
        self._cpu_has = [False] * n
        self._gpu_has = [False] * n
        self._cpu_hl = [False] * n
        self._gpu_hl = [False] * n
        self._ej_rows: set = set()
        #: Packets that could move next cycle (pools + backlogs); the
        #: O(1) quiescence probe of the idle skipper (:meth:`_advance`).
        self._work = 0
        self._backlogs = network._injection_backlog
        #: Rows whose injection backlog is worth retrying.  A blocked
        #: head can only start fitting again after a transmit pop frees
        #: slots in its pool (nothing else shrinks an input pool), so
        #: rows enter this set there and leave it once re-blocked —
        #: turning the scalar engine's every-cycle all-router retry
        #: sweep into a usually-empty set check.
        self._bl_ready: set = set()

        # -- packets in flight and pending responses -------------------------
        #: Rows per arrival cycle and responses per ready cycle, each
        #: list in push order, with a min-heap of the distinct pending
        #: cycles.  Every push takes the next sequence number, so push
        #: order is sequence order and popping the cycles in ascending
        #: order visits the rows in the reference heaps'
        #: ``(cycle, sequence)`` order.
        self._arrivals: Dict[int, List] = {}
        self._arrival_cycles: List[int] = []
        self._responses: Dict[int, List] = {}
        self._response_cycles: List[int] = []

        # -- window accumulators (lazy sample counters) ---------------------
        self._is_l3 = [r.is_l3 for r in routers]
        self._feat_link_busy = [0] * n
        # Lazy counters: ``samples = cycle - base``.  Occupancy is
        # observed *before* a close on the boundary cycle (so that cycle
        # counts into the closing window) while the link is sampled
        # after it — hence the off-by-one between the two.
        self._occ_base = [-1] * n
        self._link_base = [0] * n
        self._f_core = [0] * n
        self._f_other = [0] * n
        self._f_cores = [0] * n
        self._f_netinj = [0] * n
        self._f_qs = [0] * n
        self._f_ps = [0] * n
        self._f_qr = [0] * n
        self._f_pr = [0] * n
        self._f_qlvl: List[List[int]] = [[0] * 8 for _ in range(n)]
        self._f_plvl: List[List[int]] = [[0] * 8 for _ in range(n)]

        # -- transmit engines / link-busy integral --------------------------
        self._cpu_free = [0] * n
        self._gpu_free = [0] * n
        self._loc_busy = [0] * n
        self._emax = [0] * n
        self._link_settled = [0] * n
        self._stats_link_base = 0

        # -- laser flips (no bank has a turn-on pending at cycle 0) ---------
        self._next_flip = _FAR

        # -- close schedule --------------------------------------------------
        # Every router closes on the run's reservation window at its own
        # stagger offset, so the boundaries cycle through the offset
        # groups: (rows in router order, cycles to the next boundary).
        groups: Dict[int, List[int]] = {}
        for r, router in enumerate(routers):
            groups.setdefault(router._offset, []).append(r)
        offsets = sorted(groups)
        window = network.config.power_scaling.reservation_window
        nexts = offsets[1:] + [offsets[0] + window]
        self._close_groups = [
            (groups[o], b - o) for o, b in zip(offsets, nexts)
        ]
        self._group = 0
        self._next_boundary = offsets[0]

        # -- fault schedule ---------------------------------------------------
        # No fault starts before cycle 0, so every link starts up.
        self._fault_next = [_FAR] * n
        self._link_down = [False] * n
        if network._fault_context is not None:
            for r, router in enumerate(routers):
                injector = router._fault_injector
                if injector is not None:
                    event = injector.next_event()
                    self._fault_next[r] = _FAR if event is None else event
        self._next_fault = min(self._fault_next)

        # -- hot-path mirrors of the laser/fault view -------------------------
        self._tx_ok = [True] * n
        self._ser_now = [self._ser[bank.state] for bank in self._banks]

        # -- DBA split counts (telemetry only) --------------------------------
        # Under a telemetry session each photonic dispatch is counted in
        # its router's split dict under the label of the decision that
        # sent it.  The warm-up boundary clears the dicts in place, so
        # these references stay valid for the whole run.
        self._obs = OBS.enabled
        self._dba_counts = [router._dba_split_counts for router in routers]

    # -- engine caches ------------------------------------------------------

    def _refresh_dba_pin(self, r: int) -> None:
        """Mirror row ``r``'s allocator pin into the hot-path lists."""
        dba = self._dbas[r]
        pinned = dba.pinned
        self._dba_pin_label[r] = dba.pinned_label
        if pinned is not None:
            self._dba_pin_cf[r] = pinned.cpu_fraction
            self._dba_pin_gf[r] = pinned.gpu_fraction

    def _write_back(self) -> None:
        """Write the pools' slots and the reservation counts to the
        router objects (the core's lists are the run's only copy)."""
        for r, (cpu, ejc, gpu, ejg) in enumerate(self._pools):
            cpu._occupied_slots = self._s_cpu[r]
            ejc._occupied_slots = self._s_ejc[r]
            gpu._occupied_slots = self._s_gpu[r]
            ejg._occupied_slots = self._s_ejg[r]
            self.routers[r].reservations_sent = self._resv[r]

    # -- laser flips --------------------------------------------------------

    def _refresh_laser(self, r: int) -> None:
        """Mirror row ``r``'s bank into the hot-path transmit lists."""
        bank = self._banks[r]
        self._ser_now[r] = self._ser[bank.state]
        self._tx_ok[r] = bank.can_transmit and not self._link_down[r]

    def _recompute_next_flip(self) -> None:
        flips = [
            bank._flip_cycle
            for bank in self._banks
            if bank._pending_state is not None
        ]
        self._next_flip = min(flips) if flips else _FAR

    def _apply_flips(self, through: int) -> None:
        """Land every pending turn-on whose flip cycle is <= ``through``.

        :meth:`LaserBank.settle` splits the span exactly at the flip
        cycle, so a flip may be landed late (after a quiescent span
        skipped over it) without error.
        """
        for r, bank in enumerate(self._banks):
            if bank._pending_state is not None and bank._flip_cycle <= through:
                bank.settle(through)
                self._refresh_laser(r)
        self._recompute_next_flip()

    # -- link-busy settlement --------------------------------------------------

    def _settle_link_row(self, r: int, to: int) -> None:
        """Credit row ``r``'s engine-busy cycles in [settled, to)."""
        hi = self._emax[r]
        if hi > to:
            hi = to
        d = hi - self._link_settled[r]
        if d > 0:
            self._feat_link_busy[r] += d
            self._stats.link_busy_cycles += d
        self._link_settled[r] = to

    def _settle_links_all(self, to: int) -> None:
        for r in range(self.n):
            self._settle_link_row(r, to)
        stats = self._stats
        stats.link_total_cycles += self.n * (to - self._stats_link_base)
        self._stats_link_base = to

    # -- fault events -----------------------------------------------------------

    def _fault_prepass(self, cycle: int) -> None:
        """Consume every fault event due at ``cycle`` (scalar path).

        ``RouterFaultInjector.advance_to`` only changes state when an
        event <= cycle exists, so calling it lazily at exactly those
        cycles is equivalent to the scalar engine's every-cycle call.
        """
        fault_next = self._fault_next
        for r in [r for r, due in enumerate(fault_next) if due <= cycle]:
            router = self.routers[r]
            injector = router._fault_injector
            if injector.advance_to(cycle):
                self._banks[r].settle(cycle)
                router._request_laser_state(router._desired_state, cycle)
            event = injector.next_event()
            fault_next[r] = _FAR if event is None else event
            self._link_down[r] = injector.link_down
            self._refresh_laser(r)
        self._next_fault = min(fault_next)
        self._recompute_next_flip()

    # -- window boundary ----------------------------------------------------------

    def _close_boundary(self, cycle: int) -> None:
        """Freeze the closing rows and run the shared close path.

        Each closing row's label, Table III row, Buf_w mean and pool
        slots come straight from its counters and stamps (through the
        same :func:`~repro.ml.features.window_row` the reference
        engine's collectors use), and :meth:`PearlNetwork._close_windows`
        is the code the reference engine runs, so policy/RNG/ML
        behaviour is identical by construction.  Each closing row's
        bank is settled to ``cycle`` first, so the state its policy
        requests applies from this cycle on.

        Only the closers' banks and pins can change here, so only their
        transmit mirrors are refreshed.  ``_next_flip`` is recomputed
        over every bank only when a closer had a turn-on pending before
        the close (its request may have moved or cancelled the minimum);
        otherwise the closers' new flips fold into the current minimum.
        """
        rows, gap = self._close_groups[self._group]
        routers = self.routers
        banks = self._banks
        closers: List = []
        frozen: List = []
        # This cycle was observed before the close: the open window's
        # observations end at ``cycle`` inclusive.
        after = cycle + 1
        s_cpu = self._s_cpu
        s_ejc = self._s_ejc
        s_gpu = self._s_gpu
        s_ejg = self._s_ejg
        st_cpu = self._st_cpu
        st_ejc = self._st_ejc
        st_gpu = self._st_gpu
        st_ejg = self._st_ejg
        emax = self._emax
        link_settled = self._link_settled
        feat_link_busy = self._feat_link_busy
        occ_base = self._occ_base
        link_base = self._link_base
        f_core = self._f_core
        f_other = self._f_other
        f_cores = self._f_cores
        f_netinj = self._f_netinj
        f_qs = self._f_qs
        f_qr = self._f_qr
        f_ps = self._f_ps
        f_pr = self._f_pr
        f_qlvl = self._f_qlvl
        f_plvl = self._f_plvl
        stats = self._stats
        had_flip = False
        for r in rows:
            bank = banks[r]
            if bank._pending_state is not None:
                had_flip = True
            bank.settle(cycle)
            # _settle_link_row(r, cycle), inlined: the window's last
            # engine-busy cycles.
            link_busy = feat_link_busy[r]
            hi = emax[r]
            if hi > cycle:
                hi = cycle
            d = hi - link_settled[r]
            if d > 0:
                link_busy += d
                stats.link_busy_cycles += d
            link_settled[r] = cycle
            # Each pool's slot-cycle integral, and the stamp that opens
            # the next window.
            cpu = s_cpu[r]
            ejc = s_ejc[r]
            gpu = s_gpu[r]
            ejg = s_ejg[r]
            end_cpu = cpu * after
            end_ejc = ejc * after
            end_gpu = gpu * after
            end_ejg = ejg * after
            sum_cpu = end_cpu - st_cpu[r]
            sum_ejc = end_ejc - st_ejc[r]
            sum_gpu = end_gpu - st_gpu[r]
            sum_ejg = end_ejg - st_ejg[r]
            st_cpu[r] = end_cpu
            st_ejc[r] = end_ejc
            st_gpu[r] = end_gpu
            st_ejg[r] = end_ejg
            samples = cycle - occ_base[r]
            frozen.append(
                (
                    float(f_netinj[r]),
                    window_row(
                        self._is_l3[r],
                        (sum_cpu, sum_ejc, sum_gpu, sum_ejg),
                        self._feat_caps[r],
                        samples,
                        link_busy,
                        cycle - link_base[r],
                        (
                            f_core[r],
                            f_other[r],
                            f_cores[r],
                            f_qs[r],
                            f_qr[r],
                            f_ps[r],
                            f_pr[r],
                        ),
                        f_qlvl[r],
                        f_plvl[r],
                        bank.state,
                    ),
                    input_buffer_mean(
                        sum_cpu, sum_gpu, self._in_caps[r], samples
                    ),
                    (cpu, ejc, gpu, ejg),
                )
            )
            closers.append(routers[r])
            # Open the next window.
            feat_link_busy[r] = 0
            occ_base[r] = cycle
            link_base[r] = cycle
            f_core[r] = 0
            f_other[r] = 0
            f_cores[r] = 0
            f_netinj[r] = 0
            f_qs[r] = 0
            f_ps[r] = 0
            f_qr[r] = 0
            f_pr[r] = 0
            f_qlvl[r] = [0] * 8
            f_plvl[r] = [0] * 8
        self.net._close_windows(closers, frozen, cycle)
        # _refresh_laser for the closers, inlined, with the fold of
        # their flips into the current minimum.
        ser = self._ser
        ser_now = self._ser_now
        tx_ok = self._tx_ok
        link_down = self._link_down
        next_flip = self._next_flip
        for r in rows:
            bank = banks[r]
            ser_now[r] = ser[bank.state]
            if bank._pending_state is None:
                tx_ok[r] = not link_down[r]
            else:
                tx_ok[r] = False
                if bank._flip_cycle < next_flip:
                    next_flip = bank._flip_cycle
        if had_flip:
            self._recompute_next_flip()
        else:
            self._next_flip = next_flip
        if self._pins:
            for r in rows:
                self._refresh_dba_pin(r)
        self._group = (self._group + 1) % len(self._close_groups)
        self._next_boundary = cycle + gap

    # -- packet plumbing (backlog and retransmit retries) ----------------------------

    def _push_input(
        self, r: int, packet: tuple, cycle: int, front: bool
    ) -> bool:
        """Push ``packet`` into row ``r``'s input pool in phases 0-3.

        A CRC retransmission goes in ``front`` (head-of-line, as
        :meth:`PearlRouter.reinject`); a backlogged injection at the
        tail.  Returns False when the pool cannot take it.  Counts the
        packet's Table III injection features; the run statistics are
        the caller's (a retransmission was counted at its injection).
        """
        flits = packet[5]
        if packet[2] is CoreType.CPU:
            if flits > self._cap_cpu[r] - self._s_cpu[r]:
                return False
            queue = self._q_cpu[r]
            if front or not queue:
                self._cpu_has[r] = True
                self._cpu_hl[r] = r == packet[1]
            self._s_cpu[r] += flits
            self._st_cpu[r] += flits * cycle
        else:
            if flits > self._cap_gpu[r] - self._s_gpu[r]:
                return False
            queue = self._q_gpu[r]
            if front or not queue:
                self._gpu_has[r] = True
                self._gpu_hl[r] = r == packet[1]
            self._s_gpu[r] += flits
            self._st_gpu[r] += flits * cycle
        if front:
            queue.appendleft(packet)
        else:
            queue.append(packet)
        # features.on_injected, inlined:
        self._f_cores[r] += 1
        if r != packet[1]:
            self._f_netinj[r] += 1
        if packet[3] is PacketClass.REQUEST:
            self._f_qs[r] += 1
            self._f_qlvl[r][packet[4].table_index] += 1
        else:
            self._f_ps[r] += 1
            self._f_plvl[r][packet[4].table_index] += 1
        return True

    # -- idle skipping --------------------------------------------------------------

    def _skip_horizon(
        self, cycle: int, end: int, cursor: Optional[TraceCursor]
    ) -> int:
        """First cycle in [cycle, end] that must execute in full.

        Only *externally scheduled* events bound the horizon: pending
        responses, arrivals, retransmits, trace events, window
        boundaries and fault transitions.  Laser flips and engine
        drains are integrated lazily (bank settlement, link-busy
        spans), so a quiescent span may skip straight over them.
        """
        horizon = end
        if cursor is not None:
            nxt = cursor.next_cycle()
            if nxt is not None and nxt < horizon:
                horizon = nxt
        pending = self._response_cycles
        if pending and pending[0] < horizon:
            horizon = pending[0]
        pending = self._arrival_cycles
        if pending and pending[0] < horizon:
            horizon = pending[0]
        retransmits = self.net._retransmits
        if retransmits and retransmits[0][0] < horizon:
            horizon = retransmits[0][0]
        if self._next_boundary < horizon:
            horizon = self._next_boundary
        if self._next_fault < horizon:
            horizon = self._next_fault
        return horizon if horizon > cycle else cycle

    # -- the cycle loop -------------------------------------------------------------

    def _advance(
        self, start: int, end: int, cursor: Optional[TraceCursor]
    ) -> None:
        """Advance cycles [start, end): the array core's whole cycle loop.

        Phases 0-7 run inline, in :meth:`PearlNetwork.step`'s order, in
        this one frame: the state lists, the work counter, the run's
        traffic counters and the packet sequence are locals bound once
        per call, and ready responses and new trace rows share one
        inline copy of the inject logic.  Only rare work calls out:
        retransmit and backlog retries (:meth:`_push_input`), laser
        flips, fault events, window closes and CRC errors.  Phases the
        reference engine runs per router become loops over the rows
        that can make progress.  A packet is its row tuple (see the
        module docstring), read by index: 0 source, 1 destination, 2
        core type, 3 class, 4 cache level, 5 flits, 6 created cycle and,
        on a retransmission, 7 retries.

        Because every per-cycle integral is lazy, skipping a quiescent
        span costs nothing: whenever the work counter reads zero after
        a cycle, the loop jumps to :meth:`_skip_horizon` and the next
        settlement's closed form covers the gap exactly.
        """
        net = self.net
        n = self.n
        heappush = heapq.heappush
        heappop = heapq.heappop
        ceil = math.ceil
        CPU = CoreType.CPU
        REQ = PacketClass.REQUEST
        lvl = LOCAL_CROSSBAR_CYCLES
        overhead = PIPELINE_OVERHEAD_CYCLES
        drain_budget = EJECTION_DRAIN_PER_CYCLE
        # The responder every PEARL engine shares.
        responder = net.responder
        rng = net._rng
        memory = net.memory
        l3_router = net.config.architecture.l3_router_id
        line_bytes = net.config.architecture.cache_line_bytes
        fault_context = net._fault_context
        retransmits = net._retransmits
        retry_backlogs = net._retransmit_backlog
        stats = self._stats
        # The run's traffic counters, counted here and written back
        # when the call returns.  NetworkStats.begin_measurement zeroes
        # them (and replaces ``stats._latencies``) between the warm-up
        # and the measurement call.
        cnt_cpu = stats.counters[CPU]
        cnt_gpu = stats.counters[CoreType.GPU]
        inj_cpu = cnt_cpu.packets_injected
        injf_cpu = cnt_cpu.flits_injected
        dlv_cpu = cnt_cpu.packets_delivered
        dlvf_cpu = cnt_cpu.flits_delivered
        lat_cpu = cnt_cpu.total_latency
        inj_gpu = cnt_gpu.packets_injected
        injf_gpu = cnt_gpu.flits_injected
        dlv_gpu = cnt_gpu.packets_delivered
        dlvf_gpu = cnt_gpu.flits_delivered
        lat_gpu = cnt_gpu.total_latency
        local_delivered = stats.local_packets_delivered
        network_flits = stats.network_flits_delivered
        lat_append = stats._latencies.append
        arrivals = self._arrivals
        arrival_cycles = self._arrival_cycles
        responses = self._responses
        response_cycles = self._response_cycles
        backlogs = self._backlogs
        bl_ready = self._bl_ready
        ej_rows = self._ej_rows
        ej_backlogs = self._ej_backlog
        q_cpu = self._q_cpu
        q_gpu = self._q_gpu
        q_ejc = self._q_ejc
        q_ejg = self._q_ejg
        ej_info = self._ej_info
        tx_info = self._tx_info
        cpu_engs = self._cpu_eng
        gpu_engs = self._gpu_eng
        local_engs = self._local_eng
        cap_cpu = self._cap_cpu
        cap_gpu = self._cap_gpu
        cap_ejc = self._cap_ejc
        cap_ejg = self._cap_ejg
        s_cpu = self._s_cpu
        s_gpu = self._s_gpu
        s_ejc = self._s_ejc
        s_ejg = self._s_ejg
        st_cpu = self._st_cpu
        st_gpu = self._st_gpu
        st_ejc = self._st_ejc
        st_ejg = self._st_ejg
        resv = self._resv
        cpu_has = self._cpu_has
        gpu_has = self._gpu_has
        cpu_hl = self._cpu_hl
        gpu_hl = self._gpu_hl
        cpu_free = self._cpu_free
        gpu_free = self._gpu_free
        loc_busy = self._loc_busy
        emax = self._emax
        link_settled = self._link_settled
        feat_link_busy = self._feat_link_busy
        tx_ok = self._tx_ok
        ser_now = self._ser_now
        dba_dyn = self._dba_dyn
        dba_gub = self._dba_gub
        dba_cub = self._dba_cub
        dba_major = self._dba_major
        dba_minor = self._dba_minor
        dba_pin_label = self._dba_pin_label
        dba_pin_cf = self._dba_pin_cf
        dba_pin_gf = self._dba_pin_gf
        obs = self._obs
        dba_counts = self._dba_counts
        # Each window close replaces a closing row's ``_f_qlvl`` and
        # ``_f_plvl`` entries, so those are indexed by row at each use
        # and never hoisted across a close.
        f_qlvl = self._f_qlvl
        f_plvl = self._f_plvl
        f_core = self._f_core
        f_other = self._f_other
        f_cores = self._f_cores
        f_netinj = self._f_netinj
        f_qs = self._f_qs
        f_ps = self._f_ps
        f_qr = self._f_qr
        f_pr = self._f_pr
        push_input = self._push_input
        skip_horizon = self._skip_horizon
        if cursor is None:
            trace_next = _FAR
        else:
            pop_rows = cursor.pop_rows
            trace_next = cursor.next_cycle()
            if trace_next is None:
                trace_next = _FAR
        work = self._work
        sequence = net._sequence
        # _close_boundary, _apply_flips and _fault_prepass move these
        # three, so all three are re-read after each such call.
        next_boundary = self._next_boundary
        next_flip = self._next_flip
        next_fault = self._next_fault
        cycle = start
        while cycle < end:
            cycle_next = cycle + 1
            # 0. CRC retransmissions re-enter their source pool
            #    head-of-line (stalled retries first, in order).
            if fault_context is not None:
                for r, retry_backlog in enumerate(retry_backlogs):
                    if retry_backlog:
                        while retry_backlog and push_input(
                            r, retry_backlog[0], cycle, True
                        ):
                            retry_backlog.popleft()
                while retransmits and retransmits[0][0] <= cycle:
                    packet = heappop(retransmits)[2]
                    r = packet[0]
                    retry_backlog = retry_backlogs[r]
                    if retry_backlog or not push_input(r, packet, cycle, True):
                        retry_backlog.append(packet)
                    work += 1
            # 1. Retry backlogged injections (net-zero for the work
            #    counter).  Only rows whose pool lost slots since the head
            #    last blocked (``_bl_ready``) are visited; everyone else
            #    would fail the same capacity check as before.
            if bl_ready:
                for r in sorted(bl_ready):
                    backlog = backlogs[r]
                    while backlog:
                        packet = backlog[0]
                        flits = packet[5]
                        if packet[2] is CPU:
                            if flits > cap_cpu[r] - s_cpu[r]:
                                break
                            inj_cpu += 1
                            injf_cpu += flits
                        else:
                            if flits > cap_gpu[r] - s_gpu[r]:
                                break
                            inj_gpu += 1
                            injf_gpu += flits
                        push_input(r, packet, cycle, False)
                        backlog.popleft()
                bl_ready.clear()
            # 2. Ready responses, then 3. new trace rows.  Pending
            #    cycles are popped with ``<=``: a zero-latency response
            #    becomes ready in the cycle its request drained (phase 7)
            #    and injects on the next cycle.
            packets = ()
            if response_cycles and response_cycles[0] <= cycle:
                packets = responses.pop(heappop(response_cycles))
                while response_cycles and response_cycles[0] <= cycle:
                    packets += responses.pop(heappop(response_cycles))
            if trace_next <= cycle:
                rows = pop_rows(cycle)
                packets = packets + rows if packets else rows
                trace_next = cursor.next_cycle()
                if trace_next is None:
                    trace_next = _FAR
            for packet in packets:
                # router.inject + stats.on_injected, inlined (a packet
                # behind a backlog, or one that does not fit, waits in
                # its router's backlog).
                r = packet[0]
                work += 1
                backlog = backlogs[r]
                if backlog:
                    backlog.append(packet)
                    continue
                flits = packet[5]
                if packet[2] is CPU:
                    if flits > cap_cpu[r] - s_cpu[r]:
                        backlog.append(packet)
                        continue
                    queue = q_cpu[r]
                    if not queue:
                        cpu_has[r] = True
                        cpu_hl[r] = r == packet[1]
                    queue.append(packet)
                    s_cpu[r] += flits
                    st_cpu[r] += flits * cycle
                    inj_cpu += 1
                    injf_cpu += flits
                else:
                    if flits > cap_gpu[r] - s_gpu[r]:
                        backlog.append(packet)
                        continue
                    queue = q_gpu[r]
                    if not queue:
                        gpu_has[r] = True
                        gpu_hl[r] = r == packet[1]
                    queue.append(packet)
                    s_gpu[r] += flits
                    st_gpu[r] += flits * cycle
                    inj_gpu += 1
                    injf_gpu += flits
                # features.on_injected, inlined:
                f_cores[r] += 1
                if r != packet[1]:
                    f_netinj[r] += 1
                if packet[3] is REQ:
                    f_qs[r] += 1
                    f_qlvl[r][packet[4].table_index] += 1
                else:
                    f_ps[r] += 1
                    f_plvl[r][packet[4].table_index] += 1
            # 4. Control planes.  Pending laser flips whose integral
            #    boundary has passed land first (they are the pre-tick
            #    state view the closes and fault clamps read)...
            if next_flip <= cycle:
                self._apply_flips(cycle)
                next_flip = self._next_flip
            if next_fault <= cycle:
                self._fault_prepass(cycle)
                next_fault = self._next_fault
                next_flip = self._next_flip
            #    ... then the window closes on this cycle's boundary
            #    (this cycle's occupancy observation is in the stamps)...
            if cycle == next_boundary:
                self._close_boundary(cycle)
                next_boundary = self._next_boundary
                next_flip = self._next_flip
            #    ... and finally the transitions that complete during this
            #    cycle's (lazy) laser tick: the transmit phase below must
            #    already see the new state, exactly as after the scalar
            #    ``laser.tick()``.
            if next_flip == cycle_next:
                self._apply_flips(cycle_next)
                next_flip = self._next_flip
            # 5. Transmissions (:meth:`PearlRouter.transmit`), over the
            #    rows whose pool head can move: a photonic engine is free,
            #    or the head is local and the crossbar is free.  Other
            #    rows are provably no-ops: an empty pool pops nothing, a
            #    busy engine blocks the photonic head, the allocator is
            #    pure, and their link-busy samples are reconstructed
            #    lazily from the engine-busy maxima.
            if work:
                for r in range(n):
                    if not (
                        cpu_has[r]
                        and (
                            cpu_free[r] <= cycle
                            or (cpu_hl[r] and loc_busy[r] <= cycle)
                        )
                    ) and not (
                        gpu_has[r]
                        and (
                            gpu_free[r] <= cycle
                            or (gpu_hl[r] and loc_busy[r] <= cycle)
                        )
                    ):
                        continue
                    # The DBA decision, inlined: the same branch order as
                    # DynamicBandwidthAllocator.decide on the same int/int
                    # occupancy divisions (the slots this row's occupancy
                    # observation saw at ``cycle``), so the fractions are
                    # bit-identical.  The branch also labels the decision,
                    # the key a photonic dispatch is counted under when
                    # telemetry is on.
                    label = dba_pin_label[r]
                    if label is not None:  # D3NOC window pin
                        cf = dba_pin_cf[r]
                        gf = dba_pin_gf[r]
                    elif dba_dyn[r]:
                        co = s_cpu[r] / cap_cpu[r]
                        go = s_gpu[r] / cap_gpu[r]
                        if go == 0.0 and co > 0.0:
                            cf = 1.0
                            gf = 0.0
                            label = "all_cpu"
                        elif co == 0.0 and go > 0.0:
                            cf = 0.0
                            gf = 1.0
                            label = "all_gpu"
                        elif go < dba_gub[r]:
                            cf = dba_major[r]
                            gf = dba_minor[r]
                            label = "cpu_major"
                        elif co < dba_cub[r]:
                            cf = dba_minor[r]
                            gf = dba_major[r]
                            label = "gpu_major"
                        else:
                            cf = 0.5
                            gf = 0.5
                            label = "even"
                    else:
                        cf = gf = 0.5
                        label = "even"
                    can_transmit = tx_ok[r]
                    serialization = ser_now[r]
                    local_engine = local_engs[r]
                    old_max = emax[r]
                    popped = 0
                    dispatched = False
                    for queue, engines, is_cpu in tx_info[r]:
                        while queue:
                            head = queue[0]
                            if head[0] == head[1]:
                                if cycle < local_engine.busy_until:
                                    break
                                local_engine.busy_until = cycle_next
                                loc_busy[r] = cycle_next
                                arrival = cycle + lvl
                            else:
                                fraction = cf if is_cpu else gf
                                if fraction <= 0.0 or not can_transmit:
                                    break
                                engine = None
                                for candidate in engines:
                                    if candidate.busy_until <= cycle:
                                        engine = candidate
                                        break
                                if engine is None:
                                    break
                                dispatched = True
                                serialize = int(
                                    ceil(serialization * head[5] / fraction)
                                )
                                engine.busy_until = cycle + serialize
                                resv[r] += 1
                                if obs:
                                    counts = dba_counts[r]
                                    counts[label] = counts.get(label, 0) + 1
                                arrival = cycle + serialize + overhead
                            queue.popleft()
                            popped += 1
                            flits = head[5]
                            if is_cpu:
                                s_cpu[r] -= flits
                                st_cpu[r] -= flits * cycle_next
                            else:
                                s_gpu[r] -= flits
                                st_gpu[r] -= flits * cycle_next
                            # In flight until ``arrival``: the bucket
                            # keeps push order, which is sequence order.
                            sequence += 1
                            bucket = arrivals.get(arrival)
                            if bucket is None:
                                arrivals[arrival] = [head]
                                heappush(arrival_cycles, arrival)
                            else:
                                bucket.append(head)
                    if popped:
                        work -= popped
                        if backlogs[r]:
                            bl_ready.add(r)
                        queue = q_cpu[r]
                        if queue:
                            head = queue[0]
                            cpu_has[r] = True
                            cpu_hl[r] = head[0] == head[1]
                        else:
                            cpu_has[r] = False
                        queue = q_gpu[r]
                        if queue:
                            head = queue[0]
                            gpu_has[r] = True
                            gpu_hl[r] = head[0] == head[1]
                        else:
                            gpu_has[r] = False
                    if dispatched:
                        # _settle_link_row, inlined:
                        settled = link_settled[r]
                        span = old_max if old_max < cycle else cycle
                        if span > settled:
                            count = span - settled
                            feat_link_busy[r] += count
                            stats.link_busy_cycles += count
                        link_settled[r] = cycle
                        # Per-pool free/max busy caches (single-engine
                        # fast path):
                        pool_engines = cpu_engs[r]
                        lo = hic = pool_engines[0].busy_until
                        if len(pool_engines) > 1:
                            for engine in pool_engines[1:]:
                                b = engine.busy_until
                                if b < lo:
                                    lo = b
                                elif b > hic:
                                    hic = b
                        cpu_free[r] = lo
                        pool_engines = gpu_engs[r]
                        lo = hig = pool_engines[0].busy_until
                        if len(pool_engines) > 1:
                            for engine in pool_engines[1:]:
                                b = engine.busy_until
                                if b < lo:
                                    lo = b
                                elif b > hig:
                                    hig = b
                        gpu_free[r] = lo
                        emax[r] = hic if hic > hig else hig
            # 6. Arrivals, in (arrival, sequence) order: pending cycles
            #    ascending, each bucket in push order.  Photonic arrivals
            #    are CRC-checked when a bit-error schedule is active.
            while arrival_cycles and arrival_cycles[0] <= cycle:
                for packet in arrivals.pop(heappop(arrival_cycles)):
                    r = packet[1]
                    src = packet[0]
                    flits = packet[5]
                    if src != r:
                        if fault_context is not None and fault_context.corrupts(
                            src, flits, cycle
                        ):
                            retries = packet[7] if len(packet) > 7 else 0
                            ready = net._handle_crc_error(
                                retries, cycle, src, r
                            )
                            if ready is not None:
                                sequence += 1
                                retry = packet[:7] + (retries + 1,)
                                heappush(retransmits, (ready, sequence, retry))
                            continue
                        # features.on_received, inlined:
                        f_other[r] += 1
                        if packet[3] is REQ:
                            f_qr[r] += 1
                            f_qlvl[r][packet[4].table_index] += 1
                        else:
                            f_pr[r] += 1
                            f_plvl[r][packet[4].table_index] += 1
                    # _push_ejection, inlined (local delivery skips the
                    # CRC check and the features):
                    if packet[2] is CPU:
                        if flits <= cap_ejc[r] - s_ejc[r]:
                            q_ejc[r].append(packet)
                            s_ejc[r] += flits
                            st_ejc[r] += flits * cycle_next
                        else:
                            ej_backlogs[r].append(packet)
                    elif flits <= cap_ejg[r] - s_ejg[r]:
                        q_ejg[r].append(packet)
                        s_ejg[r] += flits
                        st_ejg[r] += flits * cycle_next
                    else:
                        ej_backlogs[r].append(packet)
                    work += 1
                    ej_rows.add(r)
            # 7. Ejection to cores (:meth:`PearlRouter.drain_ejection`)
            #    on the rows with ejection work, with stats.on_delivered,
            #    features.on_delivered_to_core and the responder inlined.
            if ej_rows:
                for r in sorted(ej_rows) if len(ej_rows) > 1 else tuple(ej_rows):
                    backlog = ej_backlogs[r]
                    if backlog:
                        remaining: List = []
                        for packet in backlog:
                            flits = packet[5]
                            if packet[2] is CPU:
                                if flits <= cap_ejc[r] - s_ejc[r]:
                                    q_ejc[r].append(packet)
                                    s_ejc[r] += flits
                                    st_ejc[r] += flits * cycle_next
                                    continue
                            elif flits <= cap_ejg[r] - s_ejg[r]:
                                q_ejg[r].append(packet)
                                s_ejg[r] += flits
                                st_ejg[r] += flits * cycle_next
                                continue
                            remaining.append(packet)
                        backlog[:] = remaining
                    for queue, is_cpu in ej_info[r]:
                        budget = drain_budget
                        while budget and queue:
                            budget -= 1
                            work -= 1
                            packet = queue.popleft()
                            flits = packet[5]
                            latency = cycle - packet[6]
                            # stats.on_delivered, inlined:
                            if is_cpu:
                                s_ejc[r] -= flits
                                st_ejc[r] -= flits * cycle_next
                                dlv_cpu += 1
                                dlvf_cpu += flits
                                lat_cpu += latency
                            else:
                                s_ejg[r] -= flits
                                st_ejg[r] -= flits * cycle_next
                                dlv_gpu += 1
                                dlvf_gpu += flits
                                lat_gpu += latency
                            lat_append(latency)
                            if packet[0] == r:
                                local_delivered += 1
                            else:
                                network_flits += flits
                            # features.on_delivered_to_core, inlined:
                            f_core[r] += 1
                            if packet[3] is REQ:
                                ready, response = build_response(
                                    packet[0],
                                    r,
                                    packet[2],
                                    packet[6],
                                    cycle,
                                    responder,
                                    rng,
                                    memory,
                                    l3_router,
                                    line_bytes,
                                )
                                sequence += 1
                                bucket = responses.get(ready)
                                if bucket is None:
                                    responses[ready] = [response]
                                    heappush(response_cycles, ready)
                                else:
                                    bucket.append(response)
                    if not q_ejc[r] and not q_ejg[r] and not backlog:
                        ej_rows.discard(r)
            cycle = cycle_next
            if work == 0 and cycle < end:
                horizon = skip_horizon(cycle, end, cursor)
                if horizon > cycle:
                    cycle = horizon
        self._work = work
        net._sequence = sequence
        cnt_cpu.packets_injected = inj_cpu
        cnt_cpu.flits_injected = injf_cpu
        cnt_cpu.packets_delivered = dlv_cpu
        cnt_cpu.flits_delivered = dlvf_cpu
        cnt_cpu.total_latency = lat_cpu
        cnt_gpu.packets_injected = inj_gpu
        cnt_gpu.flits_injected = injf_gpu
        cnt_gpu.packets_delivered = dlv_gpu
        cnt_gpu.flits_delivered = dlvf_gpu
        cnt_gpu.total_latency = lat_gpu
        stats.local_packets_delivered = local_delivered
        stats.network_flits_delivered = network_flits
        self._write_back()

    # -- run ------------------------------------------------------------------------

    def _begin_measurement(self, warmup: int) -> None:
        """Warm-up boundary: settle, reset integrals, re-anchor bases."""
        self._settle_links_all(warmup)
        self._apply_flips(warmup)  # flips skipped before the boundary
        for bank in self._banks:
            bank.settle(warmup)
        self.net._begin_measurement(warmup)
        self._stats_link_base = warmup

    def _finish(self, total: int) -> None:
        """End of the run: settle every bank, then finish there.

        Pool queues, engines, policy histories and the other counters
        were updated as the run went (the last :meth:`_advance` wrote
        the slots, reservation counts and traffic statistics back), and
        the laser banks lag only by the span since their last
        settlement.
        """
        self._settle_links_all(total)
        for bank in self._banks:
            bank.settle(total)
        self.net._finish(total)
