"""Struct-of-arrays cycle engine (``engine="array"``).

The reference engine walks 17 :class:`~repro.noc.router.PearlRouter`
objects every cycle; this engine keeps the per-router *cycle-path*
state in flat arrays indexed by router id and replaces the per-router
Python calls with a handful of vectorized operations plus tightly
masked scalar loops over only the routers that can actually do work
this cycle.  Everything it computes is **bit-identical** to the
reference engine — the differential harness in
``tests/noc/test_array_engine.py`` enforces array == reference across
every policy, allocator, fault schedule and quantization format.  It
is the default engine of :meth:`~repro.noc.network.PearlNetwork.run`.

State layout (indexed by router id, ``n = num_routers``; numpy arrays
carry the laser ledgers and window cadence, plain Python lists carry
the scalars the per-packet hot path touches):

=========================  ====================================================
``_s_*``                   occupied slots (cpu, ej-cpu, gpu, ej-gpu pools)
``_occ_sums``              window slot-cycle integrals of those four pools
                           (features 2-5 and the reactive Buf_w numerators)
``_occ_settled``           first cycle not yet credited to ``_occ_sums``
``_occ_base/_link_base``   lazy sample counters: ``samples = cycle - base``
``_feat_link_busy``        link-busy cycles settled into the open window
``_emax / _cpu_free ...``  per-pool transmit-engine busy caches
``_f_* lists``             Table III event counters (features 7-29)
``state_idx (n,)``         active wavelength-state index (ladder order)
``pending_idx (n,)``       pending state index (-1 = none)
``stab_end (n,)``          integral flip cycle of the pending transition
``seg_start (n,)``         start of the open laser-ledger segment
``in_state/at_power``      ``(n, n_states)`` integer laser cycle ledgers
=========================  ====================================================

Three ideas make the vector step cheap *and* exact:

* **Lazy segment settlement.**  Laser residency/power/stall ledgers,
  occupancy/link sample counters, the occupancy slot-cycle integrals
  and the link-busy integral are all piecewise constant between
  events, so they are settled in closed form only when something
  changes (a state flip, a dispatch, a pool push or pop, a window
  close) — per-cycle cost is a couple of integer compares.  Every
  closed form is integer arithmetic (the laser bank integrates power
  as integer cycle counts, the feature collector occupancy as integer
  slot-cycles), so a settled span equals the per-cycle accumulation
  exactly.
* **Candidate masking.**  A router is a transmit candidate only when a
  pool head can actually move: a photonic engine is free, or the head
  packet is local and the crossbar is free.  Head-locality flags are
  maintained at push/pop time, and excluded routers are provably
  side-effect-free (the allocator is pure, link/feature sampling is
  lazy).
* **Frozen rows, one close path.**  At a window boundary the engine
  freezes each closing row's label, Table III row and Buf_w mean
  straight from its counters and integrals, through the same
  :func:`~repro.ml.features.window_row` the reference engine's feature
  collector uses, and hands them to the *same*
  :meth:`~repro.noc.network.PearlNetwork._close_windows` as the
  reference engine — one ``(k, n_features)`` ML inference per close
  group, then each router's policy.  Only the closing rows' laser
  views round-trip through their bank objects (the policies request
  states there); the feature collectors are written back once, at
  :meth:`ArrayCore.sync_to_objects`.

What stays scalar: packet movement (FIFO pushes/pops, heap events,
responder/fault RNG draws) and the policy decisions at window cadence.
Per-packet work is irreducible and order-sensitive; the array core
inlines the per-packet counter updates (features, stats, slot
accounting) and removes the per-cycle *per-router* overhead around
them.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional

import numpy as np

from ..ml.features import CACHE_LEVEL_ORDER, input_buffer_mean, window_row
from ..obs import OBS
from ..traffic.trace import Trace, TraceCursor
from .packet import CoreType, PacketClass
from .router import (
    EJECTION_DRAIN_PER_CYCLE,
    LOCAL_CROSSBAR_CYCLES,
    PIPELINE_OVERHEAD_CYCLES,
    Transmission,
)

#: Sentinel "never" cycle for event minima (far beyond any horizon).
_FAR = 1 << 62

# DBA split labels in _decide branch order; telemetry tallies credit a
# small-int index on the hot path and resolve the string only when the
# per-row counts are flushed into the router's split dict.
_DBA_LABELS = ("all_cpu", "all_gpu", "cpu_major", "gpu_major", "even")
_DBA_ALL_CPU = 0
_DBA_ALL_GPU = 1
_DBA_CPU_MAJOR = 2
_DBA_GPU_MAJOR = 3
_DBA_EVEN = 4


class ArrayCore:
    """Struct-of-arrays engine over an existing :class:`PearlNetwork`.

    Construction *exports* the cycle-path state of every router into
    arrays (identity for a network of any cluster count — all arrays
    are sized from ``len(network.routers)``); :meth:`sync_to_objects`
    settles it back, and the export/import pair is the identity for
    arbitrary mid-window states (property-tested).  ``start_cycle`` is
    the cycle about to execute, so a core may be constructed around a
    half-run network.
    """

    def __init__(self, network, start_cycle: int = 0) -> None:
        self.net = network
        routers = network.routers
        self.routers = routers
        n = len(routers)
        self.n = n
        self._cycle = start_cycle

        # -- shared lookups ------------------------------------------------
        ladder = routers[0].ladder
        self._states = tuple(ladder.states)
        self._sidx = {s: i for i, s in enumerate(self._states)}
        self._ser_by_idx = [
            ladder.serialization_cycles(s) for s in self._states
        ]
        n_states = len(self._states)

        # -- object hoists (packet movement stays on these) ----------------
        self._cpu_pool = [r.buffers.cpu for r in routers]
        self._gpu_pool = [r.buffers.gpu for r in routers]
        self._ej_cpu = [r._ejection_cpu for r in routers]
        self._ej_gpu = [r._ejection_gpu for r in routers]
        self._q_cpu = [p._queue for p in self._cpu_pool]
        self._q_gpu = [p._queue for p in self._gpu_pool]
        self._q_ejc = [p._queue for p in self._ej_cpu]
        self._q_ejg = [p._queue for p in self._ej_gpu]
        self._ej_info = [
            ((self._ej_cpu[r], True), (self._ej_gpu[r], False))
            for r in range(n)
        ]
        self._cpu_eng = [r._engines[CoreType.CPU] for r in routers]
        self._gpu_eng = [r._engines[CoreType.GPU] for r in routers]
        self._local_eng = [r._local_engine for r in routers]
        self._tx_info = [
            (
                (self._cpu_pool[r], self._cpu_eng[r], True),
                (self._gpu_pool[r], self._gpu_eng[r], False),
            )
            for r in range(n)
        ]
        stats = network.stats
        self._stats = stats
        self._cnt_cpu = stats.counters[CoreType.CPU]
        self._cnt_gpu = stats.counters[CoreType.GPU]

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
        # D3NOC window pins (per row: fractions + label index, -1 =
        # unpinned).  Pins only change inside _close_windows, so the
        # mirrors refresh at construction and after each boundary.
        self._dba_pin_cf = [0.0] * n
        self._dba_pin_gf = [0.0] * n
        self._dba_pin_idx = [-1] * n
        for r in range(n):
            self._refresh_dba_pin(r)

        # -- slot accounting ------------------------------------------------
        self._cap_cpu = [p.capacity_slots for p in self._cpu_pool]
        self._cap_gpu = [p.capacity_slots for p in self._gpu_pool]
        self._s_cpu = [p._occupied_slots for p in self._cpu_pool]
        self._s_gpu = [p._occupied_slots for p in self._gpu_pool]
        self._s_ejc = [p._occupied_slots for p in self._ej_cpu]
        self._s_ejg = [p._occupied_slots for p in self._ej_gpu]

        # -- queue-head flags and work counter ------------------------------
        self._cpu_has = [False] * n
        self._gpu_has = [False] * n
        self._cpu_hl = [False] * n
        self._gpu_hl = [False] * n
        self._ej_rows: set = set()
        work = 0
        for r in range(n):
            q = self._q_cpu[r]
            if q:
                self._cpu_has[r] = True
                h = q[0]
                self._cpu_hl[r] = h.source == h.destination
            q = self._q_gpu[r]
            if q:
                self._gpu_has[r] = True
                h = q[0]
                self._gpu_hl[r] = h.source == h.destination
            ej = (
                len(self._q_ejc[r])
                + len(self._q_ejg[r])
                + len(routers[r]._ejection_backlog)
            )
            if ej:
                self._ej_rows.add(r)
            work += len(self._q_cpu[r]) + len(self._q_gpu[r]) + ej
        for backlog in network._injection_backlog:
            work += len(backlog)
        for backlog in network._retransmit_backlog:
            work += len(backlog)
        #: Packets that could move next cycle (pools + backlogs); the
        #: O(1) quiescence probe of the idle skipper (:meth:`_advance`).
        self._work = work
        self._backlogs = network._injection_backlog
        #: Rows whose injection backlog is worth retrying.  A blocked
        #: head can only start fitting again after a transmit pop frees
        #: slots in its pool (nothing else shrinks an input pool), so
        #: rows enter this set there and leave it once re-blocked —
        #: turning the scalar engine's every-cycle all-router retry
        #: sweep into a usually-empty set check.  Seeded conservatively
        #: with every backlogged row (a spurious retry is a no-op).
        self._bl_ready = {
            r for r, b in enumerate(network._injection_backlog) if b
        }

        # -- window accumulators (lazy sample counters) ---------------------
        self._is_l3 = [r.features.is_l3_router for r in routers]
        #: Per row: the four feature capacities (cpu, ej-cpu, gpu,
        #: ej-gpu) and the pooled input capacity Buf_w divides by.
        self._feat_caps = [r.features.capacities for r in routers]
        self._in_caps = [caps[0] + caps[2] for caps in self._feat_caps]
        self._occ_sums: List[List[int]] = [[0] * 4 for _ in range(n)]
        #: Occupancy is observed after injection (phases 0-3) and before
        #: transmit, so every pool push or pop first credits the slots
        #: it is about to change: through ``cycle - 1`` for a mutation
        #: in phases 0-3, through ``cycle`` for one in phases 5-7.
        self._occ_settled = [start_cycle] * n
        self._feat_link_busy = [0] * n
        self._occ_base = [0] * n
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
        for r, router in enumerate(routers):
            fc = router.features
            self._occ_sums[r] = list(fc._occupancy_slot_cycles)
            self._feat_link_busy[r] = fc._link_busy_cycles
            # Lazy counters: ``samples = cycle - base``.  Occupancy is
            # observed *before* a close on the boundary cycle (so that
            # cycle counts into the closing window) while the link is
            # sampled after it — hence the off-by-one between the two.
            self._occ_base[r] = start_cycle - fc._occupancy_samples - 1
            self._link_base[r] = start_cycle - fc._link_samples
            self._f_core[r] = fc._sent_to_core
            self._f_other[r] = fc._incoming_other
            self._f_cores[r] = fc._incoming_cores
            self._f_netinj[r] = fc._network_injected
            self._f_qs[r] = fc._requests_sent
            self._f_ps[r] = fc._responses_sent
            self._f_qr[r] = fc._requests_received
            self._f_pr[r] = fc._responses_received
            self._f_qlvl[r] = [
                fc._requests_by_level[lvl] for lvl in CACHE_LEVEL_ORDER
            ]
            self._f_plvl[r] = [
                fc._responses_by_level[lvl] for lvl in CACHE_LEVEL_ORDER
            ]

        # -- transmit engines / link-busy integral --------------------------
        self._cpu_free = [0] * n
        self._gpu_free = [0] * n
        self._loc_busy = [0] * n
        self._emax = [0] * n
        for r in range(n):
            self._refresh_engines(r)
            self._loc_busy[r] = self._local_eng[r].busy_until
        self._link_settled = [start_cycle] * n
        self._stats_link_base = start_cycle

        # -- laser ledgers (segment-settled) --------------------------------
        self.state_idx = np.zeros(n, dtype=np.int64)
        self.pending_idx = np.full(n, -1, dtype=np.int64)
        self.stab_end = np.zeros(n, dtype=np.int64)
        self.seg_start = np.full(n, start_cycle, dtype=np.int64)
        self.in_state = np.zeros((n, n_states), dtype=np.int64)
        self.at_power = np.zeros((n, n_states), dtype=np.int64)
        self.stall = np.zeros(n, dtype=np.int64)
        for r, router in enumerate(routers):
            bank = router.laser
            self.state_idx[r] = self._sidx[bank._state]
            if bank._pending_state is not None:
                self.pending_idx[r] = self._sidx[bank._pending_state]
                self.stab_end[r] = start_cycle + bank._stabilize_remaining
            for state, cycles in bank.cycles_in_state.items():
                self.in_state[r, self._sidx[state]] = cycles
            for state, cycles in bank._cycles_at_power.items():
                self.at_power[r, self._sidx[state]] = cycles
            self.stall[r] = bank.stall_cycles
        self._recompute_next_flip()

        # -- window cadence --------------------------------------------------
        self.win = np.array(
            [r._boundary_window for r in routers], dtype=np.int64
        )
        self.off = np.array(
            [r._boundary_offset for r in routers], dtype=np.int64
        )
        rem = (start_cycle - self.off) % self.win
        nxt = np.where(rem == 0, start_cycle, start_cycle + self.win - rem)
        self._next_boundary = int(nxt.min())

        # -- fault schedule ---------------------------------------------------
        self._has_faults = network._fault_context is not None
        self._fault_next = np.full(n, _FAR, dtype=np.int64)
        self._link_down = [False] * n
        if self._has_faults:
            for r, router in enumerate(routers):
                injector = router._fault_injector
                if injector is None:
                    continue
                event = injector.next_event()
                self._fault_next[r] = _FAR if event is None else event
                self._link_down[r] = injector.link_down
        self._next_fault = int(self._fault_next.min()) if n else _FAR

        # -- hot-path mirrors of the laser/fault view -------------------------
        self._tx_ok = [
            int(self.stab_end[r]) == 0 and not self._link_down[r]
            for r in range(n)
        ]
        self._ser_now = [
            self._ser_by_idx[int(self.state_idx[r])] for r in range(n)
        ]

        # -- DBA split tallies (lazy, telemetry only) -----------------------
        # The reference engine tallies one split label per router per cycle.
        # The DBA decision is a pure function of the input-pool slot
        # counts, which are piecewise constant between pool mutations —
        # so under instrumentation the tally is settled in closed form
        # right *before* each mutation (and at boundaries/sync), which
        # replays the per-cycle tallies exactly without per-cycle work.
        self._obs_tally = OBS.enabled
        # ``_FAR`` sentinel when telemetry is off: the injection path
        # guards on ``settled < cycle`` alone, so a bare run skips the
        # tally with the same single compare and no extra branch.
        self._dba_settled = [start_cycle if self._obs_tally else _FAR] * n
        # Tally dicts by row: _record_window_telemetry flushes them
        # with dict.clear(), so the identity is stable for the run.
        self._dba_counts = [
            router._dba_split_counts for router in self.routers
        ]
        # Hot-path tallies go into per-row int lists indexed by label
        # (no string hashing per credit); _flush_dba_row folds them
        # into the router's split dict at boundaries and syncs.
        self._dba_icnt = [[0] * len(_DBA_LABELS) for _ in range(n)]
        # Label an idle router settles to (co == go == 0.0 through the
        # _decide branch order) — the common case when the first packet
        # after a quiet span lands, precomputed to skip the divisions.
        self._dba_empty_idx = [
            (
                _DBA_CPU_MAJOR
                if 0.0 < self._dba_gub[r]
                else (
                    _DBA_GPU_MAJOR if 0.0 < self._dba_cub[r] else _DBA_EVEN
                )
            )
            if self._dba_dyn[r]
            else _DBA_EVEN
            for r in range(n)
        ]

    # -- engine caches ------------------------------------------------------

    def _refresh_dba_pin(self, r: int) -> None:
        """Mirror row ``r``'s allocator pin into the hot-path lists."""
        pinned = self._dbas[r].pinned
        if pinned is None:
            self._dba_pin_idx[r] = -1
            return
        self._dba_pin_cf[r] = pinned.cpu_fraction
        self._dba_pin_gf[r] = pinned.gpu_fraction
        self._dba_pin_idx[r] = _DBA_LABELS.index(
            self._dbas[r].split_labels[pinned]
        )

    def _settle_dba_row(self, r: int, to: int) -> None:
        """Credit the current DBA split with cycles [settled, to).

        ``to`` is the first cycle whose tally is *not* yet decided —
        callers settle to ``cycle`` before mutating a pool (the mutation
        affects cycle ``cycle`` onward) and to ``cycle + 1`` at transmit
        time (the scalar engine tallies cycle ``cycle`` with the
        post-injection, pre-pop occupancy this row sees there).
        """
        settled = self._dba_settled[r]
        if to <= settled:
            return
        self._dba_settled[r] = to
        self._dba_icnt[r][self._dba_label_idx(r)] += to - settled

    def _dba_label_idx(self, r: int) -> int:
        """Split-label index for row ``r``'s *current* pool occupancy."""
        pin = self._dba_pin_idx[r]
        if pin >= 0:
            return pin
        if not self._dba_dyn[r]:
            return _DBA_EVEN
        if not (self._s_cpu[r] or self._s_gpu[r]):
            return self._dba_empty_idx[r]
        co = self._s_cpu[r] / self._cap_cpu[r]
        go = self._s_gpu[r] / self._cap_gpu[r]
        if go == 0.0 and co > 0.0:
            return _DBA_ALL_CPU
        if co == 0.0 and go > 0.0:
            return _DBA_ALL_GPU
        if go < self._dba_gub[r]:
            return _DBA_CPU_MAJOR
        if co < self._dba_cub[r]:
            return _DBA_GPU_MAJOR
        return _DBA_EVEN

    def _flush_dba_row(self, r: int) -> None:
        """Fold the int tallies into the router's split dict (the form
        :meth:`PearlRouter._record_window_telemetry` flushes)."""
        icnt = self._dba_icnt[r]
        counts = self._dba_counts[r]
        for i, n in enumerate(icnt):
            if n:
                label = _DBA_LABELS[i]
                counts[label] = counts.get(label, 0) + n
                icnt[i] = 0

    def _refresh_engines(self, r: int) -> None:
        """Recompute the per-pool free/max busy cache for one router."""
        cpu = self._cpu_eng[r]
        gpu = self._gpu_eng[r]
        lo = hi = cpu[0].busy_until
        for engine in cpu[1:]:
            b = engine.busy_until
            if b < lo:
                lo = b
            elif b > hi:
                hi = b
        self._cpu_free[r] = lo
        lo_g = hi_g = gpu[0].busy_until
        for engine in gpu[1:]:
            b = engine.busy_until
            if b < lo_g:
                lo_g = b
            elif b > hi_g:
                hi_g = b
        self._gpu_free[r] = lo_g
        self._emax[r] = hi if hi > hi_g else hi_g

    # -- occupancy integrals -------------------------------------------------

    def _settle_occ_row(self, r: int, to: int) -> None:
        """Credit row ``r``'s current pool slots to cycles [settled, to).

        The same rule as :meth:`_settle_dba_row`: callers settle to
        ``cycle`` before a pool mutation in phases 0-3 (it changes what
        cycle ``cycle`` observes), to ``cycle + 1`` before one in phases
        5-7 and at a close (cycle ``cycle`` was observed before them).
        """
        settled = self._occ_settled[r]
        if to <= settled:
            return
        self._occ_settled[r] = to
        d = to - settled
        sums = self._occ_sums[r]
        sums[0] += self._s_cpu[r] * d
        sums[1] += self._s_ejc[r] * d
        sums[2] += self._s_gpu[r] * d
        sums[3] += self._s_ejg[r] * d

    # -- laser ledger settlement --------------------------------------------

    def _settle_laser_row(self, r: int, to: int) -> None:
        seg = int(self.seg_start[r])
        d = to - seg
        if d < 0:
            raise ValueError("laser ledger settled backwards")
        if d > 0:
            si = int(self.state_idx[r])
            pi = int(self.pending_idx[r])
            self.in_state[r, si] += d
            self.at_power[r, pi if pi >= 0 else si] += d
            if pi >= 0:
                self.stall[r] += d
        self.seg_start[r] = to

    def _settle_lasers_all(self, to: int) -> None:
        d = to - self.seg_start
        rows = np.arange(self.n)
        self.in_state[rows, self.state_idx] += d
        powered = np.where(self.pending_idx >= 0, self.pending_idx, self.state_idx)
        self.at_power[rows, powered] += d
        self.stall += np.where(self.pending_idx >= 0, d, 0)
        self.seg_start[:] = to

    def _recompute_next_flip(self) -> None:
        pending = self.stab_end[self.stab_end > 0]
        self._next_flip = int(pending.min()) if pending.size else _FAR

    def _apply_flips(self, through: int) -> None:
        """Land every pending transition whose flip cycle is <= ``through``.

        The ledger segment is split exactly at the flip cycle, so a
        flip may be applied late (after a quiescent span skipped over
        it) without error: the cycles before the flip settle under the
        old state with the pending lasers powered, the cycles after it
        under the new state.
        """
        for r in np.nonzero((self.stab_end > 0) & (self.stab_end <= through))[
            0
        ].tolist():
            flip = int(self.stab_end[r])
            self._settle_laser_row(r, flip)
            self.state_idx[r] = self.pending_idx[r]
            self.pending_idx[r] = -1
            self.stab_end[r] = 0
            self._ser_now[r] = self._ser_by_idx[int(self.state_idx[r])]
            self._tx_ok[r] = not self._link_down[r]
        self._recompute_next_flip()

    # -- laser bank sync ------------------------------------------------------

    def _laser_to_bank(self, r: int, cycle: int) -> None:
        """Project a row's pre-tick laser view into its bank object."""
        bank = self.routers[r].laser
        bank._state = self._states[int(self.state_idx[r])]
        pi = int(self.pending_idx[r])
        if pi >= 0:
            bank._pending_state = self._states[pi]
            bank._stabilize_remaining = int(self.stab_end[r]) - cycle
        else:
            bank._pending_state = None
            bank._stabilize_remaining = 0

    def _laser_from_bank(self, r: int, cycle: int) -> None:
        bank = self.routers[r].laser
        self.state_idx[r] = self._sidx[bank._state]
        if bank._pending_state is not None:
            self.pending_idx[r] = self._sidx[bank._pending_state]
            self.stab_end[r] = cycle + bank._stabilize_remaining
            self._tx_ok[r] = False
        else:
            self.pending_idx[r] = -1
            self.stab_end[r] = 0
            self._tx_ok[r] = not self._link_down[r]
        self._ser_now[r] = self._ser_by_idx[int(self.state_idx[r])]

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
        for r in np.nonzero(self._fault_next <= cycle)[0].tolist():
            router = self.routers[r]
            injector = router._fault_injector
            self._settle_laser_row(r, cycle)
            self._laser_to_bank(r, cycle)
            if injector.advance_to(cycle):
                router._request_laser_state(router._desired_state, cycle)
            self._laser_from_bank(r, cycle)
            event = injector.next_event()
            self._fault_next[r] = _FAR if event is None else event
            self._link_down[r] = injector.link_down
            self._tx_ok[r] = (
                int(self.stab_end[r]) == 0 and not injector.link_down
            )
        self._next_fault = int(self._fault_next.min())
        self._recompute_next_flip()

    # -- window boundary ----------------------------------------------------------

    def _close_boundary(self, cycle: int) -> None:
        """Freeze the closing rows and run the shared close path.

        Each closing row's label, Table III row and Buf_w mean come
        straight from its counters and integrals (through the same
        :func:`~repro.ml.features.window_row` the reference engine's
        collectors use), and :meth:`PearlNetwork._close_windows` is the
        code the reference engine runs, so policy/RNG/ML behaviour is
        identical by construction.  Only the laser view round-trips
        through the bank objects the policies drive.
        """
        rows = np.nonzero((cycle - self.off) % self.win == 0)[0].tolist()
        closers: List = []
        frozen: List = []
        for r in rows:
            if self._obs_tally:
                # The close flushes the split dict; the scalar engine
                # tallies cycle ``cycle`` *after* its close (transmit
                # phase), so credit only up to ``cycle`` here.
                self._settle_dba_row(r, cycle)
                self._flush_dba_row(r)
            self._settle_laser_row(r, cycle)
            self._laser_to_bank(r, cycle)
            self._settle_link_row(r, cycle)
            self._settle_occ_row(r, cycle + 1)
            sums = self._occ_sums[r]
            samples = cycle - self._occ_base[r]
            row = window_row(
                self._is_l3[r],
                sums,
                self._feat_caps[r],
                samples,
                self._feat_link_busy[r],
                cycle - self._link_base[r],
                (
                    self._f_core[r],
                    self._f_other[r],
                    self._f_cores[r],
                    self._f_qs[r],
                    self._f_qr[r],
                    self._f_ps[r],
                    self._f_pr[r],
                ),
                self._f_qlvl[r],
                self._f_plvl[r],
                self._states[int(self.state_idx[r])],
            )
            frozen.append(
                (
                    float(self._f_netinj[r]),
                    row,
                    input_buffer_mean(
                        sums[0], sums[2], self._in_caps[r], samples
                    ),
                )
            )
            closers.append(self.routers[r])
            # Open the next window.
            self._occ_sums[r] = [0, 0, 0, 0]
            self._feat_link_busy[r] = 0
            self._occ_base[r] = cycle
            self._link_base[r] = cycle
            self._f_core[r] = 0
            self._f_other[r] = 0
            self._f_cores[r] = 0
            self._f_netinj[r] = 0
            self._f_qs[r] = 0
            self._f_ps[r] = 0
            self._f_qr[r] = 0
            self._f_pr[r] = 0
            self._f_qlvl[r] = [0] * 8
            self._f_plvl[r] = [0] * 8
        self.net._close_windows(closers, frozen, cycle)
        for r in rows:
            self._laser_from_bank(r, cycle)
            self._refresh_dba_pin(r)
        self._recompute_next_flip()
        nxt = cycle + self.win - (cycle - self.off) % self.win
        self._next_boundary = int(nxt.min())

    # -- packet plumbing -----------------------------------------------------------

    def _inject(self, r: int, packet, cycle: int) -> bool:
        """Inlined router.inject + stats.on_injected (bit-identical)."""
        # Settle the DBA tally before the pool mutation: the split
        # for cycle ``cycle`` is decided by the *post*-injection
        # occupancy (transmit-phase view), so credit stops here.
        # Fully inlined _settle_dba_row/_dba_label_idx for the
        # injection hot path; the empty-pool case (first packet
        # after a quiet span) skips the label divisions entirely,
        # and a bare run never passes the guard (_FAR sentinel).
        settled = self._dba_settled[r]
        if settled < cycle:
            self._dba_settled[r] = cycle
            sc = self._s_cpu[r]
            sg = self._s_gpu[r]
            pin = self._dba_pin_idx[r]
            if pin >= 0:
                idx = pin
            elif not (sc or sg):
                idx = self._dba_empty_idx[r]
            elif not self._dba_dyn[r]:
                idx = 4  # even
            else:
                co = sc / self._cap_cpu[r]
                go = sg / self._cap_gpu[r]
                if go == 0.0 and co > 0.0:
                    idx = 0  # all_cpu
                elif co == 0.0 and go > 0.0:
                    idx = 1  # all_gpu
                elif go < self._dba_gub[r]:
                    idx = 2  # cpu_major
                elif co < self._dba_cub[r]:
                    idx = 3  # gpu_major
                else:
                    idx = 4  # even
            self._dba_icnt[r][idx] += cycle - settled
        if self._occ_settled[r] < cycle:
            self._settle_occ_row(r, cycle)
        flits = packet.size_flits
        if packet.core_type is CoreType.CPU:
            pool = self._cpu_pool[r]
            if flits > pool.capacity_slots - pool._occupied_slots:
                return False
            queue = pool._queue
            if not queue:
                self._cpu_has[r] = True
                self._cpu_hl[r] = packet.source == packet.destination
            queue.append(packet)
            pool._occupied_slots += flits
            self._s_cpu[r] += flits
            counter = self._cnt_cpu
        else:
            pool = self._gpu_pool[r]
            if flits > pool.capacity_slots - pool._occupied_slots:
                return False
            queue = pool._queue
            if not queue:
                self._gpu_has[r] = True
                self._gpu_hl[r] = packet.source == packet.destination
            queue.append(packet)
            pool._occupied_slots += flits
            self._s_gpu[r] += flits
            counter = self._cnt_gpu
        packet.injected_cycle = cycle
        # features.on_injected, inlined:
        self._f_cores[r] += 1
        if packet.source != packet.destination:
            self._f_netinj[r] += 1
        if packet.packet_class is PacketClass.REQUEST:
            self._f_qs[r] += 1
            self._f_qlvl[r][packet.cache_level.table_index] += 1
        else:
            self._f_ps[r] += 1
            self._f_plvl[r][packet.cache_level.table_index] += 1
        # stats.on_injected, inlined:
        counter.packets_injected += 1
        counter.flits_injected += flits
        return True

    def _reinject(self, r: int, packet, cycle: int) -> bool:
        """Inlined router.reinject: head-of-line retry, no run stats."""
        # Same settle-before-mutate as _inject (_FAR sentinel when off).
        settled = self._dba_settled[r]
        if settled < cycle:
            self._dba_settled[r] = cycle
            if self._dba_pin_idx[r] >= 0:
                idx = self._dba_pin_idx[r]
            elif self._s_cpu[r] or self._s_gpu[r]:
                idx = self._dba_label_idx(r)
            else:
                idx = self._dba_empty_idx[r]
            self._dba_icnt[r][idx] += cycle - settled
        if self._occ_settled[r] < cycle:
            self._settle_occ_row(r, cycle)
        flits = packet.size_flits
        if packet.core_type is CoreType.CPU:
            pool = self._cpu_pool[r]
            if flits > pool.capacity_slots - pool._occupied_slots:
                return False
            pool._queue.appendleft(packet)
            pool._occupied_slots += flits
            self._s_cpu[r] += flits
            self._cpu_has[r] = True
            self._cpu_hl[r] = packet.source == packet.destination
        else:
            pool = self._gpu_pool[r]
            if flits > pool.capacity_slots - pool._occupied_slots:
                return False
            pool._queue.appendleft(packet)
            pool._occupied_slots += flits
            self._s_gpu[r] += flits
            self._gpu_has[r] = True
            self._gpu_hl[r] = packet.source == packet.destination
        self._f_cores[r] += 1
        if packet.source != packet.destination:
            self._f_netinj[r] += 1
        if packet.packet_class is PacketClass.REQUEST:
            self._f_qs[r] += 1
            self._f_qlvl[r][packet.cache_level.table_index] += 1
        else:
            self._f_ps[r] += 1
            self._f_plvl[r][packet.cache_level.table_index] += 1
        return True

    # -- one cycle -------------------------------------------------------------------

    def step(self, cycle: int, cursor: Optional[TraceCursor] = None) -> None:
        """Advance the network by one cycle (array semantics).

        Phase order matches :meth:`PearlNetwork.step` exactly; phases
        that the scalar engine runs per-router become masked loops or
        lazy settlements here.
        """
        net = self.net
        routers = self.routers
        backlogs = net._injection_backlog
        responses = net._responses
        in_flight = net._in_flight
        heappop = heapq.heappop
        fault_context = net._fault_context
        # 0. CRC retransmissions re-enter their source pool head-of-line.
        if fault_context is not None:
            retransmits = net._retransmits
            retry_backlogs = net._retransmit_backlog
            for r, retry_backlog in enumerate(retry_backlogs):
                if retry_backlog:
                    while retry_backlog and self._reinject(
                        r, retry_backlog[0], cycle
                    ):
                        retry_backlog.popleft()
            while retransmits and retransmits[0][0] <= cycle:
                _, _, packet = heappop(retransmits)
                r = packet.source
                retry_backlog = retry_backlogs[r]
                if retry_backlog or not self._reinject(r, packet, cycle):
                    retry_backlog.append(packet)
                self._work += 1
        # 1. Retry backlogged injections (net-zero for the work counter).
        #    Only rows whose pool lost slots since the head last blocked
        #    (``_bl_ready``) are visited; everyone else would fail the
        #    same capacity check they failed before.  The slot shadows
        #    precheck the head so even a visited-but-still-blocked row
        #    costs a couple of compares instead of a failed inject call.
        inject = self._inject
        bl_ready = self._bl_ready
        if bl_ready:
            CPU = CoreType.CPU
            s_cpu = self._s_cpu
            s_gpu = self._s_gpu
            cap_cpu = self._cap_cpu
            cap_gpu = self._cap_gpu
            for r in sorted(bl_ready):
                backlog = backlogs[r]
                while backlog:
                    head = backlog[0]
                    if head.core_type is CPU:
                        if head.size_flits > cap_cpu[r] - s_cpu[r]:
                            break
                    elif head.size_flits > cap_gpu[r] - s_gpu[r]:
                        break
                    inject(r, head, cycle)
                    backlog.popleft()
            bl_ready.clear()
        # 2. Ready responses.
        while responses and responses[0][0] <= cycle:
            _, _, r, packet = heappop(responses)
            backlog = backlogs[r]
            if backlog or not inject(r, packet, cycle):
                backlog.append(packet)
            self._work += 1
        # 3. New trace events.
        if cursor is not None:
            for packet in cursor.pop_packets(cycle):
                r = packet.source
                backlog = backlogs[r]
                if backlog or not inject(r, packet, cycle):
                    backlog.append(packet)
                self._work += 1
        # 4. Control planes.  Pending laser flips whose integral
        #    boundary has passed land first (they are the pre-tick
        #    state view the closes and fault clamps read)...
        if self._next_flip <= cycle:
            self._apply_flips(cycle)
        if self._has_faults and self._next_fault <= cycle:
            self._fault_prepass(cycle)
        #    ... then the window closes on this cycle's boundary (this
        #    cycle's occupancy observation is settled lazily)...
        if cycle == self._next_boundary:
            self._close_boundary(cycle)
        #    ... and finally the transitions that complete during this
        #    cycle's (lazy) laser tick: the transmit phase below must
        #    already see the new state, exactly as after the scalar
        #    ``laser.tick()``.
        if self._next_flip == cycle + 1:
            self._apply_flips(cycle + 1)
        # 5. Transmissions, masked to routers whose pool head can move:
        #    a photonic engine is free, or the head is local and the
        #    crossbar is free.  Blocked heads (busy engines, zero
        #    fraction, stabilizing laser) are provably no-ops.
        if self._work:
            rows = []
            append = rows.append
            cpu_has = self._cpu_has
            gpu_has = self._gpu_has
            cpu_free = self._cpu_free
            gpu_free = self._gpu_free
            cpu_hl = self._cpu_hl
            gpu_hl = self._gpu_hl
            loc = self._loc_busy
            for r in range(self.n):
                if cpu_has[r] and (
                    cpu_free[r] <= cycle or (cpu_hl[r] and loc[r] <= cycle)
                ):
                    append(r)
                elif gpu_has[r] and (
                    gpu_free[r] <= cycle or (gpu_hl[r] and loc[r] <= cycle)
                ):
                    append(r)
            if rows:
                self._transmit_rows(rows, cycle, in_flight)
        # 6. Arrivals (CRC-checked when a bit-error schedule is active).
        if in_flight and in_flight[0][0] <= cycle:
            f_other = self._f_other
            f_qr = self._f_qr
            f_pr = self._f_pr
            f_qlvl = self._f_qlvl
            f_plvl = self._f_plvl
            REQ = PacketClass.REQUEST
            CPU = CoreType.CPU
            ej_cpu = self._ej_cpu
            ej_gpu = self._ej_gpu
            s_ejc = self._s_ejc
            s_ejg = self._s_ejg
            ej_rows = self._ej_rows
            occ_settled = self._occ_settled
            settle_occ = self._settle_occ_row
            cycle_next = cycle + 1
            pushed = 0
            while in_flight and in_flight[0][0] <= cycle:
                entry = heappop(in_flight)
                if len(entry) == 4:
                    _, _, packet, src = entry
                else:
                    transmission = entry[2]
                    packet = transmission.packet
                    src = transmission.source_router
                r = packet.destination
                if packet.source != r:
                    if fault_context is not None and fault_context.corrupts(
                        src, packet.size_flits, cycle
                    ):
                        net._handle_crc_error(packet, cycle)
                        continue
                    # features.on_received, inlined:
                    f_other[r] += 1
                    if packet.packet_class is REQ:
                        f_qr[r] += 1
                        f_qlvl[r][packet.cache_level.table_index] += 1
                    else:
                        f_pr[r] += 1
                        f_plvl[r][packet.cache_level.table_index] += 1
                # _push_ej, inlined (local delivery skips CRC/features):
                if occ_settled[r] <= cycle:
                    settle_occ(r, cycle_next)
                flits = packet.size_flits
                if packet.core_type is CPU:
                    pool = ej_cpu[r]
                    if flits <= pool.capacity_slots - pool._occupied_slots:
                        pool._queue.append(packet)
                        pool._occupied_slots += flits
                        s_ejc[r] += flits
                    else:
                        routers[r]._ejection_backlog.append(packet)
                else:
                    pool = ej_gpu[r]
                    if flits <= pool.capacity_slots - pool._occupied_slots:
                        pool._queue.append(packet)
                        pool._occupied_slots += flits
                        s_ejg[r] += flits
                    else:
                        routers[r]._ejection_backlog.append(packet)
                pushed += 1
                ej_rows.add(r)
            self._work += pushed
        # 7. Ejection to cores, masked to routers with ejection work.
        if self._ej_rows:
            self._drain_rows(cycle)

    def _transmit_rows(self, rows, cycle: int, in_flight) -> None:
        """Scalar :meth:`PearlRouter.transmit` over the candidate rows.

        Non-candidate routers are provably no-ops: an empty pool pops
        nothing, a busy engine blocks the photonic head, the allocator
        is pure, and the link-busy sample they would have recorded is
        reconstructed lazily from the engine-busy maxima.  The DBA
        decision is inlined (same branch order as
        :meth:`DynamicBandwidthAllocator._decide` on the same int/int
        occupancy divisions, so the fractions are bit-identical).
        """
        net = self.net
        ceil = math.ceil
        heappush = heapq.heappush
        sequence = net._sequence
        lvl = LOCAL_CROSSBAR_CYCLES
        overhead = PIPELINE_OVERHEAD_CYCLES
        s_cpu = self._s_cpu
        s_gpu = self._s_gpu
        cap_cpu = self._cap_cpu
        cap_gpu = self._cap_gpu
        dba_dyn = self._dba_dyn
        dba_gub = self._dba_gub
        dba_cub = self._dba_cub
        dba_major = self._dba_major
        dba_minor = self._dba_minor
        tx_ok = self._tx_ok
        ser_now = self._ser_now
        local_engs = self._local_eng
        routers = self.routers
        tx_info = self._tx_info
        emax = self._emax
        q_cpu = self._q_cpu
        q_gpu = self._q_gpu
        cpu_has = self._cpu_has
        cpu_hl = self._cpu_hl
        gpu_has = self._gpu_has
        gpu_hl = self._gpu_hl
        backlogs = self._backlogs
        bl_ready = self._bl_ready
        link_settled = self._link_settled
        feat_link_busy = self._feat_link_busy
        stats = self._stats
        cpu_engs = self._cpu_eng
        gpu_engs = self._gpu_eng
        cpu_free = self._cpu_free
        gpu_free = self._gpu_free
        obs_tally = self._obs_tally
        dba_settled = self._dba_settled
        dba_icnt = self._dba_icnt
        cycle_next = cycle + 1
        dba_pin_idx = self._dba_pin_idx
        dba_pin_cf = self._dba_pin_cf
        dba_pin_gf = self._dba_pin_gf
        occ_settled = self._occ_settled
        occ_sums = self._occ_sums
        s_ejc = self._s_ejc
        s_ejg = self._s_ejg
        for r in rows:
            # Slots this row's occupancy observation saw at ``cycle``:
            # credited below if the row pops.
            sc = s_cpu[r]
            sg = s_gpu[r]
            # The branch also labels the decision for the DBA split
            # tally (idx indexes _DBA_LABELS) so the instrumented path
            # never re-runs these comparisons.
            if dba_pin_idx[r] >= 0:  # D3NOC window pin
                cf = dba_pin_cf[r]
                gf = dba_pin_gf[r]
                idx = dba_pin_idx[r]
            elif dba_dyn[r]:
                co = sc / cap_cpu[r]
                go = sg / cap_gpu[r]
                if go == 0.0 and co > 0.0:
                    cf = 1.0
                    gf = 0.0
                    idx = 0  # all_cpu
                elif co == 0.0 and go > 0.0:
                    cf = 0.0
                    gf = 1.0
                    idx = 1  # all_gpu
                elif go < dba_gub[r]:
                    cf = dba_major[r]
                    gf = dba_minor[r]
                    idx = 2  # cpu_major
                elif co < dba_cub[r]:
                    cf = dba_minor[r]
                    gf = dba_major[r]
                    idx = 3  # gpu_major
                else:
                    cf = 0.5
                    gf = 0.5
                    idx = 4  # even
            else:
                cf = gf = 0.5
                idx = 4  # even
            if obs_tally:
                # Transmit is where the scalar engine tallies cycle
                # ``cycle`` (post-injection, pre-pop occupancy — the
                # very co/go this row just computed), so credit
                # through ``cycle`` inclusive before any pops.
                settled = dba_settled[r]
                if settled < cycle_next:
                    dba_settled[r] = cycle_next
                    dba_icnt[r][idx] += cycle_next - settled
            can_transmit = tx_ok[r]
            serialization = ser_now[r]
            local_engine = local_engs[r]
            router = routers[r]
            old_max = emax[r]
            popped = 0
            dispatched = False
            local_used = False
            for pool, engines, is_cpu in tx_info[r]:
                queue = pool._queue
                while queue:
                    head = queue[0]
                    if head.source == head.destination:
                        if cycle < local_engine.busy_until:
                            break
                        queue.popleft()
                        flits = head.size_flits
                        pool._occupied_slots -= flits
                        if is_cpu:
                            s_cpu[r] -= flits
                        else:
                            s_gpu[r] -= flits
                        popped += 1
                        local_used = True
                        local_engine.busy_until = cycle + 1
                        sequence += 1
                        heappush(
                            in_flight, (cycle + lvl, sequence, head, r)
                        )
                        continue
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
                    queue.popleft()
                    flits = head.size_flits
                    pool._occupied_slots -= flits
                    if is_cpu:
                        s_cpu[r] -= flits
                    else:
                        s_gpu[r] -= flits
                    popped += 1
                    dispatched = True
                    serialize = int(ceil(serialization * flits / fraction))
                    engine.busy_until = cycle + serialize
                    router.reservations_sent += 1
                    sequence += 1
                    heappush(
                        in_flight,
                        (cycle + serialize + overhead, sequence, head, r),
                    )
            if popped:
                # _settle_occ_row(r, cycle + 1) on the pre-pop slots
                # (the ejection pools do not change in this phase):
                settled = occ_settled[r]
                if settled < cycle_next:
                    d = cycle_next - settled
                    occ_settled[r] = cycle_next
                    sums = occ_sums[r]
                    sums[0] += sc * d
                    sums[1] += s_ejc[r] * d
                    sums[2] += sg * d
                    sums[3] += s_ejg[r] * d
                self._work -= popped
                if backlogs[r]:
                    bl_ready.add(r)
                queue = q_cpu[r]
                if queue:
                    head = queue[0]
                    cpu_has[r] = True
                    cpu_hl[r] = head.source == head.destination
                else:
                    cpu_has[r] = False
                queue = q_gpu[r]
                if queue:
                    head = queue[0]
                    gpu_has[r] = True
                    gpu_hl[r] = head.source == head.destination
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
                # _refresh_engines, inlined (single-engine fast path):
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
            if local_used:
                self._loc_busy[r] = local_engine.busy_until
        net._sequence = sequence

    def _drain_rows(self, cycle: int) -> None:
        """Scalar :meth:`PearlRouter.drain_ejection` over active rows.

        ``stats.on_delivered`` and ``features.on_delivered_to_core``
        are inlined; the latency list is re-fetched per call because
        ``begin_measurement`` *replaces* it.
        """
        stats = self._stats
        lat_append = stats._latencies.append
        cnt_cpu = self._cnt_cpu
        cnt_gpu = self._cnt_gpu
        schedule = self.net._schedule_response
        CPU = CoreType.CPU
        REQ = PacketClass.REQUEST
        routers = self.routers
        ej_cpu = self._ej_cpu
        ej_gpu = self._ej_gpu
        s_ejc = self._s_ejc
        s_ejg = self._s_ejg
        q_ejc = self._q_ejc
        q_ejg = self._q_ejg
        ej_info = self._ej_info
        f_core = self._f_core
        active = self._ej_rows
        rows = tuple(active) if len(active) == 1 else sorted(active)
        occ_settled = self._occ_settled
        settle_occ = self._settle_occ_row
        done = []
        for r in rows:
            if occ_settled[r] <= cycle:
                settle_occ(r, cycle + 1)
            router = routers[r]
            backlog = router._ejection_backlog
            if backlog:
                remaining: List = []
                for packet in backlog:
                    flits = packet.size_flits
                    if packet.core_type is CPU:
                        pool = ej_cpu[r]
                        if flits <= pool.capacity_slots - pool._occupied_slots:
                            pool._queue.append(packet)
                            pool._occupied_slots += flits
                            s_ejc[r] += flits
                        else:
                            remaining.append(packet)
                    else:
                        pool = ej_gpu[r]
                        if flits <= pool.capacity_slots - pool._occupied_slots:
                            pool._queue.append(packet)
                            pool._occupied_slots += flits
                            s_ejg[r] += flits
                        else:
                            remaining.append(packet)
                router._ejection_backlog = remaining
            drained = 0
            for pool, is_cpu in ej_info[r]:
                queue = pool._queue
                budget = EJECTION_DRAIN_PER_CYCLE
                while budget and queue:
                    budget -= 1
                    packet = queue.popleft()
                    flits = packet.size_flits
                    pool._occupied_slots -= flits
                    if is_cpu:
                        s_ejc[r] -= flits
                    else:
                        s_ejg[r] -= flits
                    # features.on_delivered_to_core, inlined:
                    f_core[r] += 1
                    # stats.on_delivered, inlined:
                    packet.received_cycle = cycle
                    counter = cnt_cpu if packet.core_type is CPU else cnt_gpu
                    counter.packets_delivered += 1
                    counter.flits_delivered += flits
                    latency = cycle - packet.created_cycle
                    counter.total_latency += latency
                    lat_append(latency)
                    if packet.source == packet.destination:
                        stats.local_packets_delivered += 1
                    else:
                        stats.network_flits_delivered += flits
                    if packet.packet_class is REQ:
                        schedule(packet, cycle)
                    drained += 1
            if drained:
                self._work -= drained
            if not q_ejc[r] and not q_ejg[r] and not router._ejection_backlog:
                done.append(r)
        for r in done:
            self._ej_rows.discard(r)

    # -- idle skipping --------------------------------------------------------------

    def _skip_horizon(
        self, cycle: int, end: int, cursor: Optional[TraceCursor]
    ) -> int:
        """First cycle in [cycle, end] that must execute in full.

        Only *externally scheduled* events bound the horizon: heap
        arrivals, trace events, window boundaries and fault
        transitions.  Laser flips and engine drains are integrated
        lazily (segment ledgers, link-busy spans), so a quiescent span
        may skip straight over them.
        """
        net = self.net
        horizon = end
        if cursor is not None:
            nxt = cursor.next_cycle()
            if nxt is not None and nxt < horizon:
                horizon = nxt
        if net._responses and net._responses[0][0] < horizon:
            horizon = net._responses[0][0]
        if net._in_flight and net._in_flight[0][0] < horizon:
            horizon = net._in_flight[0][0]
        if net._retransmits and net._retransmits[0][0] < horizon:
            horizon = net._retransmits[0][0]
        if self._next_boundary < horizon:
            horizon = self._next_boundary
        if self._has_faults and self._next_fault < horizon:
            horizon = self._next_fault
        return horizon if horizon > cycle else cycle

    def _advance(
        self, start: int, end: int, cursor: Optional[TraceCursor]
    ) -> None:
        """Advance cycles [start, end), skipping idle spans.

        Because every per-cycle integral is lazy, skipping a quiescent
        span costs *nothing* — the cycle counter jumps and the next
        settlement's closed form covers the gap exactly, so the O(1)
        quiescence probe (``work == 0``) runs after every cycle.
        """
        step = self.step
        cycle = start
        while cycle < end:
            step(cycle, cursor)
            cycle += 1
            if self._work == 0 and cycle < end:
                horizon = self._skip_horizon(cycle, end, cursor)
                if horizon > cycle:
                    cycle = horizon
        self._cycle = end

    # -- full-state import back into the router objects ---------------------------

    def sync_to_objects(self, cycle: Optional[int] = None) -> None:
        """Settle every array back into the router objects.

        After this call the network objects are exactly what the
        reference engine would have produced at the same point —
        ``ArrayCore(net, c).sync_to_objects(c)`` is the identity for
        any reachable (and any hypothesis-randomized) state.  In-flight
        heap entries are rebuilt in :class:`Transmission` form in place
        (their ``(arrival, sequence)`` keys are unchanged and sequences
        are unique, so the heap invariant is preserved without a
        re-heapify).
        """
        if cycle is None:
            cycle = self._cycle
        self._settle_links_all(cycle)
        # A flip inside a skipped idle tail has no later executed cycle
        # to land it, so split the ledgers at it before settling.
        self._apply_flips(cycle)
        self._settle_lasers_all(cycle)
        in_flight = self.net._in_flight
        for i, entry in enumerate(in_flight):
            if len(entry) == 4:
                arrival, seq, packet, src = entry
                in_flight[i] = (
                    arrival,
                    seq,
                    Transmission(
                        packet=packet,
                        arrival_cycle=arrival,
                        source_router=src,
                    ),
                )
        for r, router in enumerate(self.routers):
            if self._obs_tally:
                self._settle_dba_row(r, cycle)
                self._flush_dba_row(r)
            self._laser_to_bank(r, cycle)
            bank = router.laser
            bank.cycles_in_state = {
                s: int(self.in_state[r, i]) for i, s in enumerate(self._states)
            }
            bank._cycles_at_power = {
                s: int(self.at_power[r, i])
                for i, s in enumerate(self._states)
                if self.at_power[r, i]
            }
            bank.stall_cycles = int(self.stall[r])
            self._settle_occ_row(r, cycle)
            fc = router.features
            fc._occupancy_slot_cycles = list(self._occ_sums[r])
            fc._occupancy_samples = cycle - self._occ_base[r] - 1
            fc._link_busy_cycles = self._feat_link_busy[r]
            fc._link_samples = cycle - self._link_base[r]
            fc._sent_to_core = self._f_core[r]
            fc._incoming_other = self._f_other[r]
            fc._incoming_cores = self._f_cores[r]
            fc._network_injected = self._f_netinj[r]
            fc._requests_sent = self._f_qs[r]
            fc._responses_sent = self._f_ps[r]
            fc._requests_received = self._f_qr[r]
            fc._responses_received = self._f_pr[r]
            fc._requests_by_level = dict(
                zip(CACHE_LEVEL_ORDER, self._f_qlvl[r])
            )
            fc._responses_by_level = dict(
                zip(CACHE_LEVEL_ORDER, self._f_plvl[r])
            )

    # -- run ------------------------------------------------------------------------

    def run(self, trace: Trace):
        """Simulate warm-up plus measurement (mirrors ``_run_bare``)."""
        net = self.net
        sim = net.config.simulation
        cursor = TraceCursor(trace)
        self._advance(0, sim.warmup_cycles, cursor)
        self._begin_measurement(sim.warmup_cycles)
        self._advance(sim.warmup_cycles, sim.total_cycles, cursor)
        self._finish(sim.total_cycles)
        return net._result()

    def _begin_measurement(self, warmup: int) -> None:
        """Warm-up boundary: settle, reset integrals, re-anchor bases."""
        net = self.net
        self._settle_links_all(warmup)
        self._apply_flips(warmup)  # flips skipped before the boundary
        self._settle_lasers_all(warmup)
        net.stats.begin_measurement(warmup)
        for router in self.routers:
            router.reset_power_stats()
        net.memory.stats.busy_cycles = 0
        # ``begin_measurement``/``reset_power_stats`` zeroed the object
        # counters; zero the array ledgers to match (state/pending and
        # the open feature windows carry across, as in the scalar run).
        self.in_state[:] = 0
        self.at_power[:] = 0
        self.stall[:] = 0
        self._stats_link_base = warmup

    def _finish(self, total: int) -> None:
        self.sync_to_objects(total)
        self.net.stats.finish(total)
        self.net._integrate_energy()
