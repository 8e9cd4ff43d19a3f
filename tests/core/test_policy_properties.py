"""Property tests for the PROTEUS and D3NOC adaptation policies.

Two invariants hold by construction and are pinned here so refactors
cannot silently lose them (see ``docs/policies.md``):

* **PROTEUS monotonicity** — a strictly worse optical loss budget (or a
  strictly smaller laser budget) never selects a *higher* wavelength
  state at equal demand: required mW per wavelength is monotone in loss
  dB, so the loss cap can only fall.
* **D3NOC conservation** — however the reconfigurer pins the DBA split,
  the wavelengths granted to CPU plus GPU never exceed the surviving
  pool, the two shares are disjoint, and no wavelength on a link-down
  ring is ever allocated.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    ArchitectureConfig,
    DBAConfig,
    OpticalConfig,
    PearlConfig,
    PhotonicConfig,
    PowerScalingConfig,
)
from repro.core.d3noc import D3nocReconfigurer
from repro.core.dba import DynamicBandwidthAllocator, remap_wavelengths
from repro.core.ml_scaling import StateSelector
from repro.core.power_scaling import ClosedWindow
from repro.core.proteus import (
    DEFAULT_LASER_BUDGET_MW,
    ProteusPowerScaler,
    loss_capped_state,
)
from repro.core.wavelength import WavelengthLadder, wavelengths_for_share
from repro.ml.features import NUM_FEATURES
from repro.noc.packet import CoreType
from repro.noc.network import PearlNetwork
from repro.noc.photonic import LinkBudget
from repro.noc.router import PowerPolicyKind
from repro.noc.topology import ChipFloorplan, per_router_link_budget

LADDER = WavelengthLadder(PhotonicConfig())


def _budget(loss_db: float) -> LinkBudget:
    return LinkBudget(loss_db=loss_db, receiver_sensitivity_dbm=-20.0)


def _scaler(loss_db: float, budget_mw: float, use_8wl: bool):
    return ProteusPowerScaler(
        PowerScalingConfig(use_8wl=use_8wl),
        LADDER,
        _budget(loss_db),
        laser_budget_mw=budget_mw,
    )


class TestProteusMonotonicity:
    @given(
        loss_db=st.floats(min_value=0.5, max_value=40.0),
        extra_db=st.floats(min_value=0.01, max_value=20.0),
        budget_mw=st.floats(min_value=0.1, max_value=200.0),
        use_8wl=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_worse_loss_never_raises_the_cap(
        self, loss_db, extra_db, budget_mw, use_8wl
    ):
        better = loss_capped_state(
            _budget(loss_db), LADDER, budget_mw, use_8wl=use_8wl
        )
        worse = loss_capped_state(
            _budget(loss_db + extra_db), LADDER, budget_mw, use_8wl=use_8wl
        )
        assert worse <= better

    @given(
        loss_db=st.floats(min_value=0.5, max_value=40.0),
        budget_mw=st.floats(min_value=0.1, max_value=200.0),
        extra_mw=st.floats(min_value=0.01, max_value=100.0),
        use_8wl=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_bigger_laser_budget_never_lowers_the_cap(
        self, loss_db, budget_mw, extra_mw, use_8wl
    ):
        small = loss_capped_state(
            _budget(loss_db), LADDER, budget_mw, use_8wl=use_8wl
        )
        large = loss_capped_state(
            _budget(loss_db), LADDER, budget_mw + extra_mw, use_8wl=use_8wl
        )
        assert large >= small

    @given(
        loss_db=st.floats(min_value=0.5, max_value=40.0),
        extra_db=st.floats(min_value=0.01, max_value=20.0),
        budget_mw=st.floats(min_value=0.1, max_value=200.0),
        occupancy=st.floats(min_value=0.0, max_value=1.0),
        use_8wl=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_worse_budget_never_selects_higher_state_at_equal_demand(
        self, loss_db, extra_db, budget_mw, occupancy, use_8wl
    ):
        """The full scaler: demand fixed, loss strictly worse -> the
        selected state cannot rise."""
        better = _scaler(loss_db, budget_mw, use_8wl)
        worse = _scaler(loss_db + extra_db, budget_mw, use_8wl)
        assert worse.select_state(occupancy) <= better.select_state(occupancy)
        # Both saw the identical demand proposal; only the cap differed.
        assert worse.proposed == better.proposed

    @given(
        loss_db=st.floats(min_value=0.5, max_value=40.0),
        budget_mw=st.floats(min_value=0.1, max_value=200.0),
        occupancy=st.floats(min_value=0.0, max_value=1.0),
        use_8wl=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_selection_stays_on_the_allowed_ladder(
        self, loss_db, budget_mw, occupancy, use_8wl
    ):
        scaler = _scaler(loss_db, budget_mw, use_8wl)
        state = scaler.select_state(occupancy)
        allowed = (
            LADDER.states if use_8wl else LADDER.states_without_lowest()
        )
        assert state in allowed
        assert state <= scaler.max_state


class TestProteusNetworkCaps:
    """A network builds one floorplan for all its PROTEUS routers; each
    router's loss cap must equal the cap of a router that builds its
    own floorplan, as every router did before."""

    @pytest.mark.parametrize(
        "clusters, signaling, db_per_cm",
        [
            (16, "nrz", 1.0),  # the default die: 64 WL everywhere
            (16, "pam4", 1.0),  # caps of 16 and 32 WL
            (16, "pam4", 4.0),
            (4, "nrz", 9.0),  # caps of 16 and 48 WL
        ],
    )
    def test_caps_equal_the_per_router_build(
        self, clusters, signaling, db_per_cm
    ):
        config = PearlConfig(
            architecture=ArchitectureConfig(num_clusters=clusters),
            optical=OpticalConfig(waveguide_db_per_cm=db_per_cm),
        )
        config = config.replace(
            photonic=replace(config.photonic, signaling=signaling)
        )
        network = PearlNetwork(config, power_policy=PowerPolicyKind.PROTEUS)
        caps = [router.policy.max_state for router in network.routers]
        expected = [
            loss_capped_state(
                per_router_link_budget(
                    ChipFloorplan(config.architecture),
                    config.optical,
                    source=router_id,
                    photonic=config.photonic,
                ),
                WavelengthLadder(config.photonic),
                DEFAULT_LASER_BUDGET_MW,
                use_8wl=config.power_scaling.use_8wl,
            )
            for router_id in range(config.architecture.num_routers)
        ]
        assert len(caps) == clusters + 1
        assert caps == expected


def _reconfigurer(window=200, allocator=None):
    return D3nocReconfigurer(
        StateSelector(PhotonicConfig(), reservation_window=window),
        DBAConfig(),
        allocator=allocator,
    )


def _snapshot(cpu_util: float, gpu_util: float) -> np.ndarray:
    snap = np.zeros(NUM_FEATURES)
    snap[1] = cpu_util
    snap[3] = gpu_util
    return snap


def _close(recon, label, cpu_util, gpu_util, max_state=None) -> int:
    row = _snapshot(cpu_util, gpu_util)
    return recon.close_window(ClosedWindow(0, label, row, 0.0, max_state))


@st.composite
def window_histories(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    return [
        (
            draw(st.floats(min_value=0.0, max_value=400.0)),
            draw(st.floats(min_value=0.0, max_value=1.0)),
            draw(st.floats(min_value=0.0, max_value=1.0)),
        )
        for _ in range(n)
    ]


class TestD3nocConservation:
    @given(
        history=window_histories(),
        down=st.sets(st.integers(min_value=0, max_value=63), max_size=48),
    )
    @settings(max_examples=150, deadline=None)
    def test_pinned_split_never_allocates_downed_rings(self, history, down):
        """Drive a reconfigurer through random windows, pin each split on
        a real allocator, and remap over the surviving rings: the CPU and
        GPU shares are disjoint, within the pool, and never touch a ring
        the fault layer took down."""
        allocator = DynamicBandwidthAllocator(DBAConfig())
        recon = _reconfigurer(allocator=allocator)
        surviving = tuple(sorted(set(range(64)) - down))
        for label, cpu_util, gpu_util in history:
            _close(recon, label, cpu_util, gpu_util)
            assert allocator.pinned_label == recon.split_history[-1]
            allocation = allocator.allocate_from_buffers(None)
            assigned = remap_wavelengths(allocation, surviving)
            cpu = set(assigned[CoreType.CPU])
            gpu = set(assigned[CoreType.GPU])
            assert not cpu & gpu
            assert len(cpu) + len(gpu) <= len(surviving)
            assert cpu <= set(surviving) and gpu <= set(surviving)
            assert not cpu & down and not gpu & down

    @given(history=window_histories())
    @settings(max_examples=150, deadline=None)
    def test_share_wavelengths_never_exceed_the_state(self, history):
        allocator = DynamicBandwidthAllocator(DBAConfig())
        recon = _reconfigurer(allocator=allocator)
        for label, cpu_util, gpu_util in history:
            state = _close(recon, label, cpu_util, gpu_util)
            allocation = allocator.allocate_from_buffers(None)
            total = wavelengths_for_share(
                state, allocation.cpu_fraction
            ) + wavelengths_for_share(state, allocation.gpu_fraction)
            assert total <= state

    @given(
        history=window_histories(),
        max_state=st.sampled_from([8, 16, 32, 48, 64]),
    )
    @settings(max_examples=100, deadline=None)
    def test_fault_cap_bounds_the_state(self, history, max_state):
        """With a fault-derived cap every decision stays at or under it
        (the cap is how link-down rings shrink the usable ladder)."""
        recon = _reconfigurer()
        for label, cpu_util, gpu_util in history:
            state = _close(recon, label, cpu_util, gpu_util, max_state)
            assert state <= max_state

    @given(history=window_histories())
    @settings(max_examples=100, deadline=None)
    def test_ewma_bounded_by_observed_labels(self, history):
        recon = _reconfigurer()
        labels = []
        for label, cpu_util, gpu_util in history:
            labels.append(label)
            _close(recon, label, cpu_util, gpu_util)
            assert (
                min(labels) - 1e-9
                <= recon.demand_ewma
                <= max(labels) + 1e-9
            )

    def test_unknown_split_label_rejected(self):
        allocator = DynamicBandwidthAllocator(DBAConfig())
        with pytest.raises(ValueError):
            allocator.pin_split("most_cpu")

    def test_unpin_restores_combinational_decisions(self):
        allocator = DynamicBandwidthAllocator(DBAConfig())
        allocator.pin_split("all_gpu")
        assert allocator.pinned_label == "all_gpu"
        allocator.pin_split(None)
        assert allocator.pinned is None
