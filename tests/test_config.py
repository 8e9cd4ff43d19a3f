"""Tests for repro.config — paper constants and validation."""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro.config
from repro.config import (
    ArchitectureConfig,
    AreaConfig,
    CMeshConfig,
    DBAConfig,
    MLConfig,
    OpticalConfig,
    PearlConfig,
    PhotonicConfig,
    PowerScalingConfig,
    ResilienceConfig,
    SimulationConfig,
)


class TestArchitectureConfig:
    def test_table1_core_counts(self):
        arch = ArchitectureConfig()
        assert arch.num_cpus == 32
        assert arch.num_gpus == 64

    def test_table1_frequencies(self):
        arch = ArchitectureConfig()
        assert arch.cpu_frequency_ghz == 4.0
        assert arch.gpu_frequency_ghz == 2.0
        assert arch.network_frequency_ghz == 2.0

    def test_table1_caches(self):
        arch = ArchitectureConfig()
        assert arch.cpu_l1i_kb == 32
        assert arch.cpu_l1d_kb == 64
        assert arch.cpu_l2_kb == 256
        assert arch.gpu_l1_kb == 64
        assert arch.gpu_l2_kb == 512
        assert arch.l3_mb == 8
        assert arch.main_memory_gb == 16

    def test_router_count_includes_l3(self):
        arch = ArchitectureConfig()
        assert arch.num_routers == 17
        assert arch.l3_router_id == 16

    def test_network_cycle_duration(self):
        assert ArchitectureConfig().network_cycle_ns == pytest.approx(0.5)

    def test_rejects_zero_clusters(self):
        with pytest.raises(ValueError):
            ArchitectureConfig(num_clusters=0)

    def test_rejects_zero_frequency(self):
        with pytest.raises(ValueError):
            ArchitectureConfig(network_frequency_ghz=0)

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            ArchitectureConfig(cpus_per_cluster=0)

    def test_custom_cluster_count(self):
        arch = ArchitectureConfig(num_clusters=4)
        assert arch.num_routers == 5
        assert arch.l3_router_id == 4


class TestAreaConfig:
    def test_table2_values(self):
        area = AreaConfig()
        assert area.cluster_mm2 == 25.0
        assert area.router_mm2 == 0.342
        assert area.laser_per_router_mm2 == 0.312
        assert area.dynamic_allocation_mm2 == 0.576
        assert area.machine_learning_mm2 == 0.018

    def test_total_scales_with_clusters(self):
        area = AreaConfig()
        assert area.total_mm2(16) > area.total_mm2(8)

    def test_total_includes_shared_components(self):
        area = AreaConfig()
        shared_only = area.total_mm2(0)
        assert shared_only == pytest.approx(
            area.optical_components_mm2
            + area.l3_cache_mm2
            + area.dynamic_allocation_mm2
            + area.machine_learning_mm2
        )


class TestOpticalConfig:
    def test_table5_losses(self):
        opt = OpticalConfig()
        assert opt.modulator_insertion_db == 1.0
        assert opt.coupler_db == 1.0
        assert opt.splitter_db == 0.2
        assert opt.filter_drop_db == 1.5
        assert opt.photodetector_db == 0.1
        assert opt.receiver_sensitivity_dbm == -15.0

    def test_table5_ring_powers(self):
        opt = OpticalConfig()
        assert opt.ring_heating_w == pytest.approx(26e-6)
        assert opt.ring_modulating_w == pytest.approx(500e-6)

    def test_link_loss_is_sum_of_components(self):
        opt = OpticalConfig()
        loss = opt.link_loss_db()
        assert loss > opt.waveguide_db_per_cm * opt.waveguide_length_cm
        assert loss == pytest.approx(
            1.0 + 6.0 + 1.0 + 0.2 + 0.001 * 64 + 1.5 + 0.1
        )


class TestPhotonicConfig:
    def test_paper_laser_powers(self):
        ph = PhotonicConfig()
        assert ph.state_power(64) == pytest.approx(1.16)
        assert ph.state_power(48) == pytest.approx(0.871)
        assert ph.state_power(32) == pytest.approx(0.581)
        assert ph.state_power(16) == pytest.approx(0.29)
        assert ph.state_power(8) == pytest.approx(0.145)

    def test_serialization_cycles_match_section_3c(self):
        ph = PhotonicConfig()
        assert ph.state_serialization_cycles(64) == 2
        assert ph.state_serialization_cycles(48) == 4
        assert ph.state_serialization_cycles(32) == 4
        assert ph.state_serialization_cycles(16) == 8

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError):
            PhotonicConfig().state_power(24)

    def test_turn_on_cycles_2ns_at_2ghz(self):
        assert PhotonicConfig().turn_on_cycles(2.0) == 4

    def test_turn_on_cycles_rounds_up(self):
        assert PhotonicConfig(laser_turn_on_ns=2.1).turn_on_cycles(2.0) == 5

    def test_states_must_descend(self):
        with pytest.raises(ValueError):
            PhotonicConfig(
                wavelength_states=(8, 16, 32, 48, 64),
                laser_power_w=(0.1, 0.2, 0.3, 0.4, 0.5),
                serialization_cycles=(16, 8, 4, 4, 2),
            )

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            PhotonicConfig(wavelength_states=(64, 32), laser_power_w=(1.0,))

    def test_negative_turn_on_rejected(self):
        with pytest.raises(ValueError):
            PhotonicConfig(laser_turn_on_ns=-1.0)


class TestDBAConfig:
    def test_paper_upper_bounds(self):
        dba = DBAConfig()
        assert dba.cpu_upper_bound == pytest.approx(0.16)
        assert dba.gpu_upper_bound == pytest.approx(0.06)

    def test_paper_step_granularity(self):
        assert DBAConfig().bandwidth_step == 0.25

    @pytest.mark.parametrize("step", [0.0625, 0.125, 0.25])
    def test_paper_evaluated_steps_accepted(self, step):
        assert DBAConfig(bandwidth_step=step).bandwidth_step == step

    def test_arbitrary_step_rejected(self):
        with pytest.raises(ValueError):
            DBAConfig(bandwidth_step=0.3)

    @pytest.mark.parametrize("bound", [0.0, 1.0, -0.1, 1.5])
    def test_out_of_range_bounds_rejected(self, bound):
        with pytest.raises(ValueError):
            DBAConfig(cpu_upper_bound=bound)


class TestPowerScalingConfig:
    def test_thresholds_descending(self):
        thr = PowerScalingConfig().thresholds()
        assert list(thr) == sorted(thr, reverse=True)

    def test_non_descending_thresholds_rejected(self):
        with pytest.raises(ValueError):
            PowerScalingConfig(threshold_upper=0.01, threshold_lower=0.5)

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError):
            PowerScalingConfig(reservation_window=0)


class TestMLConfig:
    def test_paper_feature_count(self):
        assert MLConfig().num_features == 30

    def test_empty_lambda_grid_rejected(self):
        with pytest.raises(ValueError):
            MLConfig(lambda_grid=())

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            MLConfig(lambda_grid=(-1.0,))


class TestCMeshConfig:
    def test_paper_router_microarchitecture(self):
        cmesh = CMeshConfig()
        assert cmesh.num_routers == 16
        assert cmesh.virtual_channels == 4
        assert cmesh.buffers_per_vc == 4

    def test_rejects_degenerate_mesh(self):
        with pytest.raises(ValueError):
            CMeshConfig(mesh_width=0)


class TestSimulationConfig:
    def test_total_cycles(self):
        sim = SimulationConfig(warmup_cycles=100, measure_cycles=400)
        assert sim.total_cycles == 500

    def test_rejects_zero_measurement(self):
        with pytest.raises(ValueError):
            SimulationConfig(measure_cycles=0)


class TestPearlConfig:
    def test_with_reservation_window_sets_the_one_window(self):
        config = PearlConfig().with_reservation_window(1234)
        assert config.power_scaling.reservation_window == 1234
        assert config.ml == PearlConfig().ml

    def test_with_turn_on_ns(self):
        config = PearlConfig().with_turn_on_ns(16.0)
        assert config.photonic.laser_turn_on_ns == 16.0

    def test_replace_preserves_other_sections(self):
        base = PearlConfig()
        changed = base.replace(
            simulation=SimulationConfig(warmup_cycles=1, measure_cycles=2)
        )
        assert changed.architecture == base.architecture
        assert changed.simulation.total_cycles == 3

    def test_as_dict_round_trips_architecture(self):
        dump = PearlConfig().as_dict()
        assert dump["architecture"]["num_clusters"] == 16

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            PearlConfig().architecture = None


#: (id, config class, kwargs breaking one rule, that rule's message):
#: the ``__post_init__`` checks the class tests above leave unchecked,
#: each shown to fire on its own and with its own message.
INVALID_CONFIGS = [
    ("arch-zero-gpus", ArchitectureConfig, {"gpus_per_cluster": 0},
     "cores per cluster must be positive"),
    ("photonic-serialization-count", PhotonicConfig,
     {"serialization_cycles": (2, 4)}, "one serialization latency per state"),
    ("photonic-unknown-signaling", PhotonicConfig, {"signaling": "pam8"},
     "signaling must be one of"),
    ("photonic-negative-pam4-penalty", PhotonicConfig,
     {"pam4_power_penalty_db": -0.1}, "pam4_power_penalty_db cannot be"),
    ("dba-full-gpu-bound", DBAConfig, {"gpu_upper_bound": 1.0},
     r"gpu_upper_bound must be in \(0, 1\)"),
    ("dba-zero-cpu-slots", DBAConfig, {"cpu_buffer_slots": 0},
     "buffer slot counts must be positive"),
    ("dba-negative-gpu-slots", DBAConfig, {"gpu_buffer_slots": -1},
     "buffer slot counts must be positive"),
    ("scaling-negative-threshold", PowerScalingConfig,
     {"threshold_lower": -0.01}, "thresholds cannot be negative"),
    ("scaling-negative-window", PowerScalingConfig,
     {"reservation_window": -5}, "reservation_window must be positive"),
    ("ml-quantization-spec", MLConfig, {"quantization": "int8"},
     "quantization must look like 'q4.12'"),
    ("ml-drift-action", MLConfig, {"drift_action": "ignore"},
     "drift_action must be"),
    ("ml-one-retrain-sample", MLConfig, {"retrain_min_samples": 1},
     "retrain_min_samples must be at least 2"),
    ("ml-negative-cooldown", MLConfig, {"retrain_cooldown_windows": -1},
     "retrain_cooldown_windows cannot be negative"),
    ("ml-zero-ewma-alpha", MLConfig, {"drift_ewma_alpha": 0.0},
     r"drift_ewma_alpha must be in \(0, 1\]"),
    ("ml-ewma-alpha-above-one", MLConfig, {"drift_ewma_alpha": 1.5},
     r"drift_ewma_alpha must be in \(0, 1\]"),
    ("ml-zero-z-threshold", MLConfig, {"drift_z_threshold": 0.0},
     "drift_z_threshold must be positive"),
    ("ml-zero-patience", MLConfig, {"drift_patience": 0},
     "drift_patience must be at least 1"),
    ("ml-one-calibration-window", MLConfig, {"drift_calibration_windows": 1},
     "drift_calibration_windows must be at least 2"),
    ("cmesh-negative-height", CMeshConfig, {"mesh_height": -1},
     "mesh dimensions must be positive"),
    ("cmesh-zero-vcs", CMeshConfig, {"virtual_channels": 0},
     "VC configuration must be positive"),
    ("cmesh-zero-vc-depth", CMeshConfig, {"buffers_per_vc": 0},
     "VC configuration must be positive"),
    ("resilience-negative-retry-limit", ResilienceConfig, {"retry_limit": -1},
     "retry_limit cannot be negative"),
    ("resilience-zero-nack-latency", ResilienceConfig,
     {"nack_latency_cycles": 0}, "nack_latency_cycles must be at least 1"),
    ("resilience-negative-backoff", ResilienceConfig,
     {"retry_backoff_cycles": -1}, "retry_backoff_cycles cannot be negative"),
    ("simulation-negative-warmup", SimulationConfig, {"warmup_cycles": -1},
     "cycle counts must be"),
]


@pytest.mark.parametrize(
    "cls,kwargs,message",
    [pytest.param(*row[1:], id=row[0]) for row in INVALID_CONFIGS],
)
def test_each_validation_rule_rejects(cls, kwargs, message):
    with pytest.raises(ValueError, match=message):
        cls(**kwargs)


#: (id, config class, kwargs on the accepted side of a rule's boundary).
BOUNDARY_CONFIGS = [
    ("arch-single-cluster", ArchitectureConfig, {"num_clusters": 1}),
    ("photonic-instant-turn-on", PhotonicConfig, {"laser_turn_on_ns": 0.0}),
    ("photonic-pam4", PhotonicConfig, {"signaling": "pam4"}),
    ("photonic-free-pam4", PhotonicConfig, {"pam4_power_penalty_db": 0.0}),
    ("scaling-zero-lower-threshold", PowerScalingConfig,
     {"threshold_lower": 0.0}),
    ("ml-zero-lambda", MLConfig, {"lambda_grid": (0.0,)}),
    ("ml-ewma-alpha-one", MLConfig, {"drift_ewma_alpha": 1.0}),
    ("ml-two-retrain-samples", MLConfig, {"retrain_min_samples": 2}),
    ("ml-no-cooldown", MLConfig, {"retrain_cooldown_windows": 0}),
    ("ml-patience-one", MLConfig, {"drift_patience": 1}),
    ("ml-two-calibration-windows", MLConfig, {"drift_calibration_windows": 2}),
    ("cmesh-single-router", CMeshConfig, {"mesh_width": 1, "mesh_height": 1}),
    ("resilience-drop-on-first-error", ResilienceConfig, {"retry_limit": 0}),
    ("resilience-one-cycle-nack", ResilienceConfig,
     {"nack_latency_cycles": 1}),
    ("resilience-no-backoff", ResilienceConfig, {"retry_backoff_cycles": 0}),
    ("simulation-no-warmup", SimulationConfig, {"warmup_cycles": 0}),
]


@pytest.mark.parametrize(
    "cls,kwargs",
    [pytest.param(*row[1:], id=row[0]) for row in BOUNDARY_CONFIGS],
)
def test_boundary_values_accepted(cls, kwargs):
    config = cls(**kwargs)
    for name, value in kwargs.items():
        assert getattr(config, name) == value


@pytest.mark.parametrize("spelling", ["q8.8", "Q8.8", "q08.8", " q8.8\n"])
def test_quantization_is_stored_in_one_spelling(spelling):
    assert MLConfig(quantization=spelling).quantization == "q8.8"


#: Config dataclass name -> class, and PearlConfig section -> class name.
CONFIG_CLASSES = {
    cls.__name__: cls
    for cls in vars(repro.config).values()
    if isinstance(cls, type)
    and dataclasses.is_dataclass(cls)
    and cls.__module__ == repro.config.__name__
}
SECTIONS = {
    field.name: field.type
    for field in dataclasses.fields(PearlConfig)
    if field.type in CONFIG_CLASSES
}


def _named_class(annotation):
    """The config class an annotation names, if any."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name) and node.id in CONFIG_CLASSES:
            return node.id
        if isinstance(node, ast.Attribute) and node.attr in CONFIG_CLASSES:
            return node.attr
        if isinstance(node, ast.Constant) and node.value in CONFIG_CLASSES:
            return node.value
    return None


def _value_class(node):
    """Class of a section attribute, a constructor call or ``x or Cls()``."""
    if isinstance(node, ast.Attribute) and node.attr in SECTIONS:
        return SECTIONS[node.attr]
    if isinstance(node, ast.Call):
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name in CONFIG_CLASSES:
            return name
    if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
        for value in node.values:
            owner = _value_class(value)
            if owner is not None:
                return owner
    return None


def _bindings(scope):
    """Names a function (or module) binds to config classes."""
    env = {}
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = scope.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.annotation is not None and _named_class(arg.annotation):
                env[arg.arg] = _named_class(arg.annotation)
    for node in ast.walk(scope):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        owner = node.value is not None and _value_class(node.value)
        if not owner:
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if isinstance(target, ast.Name):
                env[target.id] = owner
    return env


def _self_bindings(cls_node):
    """``self.`` attributes a class assigns from config values."""
    attrs = {}
    for node in ast.walk(cls_node):
        owner = isinstance(node, ast.Assign) and _value_class(node.value)
        if not owner:
            continue
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                attrs[target.attr] = owner
    return attrs


def _config_reads(tree):
    """(class name, field) pairs loaded off a base of that class."""
    reads = set()

    def base_class(node, env, cls):
        if isinstance(node, ast.Attribute):
            if node.attr in SECTIONS:
                return SECTIONS[node.attr]
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                return cls[1].get(node.attr)
            return None
        if isinstance(node, ast.Name):
            if node.id == "self" and cls[0] in CONFIG_CLASSES:
                return cls[0]
            return env.get(node.id)
        return None

    def visit(node, env, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, env, (child.name, _self_bindings(child)))
                continue
            child_env = env
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                child_env = {**env, **_bindings(child)}
            elif isinstance(child, ast.Attribute) and isinstance(
                child.ctx, ast.Load
            ):
                owner = base_class(child.value, env, cls)
                if owner is not None:
                    reads.add((owner, child.attr))
            visit(child, child_env, cls)

    visit(tree, _bindings(tree), (None, {}))
    return reads


def test_every_config_field_is_read():
    """Every config field is read somewhere in the package.

    A field no code reads changes nothing but the result-cache key, so
    it is dead weight.  A read is an attribute load under ``src/repro``
    whose base resolves to the field's class: a section attribute
    (``….photonic.F``); a local name or ``self.`` attribute assigned
    from a section attribute or the class constructor (``x or Cls()``
    included); a parameter annotated with the class; or ``self``
    inside the class itself.  A same-named field of another class
    (``ElectricalParams.flit_bits``) does not count.
    """
    reads = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        reads |= _config_reads(ast.parse(path.read_text()))
    unread = [
        f"{name}.{field.name}"
        for name, cls in CONFIG_CLASSES.items()
        for field in dataclasses.fields(cls)
        if (name, field.name) not in reads
    ]
    assert unread == [], f"config fields no code reads: {unread}"
