"""Tables I, II and V — configuration and model tables.

These regenerate the paper's specification tables from the library's
config objects, verifying the constants survived into the code.
"""

from __future__ import annotations

from ..config import ArchitectureConfig, AreaConfig, OpticalConfig, PhotonicConfig
from ..noc.photonic import PhotonicLinkModel
from ..power.area import area_table, chip_area_mm2, control_overhead_fraction
from .runner import Experiment, ExperimentResult, Results, no_jobs


def table1(architecture: ArchitectureConfig = ArchitectureConfig()) -> ExperimentResult:
    """Table I: architecture specifications."""
    result = ExperimentResult(name="table1: architecture specifications")
    result.add_row(component="CPU cores", value=architecture.num_cpus)
    result.add_row(component="Threads/CPU", value=architecture.threads_per_cpu)
    result.add_row(
        component="CPU frequency (GHz)", value=architecture.cpu_frequency_ghz
    )
    result.add_row(component="CPU L1I (kB)", value=architecture.cpu_l1i_kb)
    result.add_row(component="CPU L1D (kB)", value=architecture.cpu_l1d_kb)
    result.add_row(component="CPU L2 (kB)", value=architecture.cpu_l2_kb)
    result.add_row(component="GPU compute units", value=architecture.num_gpus)
    result.add_row(
        component="GPU frequency (GHz)", value=architecture.gpu_frequency_ghz
    )
    result.add_row(component="GPU L1 (kB)", value=architecture.gpu_l1_kb)
    result.add_row(component="GPU L2 (kB)", value=architecture.gpu_l2_kb)
    result.add_row(
        component="Network frequency (GHz)",
        value=architecture.network_frequency_ghz,
    )
    result.add_row(component="L3 (MB)", value=architecture.l3_mb)
    result.add_row(
        component="Main memory (GB)", value=architecture.main_memory_gb
    )
    return result


def table2(area: AreaConfig = AreaConfig()) -> ExperimentResult:
    """Table II: area overhead."""
    result = ExperimentResult(name="table2: area overhead")
    for component, value in area_table(area).items():
        result.add_row(component=component, value=value)
    result.add_row(component="Total chip (mm^2)", value=chip_area_mm2(area))
    result.add_row(
        component="Control overhead fraction",
        value=control_overhead_fraction(area),
    )
    return result


def table5(
    optical: OpticalConfig = OpticalConfig(),
    photonic: PhotonicConfig = PhotonicConfig(),
) -> ExperimentResult:
    """Table V plus derived laser powers per wavelength state."""
    result = ExperimentResult(name="table5: optical components")
    result.add_row(
        component="Modulator insertion (dB)", value=optical.modulator_insertion_db
    )
    result.add_row(component="Waveguide (dB/cm)", value=optical.waveguide_db_per_cm)
    result.add_row(component="Coupler (dB)", value=optical.coupler_db)
    result.add_row(component="Splitter (dB)", value=optical.splitter_db)
    result.add_row(
        component="Filter through (dB)", value=optical.filter_through_db
    )
    result.add_row(component="Filter drop (dB)", value=optical.filter_drop_db)
    result.add_row(component="Photodetector (dB)", value=optical.photodetector_db)
    result.add_row(
        component="Receiver sensitivity (dBm)",
        value=optical.receiver_sensitivity_dbm,
    )
    result.add_row(
        component="Ring heating (uW/ring)", value=optical.ring_heating_w * 1e6
    )
    result.add_row(
        component="Ring modulating (uW/ring)",
        value=optical.ring_modulating_w * 1e6,
    )
    model = PhotonicLinkModel(optical, photonic)
    result.add_row(component="Link loss (dB)", value=optical.link_loss_db())
    for state, power in zip(photonic.wavelength_states, photonic.laser_power_w):
        result.add_row(
            component=f"Laser power @{state} WL (W, paper)", value=power
        )
        result.add_row(
            component=f"Laser power @{state} WL (W, budget model)",
            value=model.laser_electrical_power_w(state),
        )
    return result


#: The tables are built from the configs; they submit no job.
jobs = no_jobs


def table(quick: bool, seed: int, results: Results) -> ExperimentResult:
    """All three tables concatenated."""
    combined = ExperimentResult(name="tables I/II/V")
    for part in (table1(), table2(), table5()):
        for row in part.rows:
            combined.add_row(table=part.name, **row)
    return combined


#: Each table as an experiment of its own (the registry's ids).
TABLE1 = Experiment(no_jobs, lambda quick, seed, results: table1())
TABLE2 = Experiment(no_jobs, lambda quick, seed, results: table2())
TABLE5 = Experiment(no_jobs, lambda quick, seed, results: table5())
