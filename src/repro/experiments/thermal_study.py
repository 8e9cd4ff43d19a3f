"""Extension: activity-aware trimming power (Sec. III-A1 / III-C).

The paper uses a flat 26 uW/ring trimming figure and notes that the
four-bank layout "allows for reducing the trimming power along with
the laser".  This study runs the thermal heater-feedback model across
the five wavelength states and two activity levels, quantifying (a)
the bank-gating saving and (b) the additional saving from modulation
self-heating backing the heaters off.
"""

from __future__ import annotations

from ..config import PearlConfig
from ..noc.thermal import ThermalTrimmingModel
from .runner import ExperimentResult, cached

#: Wavelength states studied.
STATES = (64, 48, 32, 16, 8)

#: Cycles the model is settled for before reading power, in steps.
SETTLE_CYCLES = 40_000
SETTLE_STEPS = 40

#: Activity levels probed per state.
ACTIVITIES = (("idle", 0.0), ("busy", 0.9))


def run(quick: bool = True, seed: int = 1) -> ExperimentResult:
    """Trimming power per state and activity level."""

    def compute() -> ExperimentResult:
        result = ExperimentResult(name="extension: thermal trimming study")
        config = PearlConfig()
        optical = config.optical
        flat_w_per_state = {
            state: 2 * state * optical.ring_heating_w for state in STATES
        }
        for state in STATES:
            row = {"wavelengths": state,
                   "flat_model_w": flat_w_per_state[state]}
            for label, activity in ACTIVITIES:
                # Let the heater loops settle at this operating point.
                model = ThermalTrimmingModel(optical=optical)
                for _ in range(SETTLE_STEPS):
                    power = model.step(
                        state, activity, cycles=SETTLE_CYCLES // SETTLE_STEPS
                    )
                row[f"trimming_{label}_w"] = float(power)
                row[f"locked_{label}"] = model.all_locked()
            result.add_row(**row)
        result.notes.append(
            "paper Sec. III-C: bank gating scales trimming with the laser; "
            "self-heating lets heaters back off further when busy"
        )
        return result

    return cached(("thermal_study", quick, seed), compute)
