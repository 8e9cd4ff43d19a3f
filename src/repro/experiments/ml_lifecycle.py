"""ML lifecycle study: quantization bit-widths and drift scenarios.

Two sweeps over the deployed predictor (see ``docs/ml_lifecycle.md``):

1. **Quantization** — the same trained model deployed at float64 and
   at q2.6 / q4.12 / q8.24 fixed point.  For each format the closed
   loop reruns the fig9-style pair, reporting laser power, throughput,
   offline quantized-vs-float NRMSE and the re-costed MAC energy.  The
   paper's 16-bit hardware estimate corresponds to q4.12, which should
   reproduce the float results within a fraction of a percent.
2. **Drift** — the default monitor watching a stationary deployment
   trace (it must stay quiet) versus a distribution-shifted one (the
   benchmark's injection rate scaled well outside the training mix),
   where it must trip; the shifted scenario is repeated with
   ``drift_action="fallback"`` to count the windows handed to the
   reactive policy.
"""

from __future__ import annotations

import dataclasses

from ..config import PearlConfig, SimulationConfig
from ..ml.lifecycle.quantized import QFormat, QuantizedRidge, quantization_nrmse
from ..ml.pipeline import _quick_config, collect_pair_dataset, train_default_model
from ..noc.network import PearlNetwork
from ..noc.router import PowerPolicyKind
from ..power.ml_overhead import MLHardwareModel
from ..traffic.benchmarks import pair_name, test_pairs
from ..traffic.synthetic import generate_pair_trace
from .runner import FULL_CYCLES, QUICK_CYCLES, ExperimentResult, cached

#: Fixed-point formats swept (None = the float64 reference deployment).
QFORMAT_SWEEP = (None, "q2.6", "q4.12", "q8.24")

#: Injection-rate multiplier that pushes the shifted scenario's feature
#: distribution outside the training mix.
SHIFT_FACTOR = 3.0


def run(quick: bool = True, seed: int = 1) -> ExperimentResult:
    """Quantization sweep + drift scenarios for the default model."""

    def compute() -> ExperimentResult:
        result = ExperimentResult(
            name="ml_lifecycle: quantization sweep and drift scenarios"
        )
        window = 500
        warmup, cycles = QUICK_CYCLES if quick else FULL_CYCLES
        training = train_default_model(window, quick=quick)
        model = training.model
        config = PearlConfig(
            simulation=SimulationConfig(
                warmup_cycles=warmup, measure_cycles=cycles
            )
        ).with_reservation_window(window)
        pair = test_pairs()[0]
        trace = generate_pair_trace(
            pair[0],
            pair[1],
            config.architecture,
            config.simulation.total_cycles,
            seed,
        )

        # Offline fidelity reference: one quick random-state collection
        # supplies deployment-like feature rows for the NRMSE scoring.
        eval_set = collect_pair_dataset(
            pair, _quick_config(config), seed=seed
        )
        X_eval, _ = eval_set.arrays()

        float_power = None
        for spec in QFORMAT_SWEEP:
            run_result = _run_ml(config, model, trace, seed, quantization=spec)
            power = run_result.mean_laser_power_w
            if spec is None:
                float_power = power
                bits = 64
                energy_pj = float("nan")
                offline_nrmse = 0.0
            else:
                bits = QFormat.parse(spec).total_bits
                energy_pj = (
                    MLHardwareModel()
                    .for_bit_width(bits)
                    .inference_energy_pj()
                )
                offline_nrmse = quantization_nrmse(
                    model, QuantizedRidge.from_spec(model, spec), X_eval
                )
            result.add_row(
                study="quantization",
                config=spec or "float64",
                bits=bits,
                laser_power_w=power,
                power_delta_pct=(
                    0.0
                    if float_power is None or float_power == 0
                    else 100.0 * (power - float_power) / float_power
                ),
                throughput=run_result.throughput(),
                offline_nrmse=offline_nrmse,
                inference_energy_pj=energy_pj,
            )

        shifted_pair = tuple(
            dataclasses.replace(
                profile,
                injection_rate=profile.injection_rate * SHIFT_FACTOR,
            )
            for profile in pair
        )
        shifted_trace = generate_pair_trace(
            shifted_pair[0],
            shifted_pair[1],
            config.architecture,
            config.simulation.total_cycles,
            seed,
        )
        scenarios = (
            ("stationary", trace, "flag"),
            ("shifted", shifted_trace, "flag"),
            ("shifted+fallback", shifted_trace, "fallback"),
        )
        for label, scenario_trace, action in scenarios:
            run_result = _run_ml(
                config, model, scenario_trace, seed, drift_action=action
            )
            result.add_row(
                study="drift",
                config=label,
                laser_power_w=run_result.mean_laser_power_w,
                throughput=run_result.throughput(),
                drift_events=run_result.drift_events,
                fallback_windows=run_result.fallback_windows,
                retraining_recommended=run_result.drift_retraining_recommended,
            )
        result.notes.append(
            f"pair {pair_name(*pair)}; shifted scenario scales injection "
            f"rates by {SHIFT_FACTOR}x; q4.12 matches the paper's 16-bit "
            "MAC estimate (44.6 pJ/inference)"
        )
        return result

    return cached(("ml_lifecycle", quick, seed), compute)


def _run_ml(
    config: PearlConfig,
    model,
    trace,
    seed: int,
    quantization=None,
    drift_action: str = "flag",
):
    """One closed-loop ML run under lifecycle overrides."""
    cfg = config.replace(
        ml=dataclasses.replace(
            config.ml, quantization=quantization, drift_action=drift_action
        )
    )
    network = PearlNetwork(
        cfg,
        power_policy=PowerPolicyKind.ML,
        ml_model=model,
        seed=seed,
    )
    return network.run(trace)
