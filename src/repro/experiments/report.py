"""EXPERIMENTS.md generator: paper-vs-measured for every artifact.

``write_experiments_md`` runs every registered experiment as one batch
(:func:`~repro.experiments.run_all`) and renders a markdown report
pairing each paper table/figure with the reproduced numbers and the
paper's reported values.  ``pearl-sim all`` prints (or, with
``--output``, writes) the same report.  The repository's checked-in
EXPERIMENTS.md is one such run.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Union

from . import REGISTRY, run_all
from .runner import ExperimentResult

#: Paper-reported values shown alongside each experiment, for eyeballing.
PAPER_NOTES = {
    "table1": "Table I constants (32 CPUs, 64 CUs, 2 GHz network, 8 MB L3).",
    "table2": "Table II areas; DBA+ML control well under 1% of the chip.",
    "table5": (
        "Table V losses; laser power 1.16/0.871/0.581/0.29/0.145 W for "
        "64/48/32/16/8 WL."
    ),
    "fig4": "CPU benchmarks generate more packets than GPU benchmarks.",
    "fig5": (
        "PEARL-Dyn epb -19.7%/-3.2% vs FCFS (constrained states); "
        "-40.7%/-34.4% vs CMESH at 32/16 WL."
    ),
    "fig6": (
        "Throughput loss vs 64WL: ML RW2000 0.3%, Dyn RW500 1.3%, "
        "Dyn RW2000 8%, ML RW500 14%."
    ),
    "fig7": (
        "Laser power savings vs 64WL: ML RW500 65.5%, ML RW500 no8WL "
        "60.7%, Dyn RW2000 55.8%, Dyn RW500 46%, ML RW2000 42%."
    ),
    "fig8": "ML RW2000 just under 30% of time at 64 WL; RW500 goes lower.",
    "fig9": "Dynamic / ML power scaling beat CMESH by 34% / 20%.",
    "fig10": "Best ML throughput at RW2000; RW500/RW1000 drop vs 64 WL.",
    "fig11": (
        "Laser power flat (<1%) across 2-32 ns turn-on; throughput loss "
        "up to ~18% (Dyn RW500) / ~17% (Dyn RW2000)."
    ),
    "ml_quality": (
        "NRMSE validation->test: 0.79->0.68 (RW500), 0.79->0.05 "
        "(RW2000); RW2000 top-state accuracy 99.9%."
    ),
    "ablations": "Sec. III-B: 25% steps best; CPU 16% / GPU 6% bounds optimal.",
    "arbitration": (
        "Extension (Sec. II-A rationale): R-SWMR avoids token-MWSR "
        "arbitration latency at equal laser power."
    ),
    "saturation": (
        "Extension (not a paper figure): load sweep behind Fig. 9 — the "
        "photonic crossbar saturates later than the mesh."
    ),
    "thermal_study": (
        "Extension: activity-aware trimming — bank gating scales heater "
        "power with the laser state (paper Sec. III-C)."
    ),
    "collective_study": (
        "Extension (PCCL / multilevel-signaling papers): collective "
        "schedules x NRZ/PAM4 x adaptation policies — out-of-"
        "distribution traffic trips drift and closes the retrain loop "
        "(docs/workloads.md)."
    ),
    "ml_lifecycle": (
        "Extension (Sec. IV-B deployment): Qm.n fixed-point inference "
        "sweep against the 16-bit 44.6 pJ datapath, plus drift "
        "scenarios — q4.12 matches the float closed loop; a 3x load "
        "shift trips the monitor (docs/ml_lifecycle.md)."
    ),
    "policy_bakeoff": (
        "Extension (not a paper figure): static/reactive/ml vs PROTEUS "
        "loss-capped rules and D3NOC epoch reconfiguration — energy per "
        "bit x latency x throughput retention under a 25% wavelength "
        "fault (docs/policies.md)."
    ),
    "resilience": (
        "Extension (not a paper figure): degradation sweep under "
        "wavelength loss and bit errors — CRC retransmission plus "
        "clamped power scaling keep latency/power degrading smoothly "
        "across ladder rungs (docs/resilience.md)."
    ),
    "headline": (
        "34% throughput over CMESH at 25% less energy/bit; 40-65% power "
        "savings at 0-14% throughput loss."
    ),
}

_HEADER = """# EXPERIMENTS — paper vs. measured

Generated by `repro.experiments.report.write_experiments_md` (also
reachable as `pearl-sim all`).  Absolute magnitudes are not expected to
match the paper — the substrate here is a synthetic closed-loop
simulator, not the authors' Multi2Sim + testbed — but the *shape* of
every result (orderings, trade-off directions, rough factors) is
asserted by the corresponding benchmark in `benchmarks/`.

Mode: {mode} ({pairs}).

Every sweep runs through the parallel experiment engine
(`repro.experiments.parallel`): `pearl-sim ... --jobs N` fans the
simulations over N worker processes with results bit-identical to a
serial run, and completed jobs are memoised in `.pearl_result_cache/`
(content-keyed; `--no-cache` or a `CODE_VERSION` salt bump forces
recomputation).  Runs can be instrumented with the telemetry layer
(`pearl-sim obs report <id>`, or `--trace PATH` on any run — see
`docs/observability.md`).

## Known deviations from the paper

* **Power savings magnitude** — our scaled configurations save
  ~38-45% of laser power vs the paper's 42-65.5%: the synthetic
  workloads keep a steadier CPU floor than the real traces, so the
  lowest states are reached less often (the ML selector in particular
  rarely predicts below the 8 WL capacity).
* **Window-size differentiation** — the paper's clear RW500-vs-RW2000
  trade-off (max savings vs max throughput) appears only weakly; our
  closed-loop responder lets short-window mispredictions recover
  within the window, damping the throughput penalty.
* **Fig. 11 throughput loss** — laser-stabilization dark time grows
  exactly as in the paper (stall-cycle column) but offered load at
  these operating points leaves enough slack that queued traffic
  catches up, so accepted throughput stays flat where the paper loses
  up to ~18%.
* **NRMSE values** — same regime as the paper (validation ~0.5-0.8,
  test within +/-0.15 of validation) but our RW2000 model does not
  collapse to 0.05: the synthetic traces are more stationary across
  windows than Multi2Sim's.
"""


def render_markdown(results: List[ExperimentResult], quick: bool) -> str:
    """Render experiment results + paper notes as markdown."""
    parts = [
        _HEADER.format(
            mode="quick" if quick else "full",
            pairs=(
                "4 diagonal test pairs, 8k measured cycles"
                if quick
                else "all 16 test pairs, 20k measured cycles"
            ),
        )
    ]
    for exp_id, result in zip(REGISTRY, results):
        parts.append(f"## {exp_id} — {result.name}\n")
        note = PAPER_NOTES.get(exp_id)
        if note:
            parts.append(f"**Paper:** {note}\n")
        parts.append("```")
        parts.append(result.format_table())
        parts.append("```\n")
    return "\n".join(parts)


def write_experiments_md(
    path: Union[str, Path] = "EXPERIMENTS.md",
    quick: bool = True,
    seed: int = 1,
) -> Path:
    """Run every experiment and write the markdown report."""
    path = Path(path)
    path.write_text(render_markdown(run_all(quick=quick, seed=seed), quick))
    return path
