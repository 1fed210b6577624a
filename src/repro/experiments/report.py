"""EXPERIMENTS.md generation from saved experiment JSON.

``python -m repro.experiments.report results/medium results/quick`` scans
result directories (earlier ones win when an experiment appears in
several) and renders the paper-vs-measured record.  Keeping the document
generated makes the reproduction's evidence regenerable with two
commands:

    python -m repro.experiments.runner --all --profile medium --out results/medium
    python -m repro.experiments.report results/medium > EXPERIMENTS.md
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Paper-claimed headline facts per experiment, used to frame the tables.
PAPER_CLAIMS = {
    "table1": "SD complexity grows exponentially (1.2 -> 837 GFLOPS for "
    "2x2 -> 8x8) while throughput grows ~linearly (45 -> 223 Mbit/s)",
    "table2": "pre-processing costs ~100-400 real mults (vs ~2k-7k for "
    "QR) and parallelises in batches of N_PE/10",
    "table3": "FlexCore PE costs 73.7% / 57.8% more area-delay than an "
    "FCSD PE at 8x8 / 12x12",
    "fig9": "FlexCore works at any PE count, improves monotonically, "
    "matches FCSD with ~an order of magnitude fewer PEs, and reaches "
    "95% of ML with 128 paths (12x12 64-QAM)",
    "fig10": "MMSE near-optimal only when users << antennas; FlexCore "
    "scales to Nt = Nr; a-FlexCore throttles from 64 active PEs to ~1",
    "fig11": "FlexCore speedup up to 19x vs GPU FCSD (L=2, |E|=128); "
    "GPU FCSD >= 21x over 8-thread OpenMP",
    "fig12": "FlexCore supports all LTE modes with graceful SNR loss; "
    "FCSD fits only 1.25 MHz; SIC loses up to ~12 dB",
    "fig13": "at equal network throughput FCSD needs 1.54x (8x8, L=1) "
    "to 28.8x (12x12, L=2) more J/bit; FlexCore reaches 13.09 Gb/s "
    "at 32 PEs",
    "fig14": "the geometric rank-probability model matches simulation "
    "and testbed at 1 dB and 15 dB",
    "ablations": "(extension) design-choice sensitivity",
    "soft_gain": "(extension) soft output buys coding gain over hard "
    "decisions",
}

ORDER = [
    "table1",
    "table2",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "table3",
    "fig14",
    "ablations",
    "soft_gain",
]


def load_results(directories: list[Path]) -> dict[str, dict]:
    """Earlier directories win; each holds ``<experiment>.json`` files."""
    results: dict[str, dict] = {}
    for directory in directories:
        if not directory.is_dir():
            continue
        for path in sorted(directory.glob("*.json")):
            name = path.stem
            if name not in results:
                results[name] = json.loads(path.read_text())
    return results


def _format_value(value) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if value in (float("inf"), float("-inf")):
            return "inf"
        if value == 0 or 1e-3 <= abs(value) < 1e5:
            return f"{value:.4g}"
        return f"{value:.2e}"
    return str(value)


def render_markdown_table(payload: dict, max_rows: int = 60) -> str:
    columns = payload["columns"]
    lines = [
        "| " + " | ".join(str(column) for column in columns) + " |",
        "|" + "|".join("---" for _ in columns) + "|",
    ]
    rows = payload["rows"]
    for row in rows[:max_rows]:
        lines.append(
            "| "
            + " | ".join(_format_value(row[column]) for column in columns)
            + " |"
        )
    if len(rows) > max_rows:
        lines.append(f"| ... {len(rows) - max_rows} more rows ... |")
    return "\n".join(lines)


def render_report(results: dict[str, dict]) -> str:
    parts = [
        "# EXPERIMENTS — paper vs measured",
        "",
        "Generated by `python -m repro.experiments.report <results dirs>`; "
        "regenerate after new runs. Absolute numbers are expected to "
        "differ from the paper (our substrate simulates the WARP testbed, "
        "GTX 970 and XCVU440, none of which is in the loop); the *shapes* — who "
        "wins, by what factor, where crossovers sit — are the "
        "reproduction targets.",
        "",
    ]
    for name in ORDER:
        claim = PAPER_CLAIMS.get(name, "")
        parts.append(f"## {name}")
        parts.append("")
        if claim:
            parts.append(f"**Paper:** {claim}.")
            parts.append("")
        payload = results.get(name)
        if payload is None:
            parts.append("*(no saved results; run the experiment first)*")
            parts.append("")
            continue
        parts.append(
            f"**Measured** (profile `{payload['profile']}`, "
            f"experiment `{payload['experiment']}`):"
        )
        parts.append("")
        parts.append(render_markdown_table(payload))
        parts.append("")
        for note in payload.get("notes", []):
            parts.append(f"- note: {note}")
        parts.append("")
    parts.append(EPILOGUE)
    return "\n".join(parts)


#: Hand-curated comparison of measured vs claimed, appended verbatim.
EPILOGUE = """\
## Reproduction summary

| Artefact | Verdict | Detail |
|---|---|---|
| Table 1 | shape + absolute throughput | measured 45/96/144/192 Mbit/s vs paper 45/100/162/223; GFLOPS grows super-linearly (1.6 -> 25) but our Schnorr-Euchner + sorted-QR decoder visits far fewer nodes than the paper's implementation, so absolute GFLOPS sit ~30x lower |
| Table 2 | magnitudes match | pre-processing ~160-560 real mults vs paper 102-391 (our tree expands slightly more children); detection mults within 5% of the paper's (4864 vs 4608 at 8x8/32) |
| Table 3 | near-exact | the structural cost model reproduces every published resource figure and the 73.7%/57.8% area-delay overheads to <1% |
| Fig. 9 | shapes hold, one regime differs | FlexCore runs at any PE count and improves monotonically to the ML bound (196 paths = ML PER in 12x12 64-QAM); MMSE and trellis [50] are clearly inferior; FCSD vs FlexCore at *matched* path counts is parity-to-FCSD-favoured at our (much lower) calibrated SNRs - our simulated testbed is better conditioned than the real WARP deployment, so the operating points sit in a noise-dominated regime where the probability model's ranking is less sharp |
| Fig. 10 | reproduced | throughput scales to Nt = Nr for FlexCore/Geosphere (206 -> 420 Mbit/s); MMSE collapses at full load (PER 0.74); a-FlexCore tracks FlexCore while averaging ~3-38 active PEs below full load and ~63/64 at 12 users |
| Fig. 11 | reproduced (model) | FlexCore |E|=128 vs FCSD L=2: 24.3x (paper 19x); GPU-FCSD vs OpenMP-8: 23x (paper >=21x); speedup grows with Nsc and falls with |E| as in the paper |
| Fig. 12 | reproduced (model + link) | FlexCore supports every LTE mode with paths falling from ~97 (1.25 MHz) to ~5-6 (20 MHz) vs paper's 105 -> 4 / 68 -> 2; FCSD L=1 fits only 1.25 MHz; SIC worst-case loss is the largest of all schemes |
| Fig. 13 | reproduced (model) | J/bit falls with instantiated PEs; at equal network throughput FCSD needs ~1.6x (L=1) to ~32x (12x12 L=2) more J/bit vs paper's 1.54x-28.8x; the 13.09/3.27 Gb/s checkpoints reproduce exactly |
| Fig. 14 | reproduced, constants corrected | the geometric model matches Monte-Carlo at 1 dB and 15 dB *after* fixing Eq. 4's prefactor (2 - 2/sqrt(Q), not +) and erfc argument (half-min-distance scaling); the verbatim formula is badly off at 1 dB (0.72 vs measured 0.29 at rank 1) - see `repro/flexcore/probability.py` |
| soft_gain (ext.) | soft decisions cut coded BER ~3-10x in the waterfall | max-log LLRs from the FlexCore candidate list, llr_clip = 4 |

Known fidelity gaps, in one place: (a) the synthetic office testbed is
better conditioned than the paper's WARP measurements, so calibrated
operating SNRs are lower and the FlexCore-vs-FCSD margin at matched path
counts narrows; (b) our sphere decoder is more aggressive about pruning
than the Table 1 reference implementation, shifting absolute GFLOPS;
(c) GPU/FPGA numbers come from calibrated analytic models, not hardware.
"""


def main(argv=None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    if not args:
        print(
            "usage: python -m repro.experiments.report RESULTS_DIR "
            "[FALLBACK_DIR ...]",
            file=sys.stderr,
        )
        return 2
    results = load_results([Path(arg) for arg in args])
    print(render_report(results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
