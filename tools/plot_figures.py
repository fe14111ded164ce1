#!/usr/bin/env python3
"""Plots the paper-figure CSVs produced by the bench binary.

Usage:
    build/bench/ccsim_bench all              # writes bench_results/*.csv
    python3 tools/plot_figures.py [csv_dir] [out_dir]

Each CSV has an x column (think time or partitioning degree) and one column
per concurrency control algorithm; the script renders one PNG per CSV with
the paper's plotting conventions (log-x for think-time sweeps).
Requires matplotlib; prints a note and exits cleanly if it is missing.
"""

import csv
import pathlib
import sys


def main() -> int:
    csv_dir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "bench_results")
    out_dir = pathlib.Path(sys.argv[2] if len(sys.argv) > 2 else "bench_results/plots")
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping plot generation")
        return 0

    files = sorted(csv_dir.glob("*.csv"))
    if not files:
        print(f"no CSVs under {csv_dir}; run the bench binaries first")
        return 1
    out_dir.mkdir(parents=True, exist_ok=True)

    styles = {
        "2PL": dict(color="#1f77b4", marker="o"),
        "BTO": dict(color="#2ca02c", marker="s"),
        "WW": dict(color="#ff7f0e", marker="^"),
        "OPT": dict(color="#d62728", marker="v"),
        "NO_DC": dict(color="#7f7f7f", marker="x", linestyle="--"),
    }

    for path in files:
        with open(path) as f:
            rows = list(csv.reader(f))
        header, data = rows[0], rows[1:]
        xs = [float(r[0]) for r in data]
        fig, ax = plt.subplots(figsize=(6, 4.2))
        for col, name in enumerate(header[1:], start=1):
            ys = [float(r[col]) for r in data]
            ax.plot(xs, ys, label=name, markersize=4,
                    **styles.get(name, {}))
        ax.set_xlabel(header[0])
        ax.set_title(path.stem)
        ax.grid(True, alpha=0.3)
        ax.legend(fontsize=8)
        if header[0].startswith("think") and max(xs) > 20:
            ax.set_xscale("symlog", linthresh=4)
        fig.tight_layout()
        out = out_dir / (path.stem + ".png")
        fig.savefig(out, dpi=130)
        plt.close(fig)
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
