"""Text renderers for the paper's figures.

The originals are a stacked-bar chart (Fig. 1) and grey-scale matrices
(Fig. 2); here both become aligned monospace layouts carrying the same
numbers, suitable for terminals and EXPERIMENTS.md.
"""

from __future__ import annotations

import math

import numpy as np

from repro.experiments.figure1 import Figure1
from repro.experiments.figure2 import Figure2
from repro.units import fmt_bytes


def render_figure1(figure: Figure1) -> str:
    """Render Figure 1 (geographical breakdown) as labelled bars."""
    lines = ["FIGURE 1 — geographical breakdown of peers / RX bytes / TX bytes"]
    for bars in figure.bars:
        lines.append(f"\n[{bars.app}]  observed peers: {bars.total_peers}")
        for name, shares in (("#", bars.peers), ("RX", bars.rx_bytes), ("TX", bars.tx_bytes)):
            parts = "  ".join(
                f"{label}:{shares[label]:5.1f}%" for label in figure.labels
            )
            lines.append(f"  {name:>2s}  {parts}")
    return "\n".join(lines)


def render_figure2(figure: Figure2) -> str:
    """Render Figure 2 (AS×AS mean exchanged traffic) as matrices."""
    lines = ["FIGURE 2 — mean exchanged data among high-bw probes, by AS pair"]
    for m in figure.matrices:
        lines.append(f"\n[{m.app}]  R(intra/inter) = {m.ratio_intra_inter:.2f}"
                     + (f", hop-0 share of intra-AS = {m.local_share_intra:.0%}"
                        if math.isfinite(m.local_share_intra) else ""))
        header = "        " + "".join(f"AS{a:<9d}" for a in m.as_numbers)
        lines.append(header)
        for i, a in enumerate(m.as_numbers):
            cells = "".join(
                f"{fmt_bytes(float(m.mean_bytes[i, j])):<11s}"
                for j in range(len(m.as_numbers))
            )
            lines.append(f"  AS{a:<4d}{cells}")
    return "\n".join(lines)


def render_matrix(matrix: np.ndarray, labels: list[str], title: str = "") -> str:
    """Generic labelled matrix renderer (used by ablation reports)."""
    lines = [title] if title else []
    lines.append("        " + "".join(f"{lab:<11s}" for lab in labels))
    for i, lab in enumerate(labels):
        cells = "".join(f"{matrix[i, j]:<11.3g}" for j in range(len(labels)))
        lines.append(f"  {lab:<6s}{cells}")
    return "\n".join(lines)
