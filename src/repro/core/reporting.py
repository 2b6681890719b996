"""Report rendering: turn campaign results into the paper's tables/figures.

Benchmarks and examples use these helpers so that every experiment prints a
uniform, self-describing text report that can be compared line by line with
the numbers in the paper.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..analysis.series import FigureData
from ..analysis.tables import format_kv, format_percent, format_table
from .campaign import CampaignResult
from .capacity_analysis import (
    bandwidth_breakdown_table,
    estimate_population,
    flag_distribution,
)
from .churn_analysis import ip_churn, longevity_summary
from .geography import press_freedom_summary, summarize_geography
from .monitor import ObservationLog
from .population import summarize_population

__all__ = [
    "render_figure",
    "render_table1",
    "render_campaign_summary",
]


def render_figure(figure: FigureData, float_format: str = ".2f") -> str:
    """Render a figure's series as an aligned text table."""
    return figure.to_text(float_format=float_format)


def render_table1(log: ObservationLog) -> str:
    """Render Table 1 (bandwidth percentages by router group)."""
    rows = bandwidth_breakdown_table(log)
    headers = ["Bandwidth", "Floodfill %", "Reachable %", "Unreachable %", "Total %"]
    return format_table(
        headers,
        rows,
        float_format=".2f",
        title="Table 1: routers per bandwidth tier by group",
    )


def render_campaign_summary(result: CampaignResult) -> str:
    """A multi-section text summary of a main-campaign run (Section 5)."""
    log = result.log
    sections: List[str] = []

    population = summarize_population(log)
    sections.append(format_kv(population.as_dict(), title="Population (Section 5.1)"))

    longevity = longevity_summary(log)
    sections.append(format_kv(longevity.as_dict(), title="Longevity (Section 5.2.1)"))

    churn = ip_churn(log)
    sections.append(format_kv(churn.as_dict(), title="IP churn (Section 5.2.2)"))

    tiers = flag_distribution(log)
    sections.append(
        format_kv(
            {f"tier {k}": v for k, v in tiers.items()},
            title="Capacity distribution (Figure 9, daily averages)",
        )
    )

    estimate = estimate_population(log)
    sections.append(
        format_kv(estimate.as_dict(), title="Floodfill extrapolation (Section 5.3.1)")
    )

    try:
        geography = summarize_geography(log)
        sections.append(
            format_kv(geography.as_dict(), title="Geography (Section 5.3.2)")
        )
        press = press_freedom_summary(log)
        sections.append(
            format_kv(
                {
                    "countries": press["countries"],
                    "total_peers": press["total_peers"],
                    "top": ", ".join(f"{c}:{n}" for c, n in press["top"]),
                },
                title="Poor press-freedom countries",
            )
        )
    except ValueError:
        sections.append("Geography: no resolvable known-IP peers")

    sections.append(
        format_kv(
            {
                "monitors": len(result.monitors),
                "days": log.days_recorded,
                "mean daily ground-truth population": result.mean_daily_online,
                "coverage of daily population": format_percent(
                    result.coverage_of_population()
                ),
                "unique peers observed": log.unique_peer_count,
            },
            title="Campaign coverage",
        )
    )
    return "\n\n".join(sections)
