"""Run metrics: byte counts, reduction percentage, slice counts, hit counts.

Reports serialize to JSON (one file per run) and merge into CSV with a
stable column order for downstream tabulation.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .codec import serialize_blockmem
from .engine import Engine, slice_compress
from .model import EngineConfig, SubPathSpec, Transfer

CSV_COLUMNS = (
    "label",
    "mode",
    "addr_width",
    "raw_bytes",
    "compressed_bytes",
    "blockmem_bytes",
    "total_bytes",
    "reduction_pct",
    "slice_count",
    "slice_count_baseline",
    "spec_hits",
)


@dataclass
class MetricsReport:
    label: str
    mode: str
    addr_width: int
    raw_bytes: int
    compressed_bytes: int
    blockmem_bytes: int
    total_bytes: int
    reduction_pct: float
    slice_count: int
    slice_count_baseline: int | None = None
    spec_hits: dict[int, int] = field(default_factory=dict)


def build_report(
    label: str,
    trace: Sequence[Transfer],
    specs: Sequence[SubPathSpec],
    config: EngineConfig,
    include_baseline: bool = False,
) -> MetricsReport:
    # the engine pass range- and mode-checks every transfer, so the raw
    # size is plain arithmetic
    raw_bytes = len(trace) * config.raw_element_bytes
    engine = Engine(specs, config)
    engine.feed(trace)
    compressed = engine.finalize()
    blockmem = len(serialize_blockmem(specs, config).data)
    reduction = (
        0.0 if raw_bytes == 0 else 100.0 * (1 - compressed.size_bytes / raw_bytes)
    )
    slice_count = len(slice_compress(trace, specs, config))
    baseline = len(slice_compress(trace, (), config)) if include_baseline else None
    return MetricsReport(
        label=label,
        mode=config.mode.value,
        addr_width=config.addr_width,
        raw_bytes=raw_bytes,
        compressed_bytes=compressed.size_bytes,
        blockmem_bytes=blockmem,
        total_bytes=compressed.size_bytes + blockmem,
        reduction_pct=reduction,
        slice_count=slice_count,
        slice_count_baseline=baseline,
        spec_hits=dict(engine.hits),
    )


def report_to_json(report: MetricsReport) -> str:
    return json.dumps(asdict(report), indent=2) + "\n"


def load_report(path: str | Path) -> MetricsReport:
    data = json.loads(Path(path).read_text())
    data["spec_hits"] = {int(k): v for k, v in data.get("spec_hits", {}).items()}
    return MetricsReport(**data)


def _hits_cell(hits: dict[int, int]) -> str:
    return ";".join(f"{k}:{v}" for k, v in sorted(hits.items()))


def reports_to_csv(reports: Iterable[MetricsReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        row = asdict(r)
        row["spec_hits"] = _hits_cell(r.spec_hits)
        row["reduction_pct"] = f"{r.reduction_pct:.4f}"
        row["slice_count_baseline"] = (
            "" if r.slice_count_baseline is None else r.slice_count_baseline
        )
        writer.writerow([row[c] for c in CSV_COLUMNS])
    return buf.getvalue()


def format_report(report: MetricsReport) -> str:
    lines = [
        f"label {report.label}",
        f"mode {report.mode}",
        f"raw_bytes {report.raw_bytes}",
        f"compressed_bytes {report.compressed_bytes}",
        f"blockmem_bytes {report.blockmem_bytes}",
        f"total_bytes {report.total_bytes}",
        f"reduction_pct {report.reduction_pct:.2f}",
        f"slice_count {report.slice_count}",
    ]
    if report.slice_count_baseline is not None:
        lines.append(f"slice_count_baseline {report.slice_count_baseline}")
    if report.spec_hits:
        lines.append("spec_hits " + _hits_cell(report.spec_hits))
    return "\n".join(lines)
