"""Run metrics: byte counts, reduction percentage, slice counts, hit counts.

Reports serialize to JSON (one file per run) and merge into CSV with a
stable column order for downstream tabulation.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Iterable, Sequence

from .codec import serialize_blockmem
from .engine import Engine, slice_compress
from .model import EngineConfig, Log, SubPathSpec, Transfer

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
    compressed: tuple[Log, dict[int, int]] | None = None,
) -> MetricsReport:
    """The report of ``trace`` under ``specs``.  ``compressed``, the
    unsliced log of that trace and its spec hits (an ``Engine``'s
    ``finalize()`` and ``hits`` after feeding it), stands in for the
    report's own unsliced engine pass.

    ``include_baseline`` adds the slice count of the raw log, the count a
    prover without specs would send.  It is counted, not compressed: a raw
    slice holds ``slice_size_bytes // raw_element_bytes`` transfers (the
    engine's cut rule) and an empty trace still emits one slice."""
    # the engine pass range- and mode-checks every transfer, so the raw
    # size is plain arithmetic
    raw_bytes = len(trace) * config.raw_element_bytes
    if compressed is None:
        engine = Engine(specs, config)
        engine.feed(trace)
        compressed = engine.finalize(), engine.hits
    log, hits = compressed
    blockmem = len(serialize_blockmem(specs, config).data)
    reduction = (
        0.0 if raw_bytes == 0 else 100.0 * (1 - log.size_bytes / raw_bytes)
    )
    # this pass raises SliceTooSmall on a budget below one raw element, so
    # the divisor below is at least 1
    slice_count = len(slice_compress(trace, specs, config))
    baseline = None
    if include_baseline:
        per_slice = config.slice_size_bytes // config.raw_element_bytes
        baseline = max(1, -(-len(trace) // per_slice))
    return MetricsReport(
        label=label,
        mode=config.mode.value,
        addr_width=config.addr_width,
        raw_bytes=raw_bytes,
        compressed_bytes=log.size_bytes,
        blockmem_bytes=blockmem,
        total_bytes=log.size_bytes + blockmem,
        reduction_pct=reduction,
        slice_count=slice_count,
        slice_count_baseline=baseline,
        spec_hits=dict(hits),
    )


def report_to_json(report: MetricsReport) -> str:
    return json.dumps(asdict(report), indent=2) + "\n"


# the JSON types each field annotation of MetricsReport admits (annotations
# are strings here: this module imports annotations from __future__)
_JSON_TYPES = {"str": (str,), "int": (int,), "float": (float, int),
               "int | None": (int, type(None)), "dict[int, int]": (dict,)}


def load_report(path: str | Path) -> MetricsReport:
    """The report in JSON file ``path``.  Raises ``ValueError`` naming the
    file unless it holds an object with exactly the report's fields, each
    of its JSON type (``bool`` is not an int), and spec hits that map
    integer ids to integers."""
    types = {f.name: _JSON_TYPES[f.type] for f in fields(MetricsReport)}
    try:
        data = json.loads(Path(path).read_text())
        if type(data) is not dict or data.keys() != types.keys():
            raise ValueError(f"expected an object with fields {', '.join(types)}")
        for name, allowed in types.items():
            if type(data[name]) not in allowed:
                raise ValueError(f"field {name} is {json.dumps(data[name])}")
        hits = data["spec_hits"] = {int(k): v for k, v in data["spec_hits"].items()}
        if any(type(v) is not int for v in hits.values()):
            raise ValueError("spec_hits values must be integers")
    except (ValueError, RecursionError) as exc:  # the latter: JSON nested too deep
        raise ValueError(f"{path}: not a metrics report: {exc}") from None
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
