"""``dimmunix-report`` — render benchmark records as a readable report.

The benchmark harness appends one JSON object per paper-vs-measured
comparison to ``benchmarks/results/records.jsonl``, each run opened by a
``run_header`` row; this tool turns the latest record of each experiment
in that ledger into the summary block (the same rendering the terminal
shows) or a markdown table ready to paste into EXPERIMENTS.md.

The ``metrics`` verb (``dimmunix-report metrics SRC``) instead renders
telemetry as Prometheus text exposition. ``SRC`` is one of:

* a ``tcp://host:port`` fleet DSN — queries the fleet server's
  ``metrics`` op live and renders the fleet-wide aggregate;
* a telemetry-report JSON file (``Dimmunix.telemetry_report()`` dumped
  to disk) — rendered directly;
* an events JSONL recording — per-phase histograms are derived from the
  monotonic ``ts_ns`` stamps (request→acquired as ``acquire``,
  yield→resume as ``yield_park``) plus per-kind event counters.

The ``health`` verb (``dimmunix-report health SRC``) renders the
liveness-watchdog surface instead: ``SRC`` is a ``tcp://`` fleet DSN
(fleet-wide suspect counts and oldest waiter age aggregated by the
server from each client's metrics report) or a JSON file holding a
``Dimmunix.health()`` dump.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.report import ExperimentRecord

DEFAULT_RECORDS = Path("benchmarks/results/records.jsonl")


def load_records(path: Path) -> list[ExperimentRecord]:
    """The latest record of each experiment (the ledger only appends)."""
    records: dict[str, ExperimentRecord] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                data = json.loads(line)
                if data.get("run_header"):
                    continue
                records[data["experiment_id"]] = ExperimentRecord(
                    experiment_id=data["experiment_id"],
                    description=data["description"],
                    paper_value=data["paper_value"],
                    measured_value=data["measured_value"],
                    holds=bool(data["holds"]),
                    notes=data.get("notes", ""),
                    details=data.get("details", {}),
                )
            except (
                json.JSONDecodeError, KeyError, TypeError, AttributeError
            ) as exc:
                raise SystemExit(
                    f"error: bad record at {path}:{line_number}: {exc}"
                )
    return list(records.values())


def _render_text(records: list[ExperimentRecord]) -> str:
    lines = [record.render() for record in records]
    ok = sum(1 for record in records if record.holds)
    lines.append("")
    lines.append(f"{ok}/{len(records)} comparisons hold the paper's claim")
    return "\n".join(lines)


def _render_markdown(records: list[ExperimentRecord]) -> str:
    lines = [
        "| id | claim | paper | measured | holds |",
        "|---|---|---|---|---|",
    ]
    for record in records:
        holds = "yes" if record.holds else "**NO**"
        lines.append(
            f"| {record.experiment_id} | {record.description} "
            f"| {record.paper_value} | {record.measured_value} | {holds} |"
        )
    return "\n".join(lines)


def _render_history(spec: str) -> str:
    """The immunity block: antibody counts split by provenance."""
    from repro.tools.history_cli import _load

    history = _load(spec)
    counts = history.provenance_counts()
    lines = [
        f"immunity ({spec}): {len(history)} antibodies",
        f"  earned:    {counts.get('earned', 0)} (from real infections)",
        f"  promoted:  {counts.get('promoted', 0)} "
        "(predicted, later prevented a real deadlock)",
        f"  predicted: {counts.get('predicted', 0)} "
        "(seeded by lint/trace mining, not yet triggered)",
    ]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the metrics verb
# ----------------------------------------------------------------------

def _fleet_metrics(dsn: str) -> dict:
    """Query a fleet server's ``metrics`` op; shape for render_report."""
    import socket

    from repro.core.store.url import DEFAULT_FLEET_PORT
    from repro.fleet.protocol import read_frame, write_frame

    rest = dsn[len("tcp://") :]
    host, _, port_text = rest.partition(":")
    port = int(port_text) if port_text else DEFAULT_FLEET_PORT
    with socket.create_connection((host, port), timeout=5.0) as sock:
        write_frame(sock, {"op": "metrics"})
        reply = read_frame(sock)
    if not reply.get("ok"):
        raise SystemExit(
            f"error: {dsn}: {reply.get('error', 'metrics refused')}"
        )
    phases = {
        phase: aggregate["histogram"]
        for phase, aggregate in (reply.get("phases") or {}).items()
        if isinstance(aggregate, dict) and "histogram" in aggregate
    }
    gauges: dict = {"fleet_clients": reply.get("clients", 0)}
    if isinstance(reply.get("spill_depth"), (int, float)):
        gauges["fleet_spill_depth"] = reply["spill_depth"]
    if isinstance(reply.get("sync_lag_max_s"), (int, float)):
        gauges["fleet_sync_lag_max_seconds"] = reply["sync_lag_max_s"]
    health = reply.get("health")
    if isinstance(health, dict):
        for key, gauge in (
            ("oldest_waiter_age_ns", "fleet_oldest_waiter_age_ns"),
            ("suspected_now", "fleet_livelock_suspected_now"),
            ("livelock_suspects", "fleet_livelock_suspects"),
            ("watchdog_mitigations", "fleet_watchdog_mitigations"),
        ):
            if isinstance(health.get(key), (int, float)):
                gauges[gauge] = health[key]
    return {"phases": phases, "gauges": gauges}


def _report_from_events(path: Path) -> dict:
    """Derive a telemetry report from an events JSONL's ts_ns stamps."""
    from repro.telemetry.histogram import LogHistogram

    acquire = LogHistogram()
    park = LogHistogram()
    pending_request: dict[tuple, int] = {}
    pending_park: dict[tuple, int] = {}
    counts: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(data, dict):
                continue
            kind = data.get("kind", "?")
            counts[kind] = counts.get(kind, 0) + 1
            ts_ns = data.get("ts_ns")
            if not isinstance(ts_ns, int) or ts_ns <= 0:
                continue
            key = (data.get("source", "?"), str(data.get("thread", "")))
            if kind == "request":
                pending_request[key] = ts_ns
            elif kind == "acquired":
                started = pending_request.pop(key, None)
                if started is not None and ts_ns >= started:
                    acquire.record(ts_ns - started)
            elif kind == "yield":
                pending_park[key] = ts_ns
            elif kind == "resume":
                started = pending_park.pop(key, None)
                if started is not None and ts_ns >= started:
                    park.record(ts_ns - started)
    phases: dict = {}
    if acquire.count:
        phases["acquire"] = acquire.to_json()
    if park.count:
        phases["yield_park"] = park.to_json()
    counters = {
        f"events_{kind.replace('-', '_')}": count
        for kind, count in counts.items()
    }
    return {"phases": phases, "counters": counters}


def _load_report(path: Path) -> dict:
    """A telemetry-report JSON file, or an events JSONL to derive from."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        data = None
    if isinstance(data, dict) and "phases" in data:
        return data
    return _report_from_events(path)


def cmd_metrics(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="dimmunix-report metrics",
        description=(
            "Render telemetry as Prometheus text exposition. SRC is a "
            "tcp:// fleet DSN (live fleet-wide query), a telemetry-report "
            "JSON file, or an events JSONL recording."
        ),
    )
    parser.add_argument(
        "src", help="tcp:// DSN, telemetry report JSON, or events JSONL"
    )
    args = parser.parse_args(argv)
    from repro.telemetry.prometheus import render_report

    if args.src.startswith("tcp://"):
        try:
            report = _fleet_metrics(args.src)
        except OSError as error:
            print(f"error: {args.src}: {error}", file=sys.stderr)
            return 2
    else:
        path = Path(args.src)
        if not path.exists():
            print(f"error: {path} does not exist", file=sys.stderr)
            return 2
        report = _load_report(path)
    text = render_report(report)
    if not text:
        print(f"no telemetry in {args.src}", file=sys.stderr)
        return 1
    print(text, end="")
    return 0


# ----------------------------------------------------------------------
# the health verb
# ----------------------------------------------------------------------

def _format_age_ms(age_ns) -> str:
    if not isinstance(age_ns, (int, float)) or age_ns <= 0:
        return "0ms"
    return f"{age_ns / 1e6:.1f}ms"


def _fleet_health(dsn: str) -> dict:
    """Query a fleet server's ``metrics`` op; return its health block."""
    import socket

    from repro.core.store.url import DEFAULT_FLEET_PORT
    from repro.fleet.protocol import read_frame, write_frame

    rest = dsn[len("tcp://") :]
    host, _, port_text = rest.partition(":")
    port = int(port_text) if port_text else DEFAULT_FLEET_PORT
    with socket.create_connection((host, port), timeout=5.0) as sock:
        write_frame(sock, {"op": "metrics"})
        reply = read_frame(sock)
    if not reply.get("ok"):
        raise SystemExit(
            f"error: {dsn}: {reply.get('error', 'metrics refused')}"
        )
    health = reply.get("health")
    return health if isinstance(health, dict) else {}


def _render_health(health: dict, origin: str) -> str:
    suspected = health.get("suspected_now", 0)
    oldest = health.get("oldest_waiter_age_ns", 0)
    lines = [
        f"health ({origin}): {suspected} suspect(s) now, "
        f"oldest waiter {_format_age_ms(oldest)}",
        f"  suspicions: {health.get('livelock_suspects', 0)}  "
        f"mitigations: {health.get('watchdog_mitigations', 0)}",
    ]
    if "clients" in health:
        lines.append(f"  reporting clients: {health['clients']}")
    if "scans" in health:
        watchdog = "on" if health.get("watchdog") else "off"
        lines.append(
            f"  watchdog: {watchdog}  scans: {health['scans']}"
        )
    cores = health.get("cores")
    if isinstance(cores, dict) and cores:
        lines.append("  cores:")
        for name in sorted(cores):
            entry = cores[name] if isinstance(cores[name], dict) else {}
            lines.append(
                f"    {name}: {entry.get('suspected_now', 0)} suspect(s), "
                f"oldest {_format_age_ms(entry.get('oldest_waiter_age_ns'))}"
            )
    return "\n".join(lines)


def cmd_health(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="dimmunix-report health",
        description=(
            "Render liveness-watchdog health. SRC is a tcp:// fleet DSN "
            "(fleet-wide aggregate from the server's metrics op) or a "
            "JSON file holding a Dimmunix.health() dump."
        ),
    )
    parser.add_argument(
        "src", help="tcp:// DSN or a Dimmunix.health() JSON dump"
    )
    args = parser.parse_args(argv)
    if args.src.startswith("tcp://"):
        try:
            health = _fleet_health(args.src)
        except OSError as error:
            print(f"error: {args.src}: {error}", file=sys.stderr)
            return 2
        if not health or not health.get("clients"):
            print(f"no health reports at {args.src}", file=sys.stderr)
            return 1
    else:
        path = Path(args.src)
        if not path.exists():
            print(f"error: {path} does not exist", file=sys.stderr)
            return 2
        try:
            health = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            print(f"error: {path}: not JSON ({error})", file=sys.stderr)
            return 2
        if not isinstance(health, dict) or "oldest_waiter_age_ns" not in health:
            print(
                f"error: {path}: not a Dimmunix.health() dump",
                file=sys.stderr,
            )
            return 2
    print(_render_health(health, args.src))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    arglist = list(argv) if argv is not None else sys.argv[1:]
    if arglist and arglist[0] == "metrics":
        return cmd_metrics(arglist[1:])
    if arglist and arglist[0] == "health":
        return cmd_health(arglist[1:])
    parser = argparse.ArgumentParser(
        prog="dimmunix-report",
        description="Render benchmark paper-vs-measured records.",
        epilog=(
            "The 'metrics' verb renders telemetry instead "
            "(dimmunix-report metrics SRC), and the 'health' verb "
            "renders liveness-watchdog health (dimmunix-report health "
            "SRC); see each verb's --help."
        ),
    )
    parser.add_argument(
        "records",
        nargs="?",
        default=str(DEFAULT_RECORDS),
        help=f"records file (default: {DEFAULT_RECORDS})",
    )
    parser.add_argument(
        "--format",
        choices=("text", "markdown"),
        default="text",
    )
    parser.add_argument(
        "--only",
        help="filter to experiment ids starting with this prefix (e.g. E1)",
    )
    parser.add_argument(
        "--failing",
        action="store_true",
        help="show only records where the paper's claim did not hold",
    )
    parser.add_argument(
        "--history",
        metavar="SRC",
        help=(
            "also report this history's antibodies split by provenance "
            "(earned / promoted / predicted); path or DSN"
        ),
    )
    args = parser.parse_args(arglist)

    path = Path(args.records)
    if not path.exists():
        if args.history:
            # No bench records is fine when the ask is the immunity
            # report itself.
            print(_render_history(args.history))
            return 0
        print(
            f"error: {path} not found - run `pytest benchmarks/ "
            "--benchmark-only` first",
            file=sys.stderr,
        )
        return 2
    records = load_records(path)
    if args.only:
        records = [
            record
            for record in records
            if record.experiment_id.startswith(args.only)
        ]
    if args.failing:
        records = [record for record in records if not record.holds]
        if not records:
            print("all recorded comparisons hold")
            return 0
    if not records:
        print("no matching records", file=sys.stderr)
        return 1
    renderer = _render_markdown if args.format == "markdown" else _render_text
    print(renderer(records))
    if args.history:
        print()
        print(_render_history(args.history))
    return 0 if all(record.holds for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())
