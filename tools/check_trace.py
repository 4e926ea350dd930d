#!/usr/bin/env python3
"""Validate an exported Chrome trace_event JSON file.

Usage: check_trace.py <trace.json> [--timeline]

Checks that the file parses, contains trace events, and holds at least
one *complete span tree*: a trace (pid) whose spans connect into one
tree rooted at a gateway request span, reaching both the transport
(rpc.*) and an execution span (nic.* / host.*). Exit code 0 on success.

With --timeline the file is a merged Perfetto export (lnicctl
timeline) and must also hold NPU tracks: at least one "nic:" process
carrying busy spans. Every nic.execute span must carry a tenant arg
when any does (tenant-annotated runs annotate uniformly).
"""
import json
import sys
from collections import defaultdict


def fail(message):
    print(f"check_trace: FAIL: {message}")
    sys.exit(1)


def check_timeline(events):
    """Validates the NPU track family of a merged export."""
    nic_processes = set()
    for event in events:
        args = event.get("args", {})
        if (event.get("ph") == "M" and event.get("name") == "process_name"
                and str(args.get("name", "")).startswith("nic:")):
            nic_processes.add(event.get("pid"))
    nic_spans = sum(1 for event in events
                    if event.get("ph") == "X"
                    and event.get("pid") in nic_processes)
    if not nic_processes:
        fail("timeline has no nic:<name> processes")
    if nic_spans < 1:
        fail("timeline nic processes carry no busy spans")

    # Tenant annotations: if any nic.execute span has args.tenant, all
    # must (a tenant-namespaced run annotates every execution).
    executes = [e for e in events
                if e.get("ph") == "X" and e.get("name") == "nic.execute"]
    tenanted = [e for e in executes if "tenant" in e.get("args", {})]
    if tenanted and len(tenanted) != len(executes):
        fail(f"only {len(tenanted)}/{len(executes)} nic.execute spans "
             f"carry a tenant arg")
    print(f"check_trace: timeline OK ({len(nic_processes)} nic process(es), "
          f"{nic_spans} npu spans, {len(tenanted)} tenant-annotated "
          f"executions)")


def main():
    args = [a for a in sys.argv[1:] if a != "--timeline"]
    timeline = "--timeline" in sys.argv[1:]
    if len(args) != 1:
        print(__doc__)
        sys.exit(2)
    path = args[0]
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"cannot parse {path}: {err}")

    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("no traceEvents array")

    if timeline:
        check_timeline(events)

    # Group complete ("X") events by trace (pid), keyed by span id.
    traces = defaultdict(dict)
    for event in events:
        if event.get("ph") != "X":
            continue
        args = event.get("args", {})
        span = args.get("span_id")
        if span is None:
            continue
        traces[event.get("pid")][str(span)] = {
            "name": event.get("name", ""),
            "parent": str(args.get("parent", "0")),
            "ts": event.get("ts"),
            "dur": event.get("dur"),
        }

    if not traces:
        fail("no complete (ph=X) span events")

    complete_trees = 0
    for pid, spans in traces.items():
        roots = [s for s in spans.values() if s["parent"] not in spans]
        if len(roots) != 1:
            continue  # disconnected or multi-rooted
        names = {s["name"] for s in spans.values()}
        has_gateway = any(n == "request" or n.startswith("gateway.")
                          for n in names)
        has_transport = any(n.startswith("rpc.") for n in names)
        has_execute = any(n.startswith(("nic.", "host.")) for n in names)
        if not (has_gateway and has_transport and has_execute):
            continue
        if any(s["ts"] is None or s["dur"] is None for s in spans.values()):
            fail(f"trace {pid}: span missing ts/dur")
        complete_trees += 1
        print(f"check_trace: trace {pid}: {len(spans)} spans, "
              f"{len(names)} kinds, root '{roots[0]['name']}'")

    if complete_trees < 1:
        fail("no complete span tree (gateway -> rpc -> execution)")
    print(f"check_trace: OK ({complete_trees} complete span tree(s) "
          f"across {len(traces)} trace(s))")


if __name__ == "__main__":
    main()
