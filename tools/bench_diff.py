#!/usr/bin/env python3
"""Diff two BENCH_6.json documents, figure by figure.

CI calls this with the previous run's combined bench document (restored
from the actions cache) and the fresh one, and prints a per-figure table
of every numeric metric: old value, new value, percent delta, and a
REGRESSED/IMPROVED mark when the move exceeds the threshold (default
10%) in a direction the metric's name tells us how to read (rps/gbps up
is good, ns/ms down is good). Warn-only by default — smoke-mode numbers
on shared runners are for trend-watching, not gating; --strict turns
regressions into a non-zero exit for quiet machines.

Usage: bench_diff.py OLD.json NEW.json [--threshold PCT] [--strict] [--all]

  --threshold PCT  mark threshold in percent (default 10)
  --strict         exit 1 if any metric REGRESSED past the threshold
  --all            print every metric, not just the marked ones
"""
import argparse
import json
import sys

# Direction heuristics by name fragment: which way is "better"?
# INFORMATIONAL is checked FIRST: per-stage share-of-e2e attribution and
# resource-occupancy levels (the fig12 forensics leaves) describe *where*
# time went, not how much — a share shifting between stages is the
# datapath's shape changing, not a regression, and it must never trip the
# strict perf-trajectory gate. The first-position check also means
# "..._share"/"..._occupancy" wins over any fragment inside the stage
# name ("flush_wait_share" is INFO, not a "stall"-style latency).
INFORMATIONAL = ("share", "occupancy")
# "knee" covers fig12's knee_offered_rps (a knee that moves toward
# heavier load means the datapath saturates later); "completed" is a
# fig12 rung's successful calls at a pinned offered rate; "mib_s" is
# checked on the higher side BEFORE the "_s" duration suffix below so
# throughput rates (stream_mib_s) never read as latencies. A rung's
# "attempted" count follows from its pinned rate alone, so it keeps the
# unknown direction: a move there means the schedule changed.
HIGHER_IS_BETTER = ("rps", "gbps", "mib_s", "hits", "reduction", "requests",
                    "knee", "completed")
LOWER_IS_BETTER = ("ns", "ms", "cores", "steals", "dropped", "overflow",
                   "mutex", "rebuilds", "bytes", "p50", "p95", "p99",
                   "latency", "timeout", "stall", "errors", "wrong")
# Unit suffixes: a leaf measured in (micro/nano/milli)seconds is a
# latency/duration — lower is better. Suffix-only so "status" or
# "bonus" can never match a bare "us"/"s" fragment.
LOWER_IS_BETTER_SUFFIXES = ("_us", "_ns", "_ms", "_s")


def direction(path):
    """+1 higher-better, -1 lower-better, 0 unknown (any move is notable),
    None informational (reported, never a regression)."""
    leaf = path.rsplit(".", 1)[-1].lower()
    for frag in INFORMATIONAL:
        if frag in leaf:
            return None
    for frag in HIGHER_IS_BETTER:
        if frag in leaf:
            return 1
    for frag in LOWER_IS_BETTER:
        if frag in leaf:
            return -1
    for suffix in LOWER_IS_BETTER_SUFFIXES:
        if leaf.endswith(suffix):
            return -1
    return 0


def row_key(item):
    """A stable label for one dict inside a list (e.g. {"message": "Small",
    ...} -> "Small"; {"workers": 4, ...} -> "workers=4")."""
    for k in ("message", "name", "label"):
        if isinstance(item.get(k), str):
            return item[k]
    for k, v in item.items():
        if isinstance(v, (int, str)) and not isinstance(v, bool):
            return "%s=%s" % (k, v)
    return "?"


def flatten(node, prefix, out):
    """Collect numeric leaves as dotted-path -> value."""
    if isinstance(node, dict):
        for k, v in node.items():
            flatten(v, "%s.%s" % (prefix, k) if prefix else k, out)
    elif isinstance(node, list):
        for item in node:
            if isinstance(item, dict):
                flatten(item, "%s[%s]" % (prefix, row_key(item)), out)
            # lists of scalars carry no stable identity; skip them
    elif isinstance(node, bool):
        pass  # shape booleans (e.g. monotonic_1_to_4) aren't metrics
    elif isinstance(node, (int, float)):
        out[prefix] = float(node)


def diff_figure(old, new, threshold, show_all):
    """Return (lines, n_regressed) for one figure's flattened metrics."""
    old_flat, new_flat = {}, {}
    flatten(old, "", old_flat)
    flatten(new, "", new_flat)
    lines, regressed = [], 0
    for path in sorted(set(old_flat) | set(new_flat)):
        a, b = old_flat.get(path), new_flat.get(path)
        if a is None or b is None:
            lines.append("  %-58s %12s %12s %9s  %s" % (
                path,
                "-" if a is None else ("%.3f" % a),
                "-" if b is None else ("%.3f" % b),
                "", "ADDED" if a is None else "REMOVED"))
            continue
        if a == 0.0:
            pct = 0.0 if b == 0.0 else float("inf")
        else:
            pct = 100.0 * (b - a) / abs(a)
        mark = ""
        if abs(pct) > threshold:
            d = direction(path)
            if d is None:
                mark = "INFO"
            elif d == 0:
                mark = "CHANGED"
            elif pct * d < 0:
                mark = "REGRESSED"
                regressed += 1
            else:
                mark = "IMPROVED"
        if mark or show_all:
            lines.append("  %-58s %12.3f %12.3f %+8.1f%%  %s"
                         % (path, a, b, pct, mark))
    return lines, regressed


def main():
    ap = argparse.ArgumentParser(
        description="Per-figure diff of two BENCH_6.json documents")
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--threshold", type=float, default=10.0)
    ap.add_argument("--strict", action="store_true")
    ap.add_argument("--all", action="store_true", dest="show_all")
    args = ap.parse_args()

    try:
        with open(args.old) as f:
            old = json.load(f)
        with open(args.new) as f:
            new = json.load(f)
    except (OSError, ValueError) as e:
        print("bench_diff: %s" % e, file=sys.stderr)
        return 2

    total_regressed = 0
    for fig in sorted(set(old) | set(new)):
        if fig not in old or fig not in new:
            print("== %s: only in %s" % (fig, "new" if fig in new else "old"))
            continue
        lines, regressed = diff_figure(old[fig], new[fig],
                                       args.threshold, args.show_all)
        total_regressed += regressed
        print("== %s (threshold %.0f%%)" % (fig, args.threshold))
        if lines:
            print("  %-58s %12s %12s %9s" % ("metric", "old", "new", "delta"))
            for line in lines:
                print(line)
        else:
            print("  no metric moved more than %.0f%%" % args.threshold)
    if total_regressed:
        print("bench_diff: %d metric(s) REGRESSED past %.0f%%%s"
              % (total_regressed, args.threshold,
                 "" if args.strict else " (warn-only; use --strict to gate)"))
    return 1 if (args.strict and total_regressed) else 0


if __name__ == "__main__":
    sys.exit(main())
