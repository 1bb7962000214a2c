#!/usr/bin/env python3
"""Compare the "sections" blocks of two HIRA_JSON bench artifacts.

The observability contract (BUILDING.md "Metrics and event tracing")
says HIRA_METRICS / HIRA_TRACE_EVENTS may add information to a bench
artifact ("metrics_level", per-point "metrics" objects) but must never
change a result the driver reports: the "sections" arrays — every
figure/table series, every row label, every value — must be bitwise
identical between a metrics-on and a metrics-off run. The result-cache
contract (BUILDING.md "Result cache") extends the same bar to
cold-vs-warm reruns. CI enforces both with this script; any drift is
an instrumentation or cache-fidelity bug.

Usage: compare_bench_sections.py [--tolerance REL] A.json B.json

The default is exact (bitwise) comparison. --tolerance REL accepts a
relative deviation per value (|a-b| <= REL * max(|a|, |b|)) for
workflows that compare across legitimately-perturbed runs, e.g.
different machines with timing-derived values; the structural checks
(section/row/column labels and counts) always stay exact.

Exits 0 when the sections match. Exits 1 otherwise, with a full diff
listing on stderr and a final "first divergence:" line naming the
first differing section, row, and column — the thing to paste into a
bug report. Also exits 1 when neither artifact has a section: two
empty blocks match without comparing anything, so such a check would
pass vacuously.
"""

import argparse
import json
import sys


def load_sections(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if "sections" not in doc:
        sys.exit(f"error: {path}: no \"sections\" block")
    return doc["sections"]


def describe(sec, idx):
    label = sec.get("label", "") if isinstance(sec, dict) else ""
    return f"section #{idx} ({label!r})"


def values_equal(va, vb, tolerance):
    if va == vb:
        return True
    if tolerance <= 0.0:
        return False
    if not (isinstance(va, (int, float)) and isinstance(vb, (int, float))):
        return False
    if va is None or vb is None:
        return False
    return abs(va - vb) <= tolerance * max(abs(va), abs(vb))


def main(argv):
    parser = argparse.ArgumentParser(
        description="Compare the sections blocks of two bench artifacts")
    parser.add_argument("a", metavar="A.json")
    parser.add_argument("b", metavar="B.json")
    parser.add_argument(
        "--tolerance", type=float, default=0.0, metavar="REL",
        help="allowed relative deviation per value "
             "(default 0: exact match)")
    opts = parser.parse_args(argv[1:])
    a_path, b_path = opts.a, opts.b
    a, b = load_sections(a_path), load_sections(b_path)
    if not a and not b:
        print(f"no sections in {a_path} or {b_path}: nothing to compare",
              file=sys.stderr)
        return 1

    errors = []
    # (section label, row label, column label) of the first differing
    # value — the one-line answer to "where did it go wrong first?".
    first_divergence = None

    def diverge(sec, row_label, col):
        nonlocal first_divergence
        if first_divergence is None:
            first_divergence = (sec.get("label"), row_label, col)

    if len(a) != len(b):
        errors.append(f"section count differs: {len(a)} vs {len(b)}")
    for i, (sa, sb) in enumerate(zip(a, b)):
        where = describe(sa, i)
        if sa.get("label") != sb.get("label"):
            errors.append(f"{where}: label differs: "
                          f"{sa.get('label')!r} vs {sb.get('label')!r}")
        if sa.get("columns") != sb.get("columns"):
            errors.append(f"{where}: columns differ")
        ra, rb = sa.get("rows", []), sb.get("rows", [])
        if len(ra) != len(rb):
            errors.append(f"{where}: row count differs: "
                          f"{len(ra)} vs {len(rb)}")
        columns = sa.get("columns", [])
        for j, (rowa, rowb) in enumerate(zip(ra, rb)):
            if rowa.get("label") != rowb.get("label"):
                errors.append(f"{where} row #{j}: label differs: "
                              f"{rowa.get('label')!r} vs "
                              f"{rowb.get('label')!r}")
            # Values must match exactly by default (the emitter prints
            # doubles with a fixed format, so bitwise-identical results
            # serialize to identical strings and parse to identical
            # floats); --tolerance relaxes values only.
            va, vb = rowa.get("values", []), rowb.get("values", [])
            if len(va) != len(vb):
                errors.append(f"{where} row #{j} "
                              f"({rowa.get('label')!r}): value count "
                              f"differs: {len(va)} vs {len(vb)}")
                diverge(sa, rowa.get("label"), None)
                continue
            bad = [k for k in range(len(va))
                   if not values_equal(va[k], vb[k], opts.tolerance)]
            if bad:
                col = (columns[bad[0]]
                       if bad[0] < len(columns) else f"#{bad[0]}")
                diverge(sa, rowa.get("label"), col)
                errors.append(f"{where} row #{j} "
                              f"({rowa.get('label')!r}): values differ "
                              f"at column(s) "
                              f"{[columns[k] if k < len(columns) else k for k in bad]}:\n"
                              f"    {a_path}: {va}\n"
                              f"    {b_path}: {vb}")

    if errors:
        print(f"sections of {a_path} and {b_path} DIFFER:",
              file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        if first_divergence is not None:
            sec, row, col = first_divergence
            print(f"first divergence: section {sec!r}, row {row!r}, "
                  f"column {col!r}", file=sys.stderr)
        return 1
    n_rows = sum(len(s.get("rows", [])) for s in a)
    how = (f"within relative tolerance {opts.tolerance:g}"
           if opts.tolerance > 0.0 else "identical")
    print(f"sections match: {len(a)} sections, {n_rows} rows {how}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
