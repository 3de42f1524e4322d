"""Write the CLI outputs of every call of the benchmark workloads, seed 1,
or compare two such output trees.

    python3 tools/study_outputs.py SRC OUT
    python3 tools/study_outputs.py --compare BASE HEAD

The first form imports ``highcontrast`` from the directory SRC and writes
the outputs of each call of each workload of ``perfbench/studies.py``
(which it only reads) to OUT/<workload>/<call>/, with the config beside
them as OUT/<workload>/<call>.json.  It prints one line per call with its
exit code.

The second form compares two OUT directories written by the first.  It
prints "identical" if every file matches byte for byte; else one line per
differing file.  For a CSV or JSON file whose fields line up, the line
gives how many of its numeric fields differ and their largest relative
difference |a - b| / max(|a|, |b|), in a CSV file also per column.  Text
fields that differ, a different field count, and a file present in one
tree only are named as such.
"""

import csv
import filecmp
import json
import math
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

import studies  # noqa: E402


def main(src: str, out: str) -> int:
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    from highcontrast import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"highcontrast was imported from {cli.__file__}, not from {src}")
    for workload, calls in studies.WORKLOADS.items():
        directory = os.path.join(out, workload)
        os.makedirs(directory)
        for call in calls(random.Random(1)):
            config = os.path.join(directory, call.name + ".json")
            with open(config, "w") as fh:
                json.dump(call.config, fh)
            code = cli.main([call.task, "--config", config,
                             "--out", os.path.join(directory, call.name)])
            print(f"{workload}/{call.name}: exit {code}")
    return 0


def _files(root: str) -> set:
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


def _leaves(value):
    """The keys and leaf values of a JSON document, in document order."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _leaves(item)
    elif isinstance(value, list):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def _number(field):
    """The field as a float, or None for a text field."""
    if isinstance(field, bool):
        return None
    try:
        return float(field)
    except (TypeError, ValueError):
        return None


def _fields(path: str) -> list:
    """(column, field) pairs of a CSV file, whose first row names the
    columns, or of a JSON document, all in the column ""."""
    with open(path, newline="") as fh:
        if path.endswith(".json"):
            return [("", v) for v in _leaves(json.load(fh))]
        rows = list(csv.reader(fh))
    names = rows[0] if rows else []
    return [(names[j] if j < len(names) else str(j), cell)
            for row in rows for j, cell in enumerate(row)]


def _relative(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def describe(base: str, head: str) -> str:
    """One line on how the CSV or JSON file ``head`` differs from ``base``."""
    if not base.endswith((".csv", ".json")):
        return "differs"
    old, new = _fields(base), _fields(head)
    if len(old) != len(new):
        return f"{len(old)} fields, {len(new)} in the new tree"
    worst, moved, numeric, text = {}, 0, 0, 0
    for (name, a), (_, b) in zip(old, new):
        x, y = _number(a), _number(b)
        if x is None or y is None:
            text += a != b
            continue
        numeric += 1
        rel = _relative(x, y)
        if rel > 0:
            moved += 1
            worst[name] = max(worst.get(name, 0.0), rel)
    line = f"{moved} of {numeric} numeric fields differ"
    if worst:
        line += f", largest relative difference {max(worst.values()):.2e}"
        columns = [f"{name} {rel:.2e}" for name, rel in worst.items() if name]
        line += f" ({', '.join(columns)})" if columns else ""
    return line + (f"; {text} text fields differ" if text else "")


def compare(base: str, head: str) -> int:
    old, new = _files(base), _files(head)
    lines = [f"{path}: only in {base}" for path in sorted(old - new)]
    lines += [f"{path}: only in {head}" for path in sorted(new - old)]
    for path in sorted(old & new):
        a, b = os.path.join(base, path), os.path.join(head, path)
        if not filecmp.cmp(a, b, shallow=False):
            lines.append(f"{path}: {describe(a, b)}")
    print("\n".join(lines) if lines else "identical")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"]:
        sys.exit(compare(*sys.argv[2:]))
    sys.exit(main(*sys.argv[1:]))
