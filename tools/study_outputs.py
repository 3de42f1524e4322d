"""Write the CLI outputs of every call of the benchmark workloads, seed 1.

    python3 tools/study_outputs.py SRC OUT

imports ``highcontrast`` from the directory SRC and writes the outputs of
each call of each workload of ``perfbench/studies.py`` (which it only
reads) to OUT/<workload>/<call>/, with the config beside them as
OUT/<workload>/<call>.json.  Run it on two trees and ``diff -r`` the two
OUT directories to see whether a change moves any output byte.  Prints one
line per call with its exit code.
"""

import json
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


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
