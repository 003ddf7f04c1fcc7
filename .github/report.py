"""Run a command that prints a JSON report, and write the report as
tests/test_cli.py's GOLDEN pins serialise it: sorted keys, no spaces, no
trailing newline, and no wall-time `seconds` field.  A sha256 pin of the
written file then holds across runs.

    python .github/report.py [--max-rss MB] OUT COMMAND...

Exits nonzero when the command fails, and when the peak RSS of the command
(ru_maxrss of the waited-for child, in KiB) reaches MB.
"""
import argparse
import json
import resource
import subprocess
import sys

parser = argparse.ArgumentParser()
parser.add_argument("--max-rss", type=float, metavar="MB")
parser.add_argument("out")
parser.add_argument("command", nargs=argparse.REMAINDER)
args = parser.parse_args()
report = json.loads(subprocess.run(args.command, stdout=subprocess.PIPE, check=True).stdout)
report.pop("seconds", None)
with open(args.out, "w", encoding="ascii") as fh:
    fh.write(json.dumps(report, sort_keys=True, separators=(",", ":")))
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"peak RSS {peak:.0f} MB")
sys.exit(args.max_rss is not None and peak >= args.max_rss)
