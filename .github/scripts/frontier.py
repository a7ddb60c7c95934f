"""Run one command and append its wall time and peak RSS to the step summary.

    python .github/scripts/frontier.py zdg-forge verify-lemmas --p 13

The command's stdout is discarded and its exit status is returned.  Peak RSS
is ru_maxrss of the waited-for children (KiB on Linux): the command's own
peak, as it is the only child.  The line goes to the file named by
GITHUB_STEP_SUMMARY, or to stdout when that is unset.
"""

import os
import resource
import subprocess
import sys
import time


def main(argv):
    started = time.perf_counter()
    status = subprocess.run(argv, stdout=subprocess.DEVNULL).returncode
    wall = time.perf_counter() - started
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    line = f"`{' '.join(argv)}`: {wall:.1f} s wall, {peak_mb:.0f} MB peak RSS, exit {status}\n"
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as fh:
            fh.write(line)
    else:
        sys.stdout.write(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
