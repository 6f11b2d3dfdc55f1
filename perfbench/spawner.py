"""Starts `robinsonblocks` CLI processes for a worker and times them.

Linux carries a process's resident high-water mark across fork and exec,
so a child's ``ru_maxrss`` is at least its parent's size when it was
started.  The worker grows while it checks outputs (it holds reference
grids), so children are started from this small process instead.

One JSON request per stdin line: {"argv": [...], "stdout": PATH, "stderr": PATH}.
One JSON reply per stdout line: {"latency_s": ..., "returncode": ..., "maxrss_kb": ...}.
The process exits when stdin closes.
"""

import json
import os
import subprocess
import sys
from time import perf_counter


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err, stdin=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            latency = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"latency_s": latency, "returncode": proc.returncode, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
