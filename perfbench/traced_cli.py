"""Run `castillon.cli.main` with the tracing shims installed.

Usage: PERFBENCH_SPANS=<out.json> PERFBENCH_ITEM=<id> PERFBENCH_PASS=<n>
       python perfbench/traced_cli.py <castillon arguments>
"""

import os
import sys

from shim import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.item = int(os.environ["PERFBENCH_ITEM"])
    tracer.pass_no = int(os.environ["PERFBENCH_PASS"])
    tracer.install()
    import castillon.cli

    try:
        code = castillon.cli.main(sys.argv[1:])
    finally:
        tracer.dump(os.environ["PERFBENCH_SPANS"])
    sys.exit(code)
