"""One traced `incutime.cli.main` call in a fresh process.

    python3 -X importtime perfbench/child.py REPORT.json CLI-ARGS...

Used by ``run.py --trace 1`` for the cold-process workload.  Imports the
checkout's ``incutime.cli`` (timed by ``-X importtime`` on stderr), runs the
command under the tracer and writes the op's metrics and the wrap points it
could not find to REPORT.json.  Exits with the command's exit code.
"""

import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import incutime.cli  # noqa: E402  (the import being measured)
import tracer  # noqa: E402

if Path(incutime.cli.__file__).resolve().parent != SRC / "incutime":
    sys.exit(f"incutime resolves to {incutime.cli.__file__}, not to {SRC}")

with tracer.Tracer() as t:
    rc = t.run_op(incutime.cli.main, sys.argv[2:])
Path(sys.argv[1]).write_text(json.dumps({"metrics": t.op_metrics(), "missing": t.missing}))
sys.exit(rc)
