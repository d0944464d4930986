"""Set-up cost in a fresh interpreter: ``import rpif.cli`` plus parsing one config.

Usage, from the checkout root with ``src`` on ``PYTHONPATH``::

    python3 perfbench/setup_child.py CONFIG

Prints one JSON object: ``import_s`` and ``parse_s`` (wall seconds) and
``probes`` (speed-probe times over the quarter second after).  The config is parsed through
``rpif validate``, the command-line surface, so a change of internal names
cannot break the measurement.  The probes run after the timed part: numpy
is already loaded when the probe module imports it, and the timed import
still pays for numpy, as a user's first command does.
"""

import contextlib
import io
import json
import os
import sys
import time

PROBE_SECONDS = 0.25  # the speed is averaged over this long after the import

start = time.perf_counter()
import rpif.cli  # noqa: E402

imported = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = rpif.cli.main(["validate", "--config", sys.argv[1]])
parsed = time.perf_counter()
if code != 0:
    sys.exit(f"rpif validate exited with {code} on {sys.argv[1]}")

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench.probe import probe  # noqa: E402

probes = []
probe_end = time.perf_counter() + PROBE_SECONDS
while time.perf_counter() < probe_end:
    probes.append(probe())
print(json.dumps({"import_s": imported - start, "parse_s": parsed - imported,
                  "probes": probes}))
