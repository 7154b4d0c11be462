"""The benchmark's outside-in tracer (perfbench/tracer.py) must reach every
layer it targets. Each traced method has to stay an own member of its
class, not inherited and not a module function assigned in a class body, or
the tracer reports it missing or unwrapped."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_PROBE = """
import json
import kgsym.cli
import tracer
t = tracer.Tracer()
t.install()
print(json.dumps({"rebound": len(t.rebound), "missing": t.missing,
                  "unwrapped": t.unwrapped_references()}))
"""


def test_tracer_reaches_every_target():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run([sys.executable, "-c", _PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    report = json.loads(proc.stdout)
    assert report["missing"] == []
    assert report["unwrapped"] == []
    assert report["rebound"] > 0
