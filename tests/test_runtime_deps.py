"""numpy is the only runtime dependency: the CLI imports nothing else.

networkx and scipy are test-only (the ``test`` extra); they serve as
oracles for the topology's Dijkstra, the workflow's DAG orders and the
NNLS fit, and must never be pulled in by the package itself.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def test_cli_import_loads_neither_networkx_nor_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    code = ("import sys, repro.cli; "
            "print(sorted({'networkx', 'scipy'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
