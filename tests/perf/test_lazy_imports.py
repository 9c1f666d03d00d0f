"""Sim processes must not load the heavy numeric/graph libraries.

numpy and networkx together cost a few hundred milliseconds of import time
and tens of MB of resident memory.  The worksite, sweep and fuzz entry
points never need them (numpy serves only ``repro.simval``, networkx only
the risk/SoS graph analyses), so a fresh interpreter importing those entry
points must leave both out of ``sys.modules``.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)


def test_sim_entry_points_do_not_import_numpy_or_networkx():
    code = (
        "import sys\n"
        "import repro.scenarios.worksite, repro.runner, repro.fuzz\n"
        "print(','.join(m for m in ('numpy', 'networkx') if m in sys.modules))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True,
    ).stdout.strip()
    assert out == "", f"sim entry points imported: {out}"
