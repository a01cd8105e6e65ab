"""Golden bytes for every trainer: the run matrix of ``golden_matrix.py``
against ``golden.json``.

On the numpy/BLAS build the file was made on, every run's params_hash and
the sha256 of its metrics.tsv, checkpoint and printed report must match.
On any build, its weight norms (an experiment's report values) must match
to 1e-9 relative, or 1e-12 absolute for tensors such as the attention key
bias, whose gradient is zero up to rounding. Regenerate the file with
``python tests/golden_matrix.py --write`` after a change that moves
trained bytes on purpose.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).parent
BYTE_KEYS = ("params_hash", "checkpoint_sha256", "metrics_sha256",
             "report_sha256")


def _run_matrix() -> dict:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, str(HERE / "golden_matrix.py")],
                          env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout)


def _close(want: dict | list, got: dict | list) -> bool:
    if isinstance(want, dict):
        if sorted(want) != sorted(got):
            return False
        want, got = list(want.values()), [got[k] for k in want]
    return len(want) == len(got) and all(
        math.isclose(w, g, rel_tol=1e-9, abs_tol=1e-12)
        for w, g in zip(want, got))


def test_golden_bytes_of_every_trainer(record_property):
    want = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    got = _run_matrix()
    assert sorted(got["runs"]) == sorted(want["runs"])
    bytes_check = got["build"] == want["build"]
    check = ("bytes and norms (build matches golden.json)" if bytes_check
             else f"norms only: build {got['build']} is not golden.json's "
                  f"{want['build']}")
    record_property("golden_check", check)
    print(f"golden check: {check}")
    differ = []
    for name, w in want["runs"].items():
        g = got["runs"][name]
        values = "norms" if "norms" in w else "values"
        if not _close(w[values], g[values]):
            differ.append(f"{name}: {values}")
        if bytes_check:
            differ += [f"{name}: {key}" for key in BYTE_KEYS
                       if key in w and w[key] != g[key]]
    assert not differ, f"{check}; runs that differ from golden.json: {differ}"
