"""The benchmark's exact counts repeat between runs and match enumeration.

Run with ``python3 -m pytest perfbench/test_counts.py``.
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from stpca import recovery, tensor  # noqa: E402

COUNT_SCRIPT = f"""
import json, sys
sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]
import workloads
counts = {{}}
for name, cls in workloads.WORKLOADS.items():
    wl = cls(0, "")
    if name == "limits":
        assert wl.op(0)
    counts[name] = wl.counts()
print(json.dumps(counts))
"""


def _counts_in_fresh_process() -> dict:
    proc = subprocess.run([sys.executable, "-c", COUNT_SCRIPT], capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


def _enumerated(n: int, t: int, forbidden: set[int], parity: int) -> int:
    return sum(1 for _ in recovery.enumerate_candidates(n, t, forbidden, parity))


def test_counts_repeat_between_runs():
    first, second = _counts_in_fresh_process(), _counts_in_fresh_process()
    assert first == second
    assert first["limits"]["lowdeg.even_all_count.entries"] > 0


def test_candidate_counts_match_enumeration():
    scan = workloads.Scan
    assert workloads.Scan(0, "").counts()["recovery.argmax_over_Ut.candidates"] == _enumerated(
        scan.n, scan.t, set(), scan.p)
    dense = workloads.Dense
    # round q of recover_multi forbids the q*k indices already recovered
    expected = sum(_enumerated(dense.n, dense.t, set(range(1, q * dense.k + 1)), dense.p)
                   for q in range(dense.r))
    assert workloads.Dense(0, "").counts()["recovery.argmax_over_Ut.candidates"] == expected


def test_tuple_count_matches_enumeration():
    g = workloads.General
    assert g.ell == 2
    expected = 0
    for cut in range(1, g.p):
        parts = (cut, g.p - cut)
        for first in recovery.enumerate_candidates(g.n, g.t, set(), parts[0]):
            expected += _enumerated(g.n, g.t, set(first.support), parts[1])
    assert workloads.General(0, "").counts()["recovery.recover_general.tuples"] == expected


def test_sstf1_bytes_match_file_size(tmp_path):
    path = os.path.join(tmp_path, "y.sstf")
    for n, p in itertools.product((1, 3, 5), (2, 3)):
        tensor.write_sstf1(tensor.DenseTensor(n, p, np.zeros(n**p)), path)
        assert os.path.getsize(path) == workloads.sstf1_bytes(n, p)
