"""Smoke run of the external benchmark in its traced mode.

``bench/run.py --trace 1`` has two contracts with seqlab that the
untraced mode does not: ``bench/tracing.py`` looks up every function it
wraps by name (a deleted, renamed or moved function is a KeyError), and
the per-layer counters read certificate fields such as a witness's
``samples_checked`` and a cascade's Mazur ``net_sizes`` and
``zeroed_coords``.  One short traced round per workload keeps both.
"""
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["lp2_float", "linf_exact", "c0_density",
                                      "linf_fleet"])
def test_traced_round_is_correct(workload):
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "0",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, run.stderr[-2000:]
