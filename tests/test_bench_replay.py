"""The benchmark's own output checks (bench/workloads.py) on fixed seeds,
never the held-out 1001-1010: set-up, two rounds, then every check."""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
workloads = pytest.importorskip("workloads")


@pytest.mark.parametrize("name, seed", [
    ("phase-sweep", 1), ("phase-sweep", 2), ("phase-sweep", 3),
    ("response-sweep", 1), ("response-sweep", 2), ("response-sweep", 3),
    ("spot-queries", 1)])
def test_every_item_passes_the_benchmark_check(name, seed, tmp_path):
    wl = workloads.WORKLOADS[name](seed, str(tmp_path))
    try:
        wl.setup()
        records = [(item, wl.run(item)) for _ in range(2)
                   for item in wl.next_round()]
        assert [(item.kind, item.spec) for item, out in records
                if not wl.check(item, out)] == []
        assert wl.literal_zero_misses == 0
    finally:
        wl.close()
