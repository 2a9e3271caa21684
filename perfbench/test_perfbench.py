"""Tests of the benchmark's own machinery: seeded inputs and the tail percentile.

    python3 -m pytest perfbench
"""

import pytest

import run
import workloads


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_same_seed_gives_same_inputs_digest(workload, tmp_path):
    digests = []
    for seed, directory in ((7, "a"), (7, "b"), (8, "c")):
        workloads.generate(workload, seed, tmp_path / directory)
        digests.append(workloads.inputs_digest(tmp_path / directory))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


@pytest.mark.parametrize(
    "count, percentile, rank",
    [(100, 90.0, 90), (50, 80.0, 40), (1000, 90.0, 900), (5, 20.0, 1)],
)
def test_tail_percentile_keeps_ten_samples_beyond_and_caps_at_p90(count, percentile, rank):
    samples = [float(i) for i in range(count, 0, -1)]
    assert run.tail_percentile(samples) == (percentile, float(rank))
