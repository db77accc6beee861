import types

from wavebench import workloads
from wavebench.worker import run_requests


class _Fixed:
    """Batches of two requests of ``latency`` seconds each; counts what it served."""

    def __init__(self, latency):
        self.latency = latency
        self.served = 0

    def batches(self):
        while True:
            yield ["a", "b"]

    def request(self, ops, spec):
        self.served += 1
        return workloads.Outcome(self.latency)


def test_pauses_fall_at_the_first_batch_boundary_past_each_fraction_of_the_budget():
    workload = _Fixed(1.0)
    served_at_pause = []
    outcomes = run_requests(workload, types.SimpleNamespace(), seconds=12, pauses=3,
                            pause=lambda: served_at_pause.append(workload.served))
    assert len(outcomes) == 12
    assert [o.batch for o in outcomes] == [b for b in range(6) for _ in "ab"]
    assert served_at_pause == [4, 6, 10]  # busy >= 3, 6 and 9 s


def test_one_long_batch_takes_every_pause_it_passed():
    workload = _Fixed(5.0)
    served_at_pause = []
    run_requests(workload, types.SimpleNamespace(), seconds=12, pauses=3,
                 pause=lambda: served_at_pause.append(workload.served))
    assert served_at_pause == [2, 2, 2]  # busy 10 s is past 3, 6 and 9 s


def test_pauses_the_last_batch_skipped_over_are_taken_before_returning():
    workload = _Fixed(1.0)
    served_at_pause = []
    run_requests(workload, types.SimpleNamespace(), seconds=4, pauses=3,
                 pause=lambda: served_at_pause.append(workload.served))
    assert served_at_pause == [2, 2, 4]  # busy 2 s is past 1 and 2 s; 3 s is skipped


def test_a_fixed_request_count_takes_no_pause():
    calls = []
    outcomes = run_requests(_Fixed(1.0), types.SimpleNamespace(), requests=5, pauses=3,
                            pause=lambda: calls.append(1))
    assert len(outcomes) == 5
    assert calls == []
