import io

from e2ebench.compare import compare

SPEC = {
    "workloads": [{"name": "w", "why": ""}],
    "end_to_end": [
        {"name": "time_cal", "unit": "cal", "better": "lower", "bound": 0.1},
    ],
}


def doc(times, failed=0, events=100.0, seed=1):
    results = [{"workload": "w", "trace": 0, "values": {"time_cal": t},
                "run": {"failed": failed}} for t in times]
    results.append({"workload": "w", "trace": 1,
                    "values": {"sim.events": events}, "run": {"failed": 0}})
    return {"seed": seed, "results": results}


def verdict(a, b):
    out = io.StringIO()
    code = compare(a, b, SPEC, out=out)
    return code, out.getvalue()


STEADY = [10.0, 10.1, 9.9, 10.05, 9.95]
NOISY = [8.0, 12.0, 9.0, 11.0, 10.0]


def test_equal_steady_runs_are_ok():
    code, text = verdict(doc(STEADY), doc(STEADY))
    assert code == 0 and " ok" in text and "0 breach" in text


def test_worse_by_more_than_the_bound_is_a_breach():
    code, text = verdict(doc(STEADY), doc([v * 1.2 for v in STEADY]))
    assert code == 1 and "BREACH" in text


def test_spread_wider_than_the_bound_is_unresolved_not_unchanged():
    code, text = verdict(doc(NOISY), doc(NOISY))
    assert code == 0 and "unresolved" in text


def test_noisy_but_every_run_better_is_resolved():
    code, text = verdict(doc(NOISY), doc([v * 0.5 for v in NOISY]))
    assert code == 0 and "unresolved" not in text


def test_exact_metrics_must_match_to_the_last_digit():
    code, text = verdict(doc(STEADY), doc(STEADY, events=100.0000001))
    assert code == 1 and "sim.events" in text


def test_a_failed_operation_is_a_breach():
    code, text = verdict(doc(STEADY), doc(STEADY, failed=1))
    assert code == 1 and "fail_share" in text


def test_other_seed_is_refused():
    code, _ = verdict(doc(STEADY), doc(STEADY, seed=2))
    assert code == 1
