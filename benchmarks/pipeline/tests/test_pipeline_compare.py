"""compare.py verdicts."""

import compare


def summary(median, q1, q3, values, better="lower", bound=0.25):
    return {"median": median, "q1": q1, "q3": q3, "values": values,
            "better": better, "bound": bound}


def test_a_change_within_the_bound_is_the_same():
    base = summary(10.0, 9.5, 10.5, [9.5, 10.0, 10.5])
    new = summary(11.0, 10.5, 11.5, [10.5, 11.0, 11.5])
    assert compare.verdict(base, new) == (0.1, "same")


def test_moves_past_the_bound_follow_the_direction():
    base = summary(10.0, 9.5, 10.5, [9.5, 10.0, 10.5])
    slower = summary(14.0, 13.5, 14.5, [13.5, 14.0, 14.5])
    assert compare.verdict(base, slower)[1] == "worse"
    assert compare.verdict(slower, base)[1] == "better"
    rate = summary(10.0, 9.5, 10.5, [9.5, 10.0, 10.5], better="higher")
    faster = summary(13.0, 12.5, 13.5, [12.5, 13.0, 13.5], better="higher")
    assert compare.verdict(rate, faster)[1] == "better"


def test_a_spread_wider_than_the_bound_is_unresolved():
    base = summary(10.0, 8.0, 13.0, [8.0, 10.0, 13.0])
    new = summary(10.5, 9.5, 11.0, [9.5, 10.5, 11.0])
    assert compare.verdict(base, new)[1] == "unresolved"
    # ... unless every new run beats every base run.
    new = summary(5.0, 4.0, 7.0, [4.0, 5.0, 7.0])
    assert compare.verdict(base, new)[1] == "better"


def test_a_zero_base_compares_absolutely():
    base = summary(0.0, 0.0, 0.0, [0.0, 0.0], bound=0.0)
    assert compare.verdict(base, base) == (0.0, "same")
    failing = summary(0.01, 0.0, 0.02, [0.0, 0.02], bound=0.0)
    assert compare.verdict(base, failing)[1] == "unresolved"
