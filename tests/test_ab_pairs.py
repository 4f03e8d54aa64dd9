"""The verdicts tests/ab_pairs.py prints, on fixed numbers."""

import pytest

from ab_pairs import median_move, verdict

WIDE = [0.6, 0.8, 1.0, 1.2, 1.4]  # quartiles 0.7 and 1.3: a spread of 0.6, wider than 25 % of 1.0


def test_verdict_line_on_fixed_numbers():
    assert verdict([1.0, 1.0, 1.0, 1.0, 1.0], [1.3, 1.3, 1.3, 1.3, 1.3], True, 0.25) == (
        "parent median 1 (quartiles 1, 1; IQR 0), change median 1.3 (quartiles 1.3, 1.3); "
        "change better in 0, worse in 5 of 5 pairs; claim does not hold; "
        "against the 25% bound: worse"
    )


@pytest.mark.parametrize("parent, change, lower_is_better, bound, regression", [
    # the median is worse by more than the bound
    ([1.0] * 5, [1.3] * 5, True, 0.25, "worse"),
    ([1.0] * 5, [0.98] * 5, False, 0.01, "worse"),
    # the parent's own spread is wider than the bound, and some parent run beats some change run
    (WIDE, [0.9, 1.0, 1.0, 1.0, 1.1], True, 0.25, "unresolved"),
    (WIDE, [0.5, 0.5, 0.5, 0.5, 0.65], True, 0.25, "unresolved"),
    # every change run beats every parent run, so a wide spread does not hide a regression
    (WIDE, [0.5] * 5, True, 0.25, "no worse"),
    # worse by less than the bound, with a narrow spread
    ([0.99, 1.0, 1.0, 1.0, 1.01], [1.2] * 5, True, 0.25, "no worse"),
    ([1.0] * 5, [1.0] * 5, False, 0.01, "no worse"),
])
def test_verdict_against_the_bound(parent, change, lower_is_better, bound, regression):
    assert verdict(parent, change, lower_is_better, bound).endswith(f"bound: {regression}")


def test_median_move_is_relative_to_the_parent():
    assert median_move([2.0, 4.0, 4.0], [5.0, 5.0, 1.0]) == pytest.approx(0.25)
