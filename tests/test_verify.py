"""The verification suite as a library call: what one run computes and checks."""

import pytest

from skewdyck import closed_form, reverse, verify
from skewdyck.verify import run_verification


def test_one_run_expands_r_once(monkeypatch):
    # every R check reads one expansion; each expansion is a Newton solve
    calls = []
    real = closed_form.r_series

    def counted(order):
        calls.append(order)
        return real(order)

    monkeypatch.setattr(closed_form, "r_series", counted)
    report = run_verification(order=16, t_list=(2,))
    assert report.passed
    assert len(calls) == 1


@pytest.mark.parametrize("order", [8, 12])
def test_reflected_residual_compared_on_its_window(monkeypatch, order):
    # the reflected kernel at 1/s1 is known through z^(order - 8):
    # a wrong z^0 term there must fail the line, even at the lowest orders
    real = verify.horner

    def corrupted(poly, v):
        value = real(poly, v)
        if poly is reverse.RECIPROCAL_KERNEL and v.valuation == -2:
            return value + 1
        return value

    monkeypatch.setattr(verify, "horner", corrupted)
    report = run_verification(order=order, t_list=(2,))
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == ["reflected-kernel consistency"]
    assert failed[0].detail == f"reflected kernel(1/s1) = 0 through z^{order - 8}"
