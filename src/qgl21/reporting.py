"""Check results and deterministic plain-text report tables."""

from __future__ import annotations

from typing import NamedTuple


class CheckResult(NamedTuple):
    name: str
    passed: bool
    residuals: int = 0
    detail: str = ""


def residual_results(checks):
    """A CheckResult per (name, residual, cols): the nonzero terms or
    entries of residual, in the columns cols unless cols is None."""
    results = []
    for name, residual, cols in checks:
        bad = residual.nnz() if cols is None else residual.nnz(cols)
        results.append(CheckResult(name, bad == 0, bad))
    return results


def check_size(value, least, what):
    """A ValueError unless value, the size what, is an int >= least."""
    if not isinstance(value, int):
        raise ValueError("%s must be an integer, not %r" % (what, value))
    if value < least:
        raise ValueError("%s must be at least %d" % (what, least))


def all_passed(results):
    return all(r.passed for r in results)


def render_report(results, title, use_color=False):
    green = "\x1b[32m" if use_color else ""
    red = "\x1b[31m" if use_color else ""
    reset = "\x1b[0m" if use_color else ""
    width = max((len(r.name) for r in results), default=4)
    lines = [title, "-" * len(title)]
    for r in results:
        status = ("%sPASS%s" % (green, reset)) if r.passed \
            else ("%sFAIL%s" % (red, reset))
        line = "%-*s  %s  residuals=%d" % (width, r.name, status, r.residuals)
        if r.detail:
            line += "  (%s)" % r.detail
        lines.append(line)
    ok = sum(1 for r in results if r.passed)
    lines.append("%d/%d checks passed" % (ok, len(results)))
    return "\n".join(lines)
