"""Correctness gate: checks every CSV row a workload's CLI calls wrote.

A solve fails when its call exits non-zero, its row is missing or malformed,
or the row breaks one of these rules:

- L2 and H1 lie within ``REL_TOL`` of the committed reference (default seed
  only). Values are compared, not bytes: BLAS thread counts move the last
  digits.
- ``max_angle_deg`` is at most 162 degrees on strategy-2 and strategy-3 rows.
- adapted convergence rates lie in the acceptance windows (a miss fails every
  level of that call);
- in a sweep, L2 and H1 fall strictly as n rises at every offset (a miss
  fails the row at the larger n).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

REL_TOL = 1e-6
# Same tolerance as the program's own angle audit.
ANGLE_BOUND = 162.0 + 1e-9
L2_RATE_WINDOW = (1.8, 2.2)
H1_RATE_WINDOW = (0.85, 1.15)


@dataclass
class Verdict:
    attempted: int
    failed: set = field(default_factory=set)
    reasons: list = field(default_factory=list)

    def fail(self, key, reason: str) -> None:
        self.failed.add(key)
        self.reasons.append(f"{key}: {reason}")


def _rows(csv_text: str, kind: str):
    """Rows keyed as in ``Call.keys``, plus the rates row (or None)."""
    rows, rates = {}, None
    for row in csv.DictReader(io.StringIO(csv_text)):
        if kind == "sweep":
            key = (float(row["param_value"]), int(row["n"]))
        elif row["n"] == "rates":
            rates = row
            continue
        else:
            key = int(row["n"])
        if key in rows:
            raise ValueError(f"duplicate row {key}")
        rows[key] = row
    return rows, rates


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a)


def check_call(call, exit_code: int, csv_text: str | None,
               reference_csv: str | None = None) -> Verdict:
    """Verdict over the solves of one CLI call (see the module docstring)."""
    verdict = Verdict(attempted=len(call.keys))
    if exit_code != 0 or csv_text is None:
        for key in call.keys:
            verdict.fail(key, f"CLI exit code {exit_code}")
        return verdict
    try:
        rows, rates = _rows(csv_text, call.kind)
        ref_rows, ref_rates = (_rows(reference_csv, call.kind)
                               if reference_csv is not None else (None, None))
    except (KeyError, ValueError) as exc:
        for key in call.keys:
            verdict.fail(key, f"unreadable CSV: {exc}")
        return verdict

    for key in call.keys:
        row = rows.get(key)
        if row is None:
            verdict.fail(key, "missing row")
            continue
        try:
            l2, h1 = float(row["L2"]), float(row["H1"])
            angle = float(row["max_angle_deg"]) if call.kind != "sweep" else None
        except (KeyError, ValueError) as exc:
            verdict.fail(key, f"malformed row: {exc}")
            continue
        if not (math.isfinite(l2) and math.isfinite(h1) and l2 > 0 and h1 > 0):
            verdict.fail(key, f"bad norms L2={l2} H1={h1}")
        if angle is not None and call.strategy in (2, 3) and not angle <= ANGLE_BOUND:
            verdict.fail(key, f"max angle {angle} > 162")
        if ref_rows is not None:
            ref = ref_rows.get(key)
            if ref is None:
                verdict.fail(key, "row absent from the reference")
            else:
                for col, value in (("L2", l2), ("H1", h1)):
                    err = _rel(value, float(ref[col]))
                    if not err <= REL_TOL:
                        verdict.fail(key, f"{col}={value} differs from the "
                                          f"reference {ref[col]} by {err:.2e} relative")
    extra = sorted(set(rows) - set(call.keys))
    if extra:
        for key in call.keys:
            verdict.fail(key, f"the call wrote rows it was not asked for: {extra[:3]}")

    if call.kind == "sweep":
        _check_monotone(call, rows, verdict)
    if call.rates:
        _check_rates(call, rates, ref_rates if ref_rows is not None else None, verdict)
    return verdict


def _check_monotone(call, rows, verdict: Verdict) -> None:
    by_offset: dict = {}
    for value, n in call.keys:
        if (value, n) in rows:
            by_offset.setdefault(value, []).append(n)
    for value, ns in by_offset.items():
        ns.sort()
        for coarse, fine in zip(ns, ns[1:]):
            a, b = rows[(value, coarse)], rows[(value, fine)]
            for col in ("L2", "H1"):
                if not float(b[col]) < float(a[col]):
                    verdict.fail((value, fine), f"{col} did not fall from n={coarse}")


def _check_rates(call, rates, ref_rates, verdict: Verdict) -> None:
    reason = None
    if rates is None:
        reason = "rates row missing"
    else:
        try:
            l2, h1 = float(rates["L2"]), float(rates["H1"])
        except ValueError as exc:
            reason = f"malformed rates row: {exc}"
        else:
            if not L2_RATE_WINDOW[0] <= l2 <= L2_RATE_WINDOW[1]:
                reason = f"L2 rate {l2} outside {L2_RATE_WINDOW}"
            elif not H1_RATE_WINDOW[0] <= h1 <= H1_RATE_WINDOW[1]:
                reason = f"H1 rate {h1} outside {H1_RATE_WINDOW}"
            elif ref_rates is not None:
                for col, value in (("L2", l2), ("H1", h1)):
                    if not _rel(value, float(ref_rates[col])) <= REL_TOL:
                        reason = (f"{col} rate {value} differs from the "
                                  f"reference {ref_rates[col]}")
    if reason is not None:
        for key in call.keys:
            verdict.fail(key, reason)
