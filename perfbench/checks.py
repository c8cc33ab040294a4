"""Correctness checks on the CSV and SVG output of one ``spd-bench`` call.

Every noise scale is recomputed from the package's public ``sensitivity_*``
and ``calibrate_*`` functions, so a later fix to a formula moves the
expected law with it.  Each check compares a cell's utilities with the law
the mechanism promises, at a tolerance derived from that law:

* tangent Gaussian (and image) releases: utility / sigma^2 ~ chi^2_d, so the
  sum over N trials of a cell is chi^2_{N d};
* extrinsic Gaussian: squared Frobenius deviation / sigma^2 ~ chi^2_d;
* Riemannian Laplace: the log-chart radius R ~ Gamma(d, sigma), so the mean
  utility is d(d+1) sigma^2 with variance d(d+1)(4d+6) sigma^4 per trial,
  and every chain's acceptance ratio lies inside ``ACCEPTANCE_BAND``.

A cell fails when its statistic is more than ``Z_MAX`` standard deviations
from the law's mean, which a correct program does with probability below
1e-8 per cell.
"""

from __future__ import annotations

import math

from workloads import DELTA, IMAGE_ETA, RADIUS, Call

Z_MAX = 6.0

CSV_HEADER = "mechanism,k,epsilon,delta,trial,utility,wall_time_ns,acceptance_ratio"


def expected_sigmas(call: Call) -> dict[tuple[int, float], float]:
    """Noise scale per (k, epsilon) cell of ``call``, from the public API."""
    from spdprivacy.descriptors import descriptor_radius_bound
    from spdprivacy.mechanisms import (
        PrivacyBudget,
        calibrate_analytic,
        calibrate_classical,
        sensitivity_extrinsic,
        sensitivity_frechet_le,
    )

    if call.command == "image-bench":
        # Every class of one channel count has the same size, hence one sigma.
        groups = {(8 + c.channels, c.count, descriptor_radius_bound(c.channels, IMAGE_ETA))
                  for c in call.classes}
    else:
        groups = {(call.k, call.n, math.sqrt(call.k) * RADIUS)}
    sigmas = {}
    for k, n, radius in groups:
        for eps in call.eps:
            budget = PrivacyBudget(eps, DELTA)
            if call.mechanism == "extrinsic_analytic":
                sigma = calibrate_analytic(sensitivity_extrinsic(n, radius), budget)
            elif call.mechanism == "tangent_classical":
                sigma = calibrate_classical(sensitivity_frechet_le(n, radius), budget)
            elif call.mechanism == "tangent_analytic":
                sigma = calibrate_analytic(sensitivity_frechet_le(n, radius), budget)
            else:  # riemannian_laplace: the pure-DP Laplace scale
                sigma = sensitivity_frechet_le(n, radius).value / eps
            if (k, eps) in sigmas:
                raise ValueError(f"image classes with k={k} differ in size")
            sigmas[(k, eps)] = sigma
    return sigmas


def _chi2_z(total: float, dof: int) -> float:
    """Wilson-Hilferty normal score of ``total`` under chi^2_dof."""
    v = 2.0 / (9.0 * dof)
    return ((total / dof) ** (1.0 / 3.0) - (1.0 - v)) / math.sqrt(v)


def _gamma_sq_mean_z(mean: float, d: int, count: int) -> float:
    """Score of a mean of ``count`` draws of R^2, R ~ Gamma(d, 1)."""
    var = d * (d + 1) * (4 * d + 6)
    return (mean - d * (d + 1)) / math.sqrt(var / count)


def check_csv(call: Call, text: str, sigmas: dict, band: tuple[float, float]) -> list[str]:
    """Problems found in the CSV ``text`` written by ``call``; empty if none."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [f"bad CSV header {lines[:1]!r}"]
    problems = []
    cells: dict[tuple[int, float], list[float]] = {}
    for row_no, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 8:
            problems.append(f"row {row_no}: {len(fields)} fields")
            continue
        mechanism, k, eps, delta, trial, utility, wall_ns, acceptance = fields
        try:
            key = (int(k), float(eps))
            value = float(utility)
            trial_no = int(trial)
        except ValueError:
            problems.append(f"row {row_no}: unparsable {line!r}")
            continue
        if mechanism != call.mechanism or float(delta) != DELTA or wall_ns != "0":
            problems.append(f"row {row_no}: unexpected fields {line!r}")
        if key not in sigmas or not 0 <= trial_no < call.trials:
            problems.append(f"row {row_no}: unexpected cell or trial {line!r}")
            continue
        if not (math.isfinite(value) and value > 0):
            problems.append(f"row {row_no}: utility {utility} not positive")
            continue
        if call.mechanism == "riemannian_laplace":
            try:
                ratio = float(acceptance)
            except ValueError:
                ratio = math.nan
            if not band[0] <= ratio <= band[1]:
                problems.append(f"row {row_no}: acceptance {acceptance!r} outside {band}")
        elif acceptance != "":
            problems.append(f"row {row_no}: acceptance ratio on a chain-free mechanism")
        cells.setdefault(key, []).append(value / sigmas[key[0], key[1]] ** 2)

    groups_per_k = {}
    for c in call.classes:
        groups_per_k[8 + c.channels] = groups_per_k.get(8 + c.channels, 0) + 1
    for key in sigmas:
        k, eps = key
        values = cells.get(key, [])
        expected_rows = call.trials * groups_per_k.get(k, 1)
        if len(values) != expected_rows:
            problems.append(f"cell k={k} eps={eps}: {len(values)} rows, expected {expected_rows}")
            continue
        d = k * (k + 1) // 2
        if call.mechanism == "riemannian_laplace":
            z = _gamma_sq_mean_z(sum(values) / len(values), d, len(values))
            law = "d(d+1) sigma^2"
        else:
            z = _chi2_z(sum(values), d * len(values))
            law = "sigma^2 chi^2_d"
        if not abs(z) <= Z_MAX:
            problems.append(f"cell k={k} eps={eps}: mean utility is {z:+.1f} sd from {law}")
    return problems


def check_svg(text: str, call: Call) -> list[str]:
    """Problems in the SVG plot written by ``call``; empty if none."""
    if not (text.startswith("<svg") and text.endswith("</svg>\n")):
        return ["SVG is not a complete <svg> document"]
    if text.count("<polyline") != 1 or call.mechanism not in text:
        return ["SVG does not hold exactly one series for the mechanism"]
    return []
