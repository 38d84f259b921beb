"""Output checks of the benchmark.

Each check takes the program's answers and an independent reference
or a property the method must have, and returns a list of failure
messages; an empty list is a pass.  None of them compares with stored
output of the program.
"""

import json
import math


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


# ---------------------------------------------------------------------------
# mc-size-weak


def no_failed_replications(failures):
    return [] if failures == 0 else [f"{failures} replications failed"]


def coefficient_means(mean, se, true, k):
    """Each mean estimate lies within k Monte Carlo standard errors of
    the true coefficient.  Arguments are dicts keyed by (season, index)."""
    out = []
    for key in sorted(true):
        gap = abs(mean[key] - true[key])
        if not gap <= k * se[key]:
            out.append(f"coefficient {key}: mean {mean[key]:.5f} is {gap / se[key]:.1f} "
                       f"standard errors from the true {true[key]:.5f}")
    return out


def standard_theta_means(mean, se, exact, k, rel):
    """Mean standard Theta diagonal entries match Omega^-1 (x) Sigma
    within k Monte Carlo standard errors plus a relative allowance for
    the O(1/N) bias of inverting a sample moment matrix."""
    out = []
    for key in sorted(exact):
        gap = abs(mean[key] - exact[key])
        if not gap <= k * se[key] + rel * abs(exact[key]):
            out.append(f"standard Theta {key}: mean {mean[key]:.5f} against "
                       f"Omega^-1 (x) Sigma {exact[key]:.5f}")
    return out


def over_rejection(rates, margin):
    """rates[season][method] holds the 5% rejection rate.  The standard
    test must over-reject every modified test by at least margin."""
    out = []
    for season in sorted(rates):
        row = rates[season]
        modified = max(r for m, r in row.items() if m != "standard")
        if not row["standard"] - modified >= margin:
            out.append(f"season {season}: standard test rejects {row['standard']:.3f}, "
                       f"not {margin} above the modified tests' {modified:.3f}")
    return out


def modified_closer(theta, nmse):
    """theta[season][method] is the mean Theta entry of Phi22 and
    nmse[season] the empirical N * MSE.  Each modified estimate must be
    closer to the empirical value than the standard one."""
    out = []
    for season in sorted(nmse):
        row = theta[season]
        far = abs(row["standard"] - nmse[season])
        for method, value in sorted(row.items()):
            if method != "standard" and not abs(value - nmse[season]) < far:
                out.append(f"season {season}: {method} Theta {value:.4f} is no closer "
                           f"than the standard {row['standard']:.4f} to N*MSE "
                           f"{nmse[season]:.4f}")
    return out


# ---------------------------------------------------------------------------
# CLI workloads


def fit_matches_reference(fit, reference, tol):
    """fit is the parsed `pvar fit --format json` payload; reference maps
    (season, lag, row, col) to (estimate, strong standard error)."""
    out = []
    seen = set()
    for season in fit["seasons"]:
        for c in season["coefficients"]:
            key = (season["season"], c["lag"], c["row"], c["col"])
            seen.add(key)
            if key not in reference:
                out.append(f"fit reports unexpected coefficient {key}")
                continue
            est, se = reference[key]
            if not _rel(c["estimate"], est) <= tol:
                out.append(f"{key}: estimate {c['estimate']!r} against lstsq {est!r}")
            if not _rel(c["std_errors"]["strong"], se) <= tol:
                out.append(f"{key}: strong se {c['std_errors']['strong']!r} "
                           f"against {se!r}")
    missing = set(reference) - seen
    if missing:
        out.append(f"fit omits {len(missing)} coefficients, e.g. {min(missing)}")
    return out


def wald_matches_fit(wald, fit, restricted, tol):
    """Each single-coordinate Wald statistic equals (estimate / se)^2
    under the same method, and the strong p-value is erfc(sqrt(W/2)).

    restricted maps a season to the (lag, row, col) it restricts to 0.
    """
    out = []
    coefs = {(s["season"], c["lag"], c["row"], c["col"]): c
             for s in fit["seasons"] for c in s["coefficients"]}
    tested = {season: coefs.get((season,) + coord)
              for season, coord in restricted.items()}
    if None in tested.values():
        return [f"fit omits a restricted coefficient of {sorted(restricted.items())}"]
    tests = wald["tests"]
    expected = {(season, m) for season, c in tested.items() for m in c["std_errors"]}
    got = {(t["season"], t["method"]) for t in tests}
    if got != expected:
        out.append(f"wald reports tests {sorted(got)}, expected {sorted(expected)}")
    for t in tests:
        c = tested.get(t["season"])
        if c is None:
            continue
        if t["df"] != 1:
            out.append(f"season {t['season']} {t['method']}: df {t['df']} != 1")
        ratio = (c["estimate"] / c["std_errors"][t["method"]]) ** 2
        if not abs(t["statistic"] - ratio) <= tol * max(1.0, ratio):
            out.append(f"season {t['season']} {t['method']}: W {t['statistic']!r} "
                       f"!= (estimate/se)^2 {ratio!r}")
        if t["method"] == "strong":
            p = math.erfc(math.sqrt(t["statistic"] / 2.0))
            if not abs(t["p_value"] - p) <= tol * p + 1e-300:
                out.append(f"season {t['season']} strong: p {t['p_value']!r} "
                           f"!= erfc(sqrt(W/2)) {p!r}")
    return out


def deterministic(outputs, what):
    """Repeated calls on one input give byte-identical stdout."""
    if len(set(outputs)) <= 1:
        return []
    return [f"{what}: {len(set(outputs))} different outputs in {len(outputs)} calls"]


def parse_json(stdout, what):
    """(payload, failures) from a JSON document on stdout."""
    try:
        return json.loads(stdout), []
    except ValueError as exc:
        return None, [f"{what}: stdout is not JSON ({exc})"]
