"""Correctness checks for the benchmark's outputs.

Every check compares against the paper (Table 2 of the MICRO 2023
study) or against a property the method must have, never against a
stored copy of an earlier output.  Each function returns a list of
problems; an empty list means the output passed.  The module imports
nothing from the program, so a broken program cannot break its own
checks.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from typing import Dict, Iterable, List

#: Halo flux at the device under test (neutrons / cm^2 / s).
FLUX_PER_CM2_S = 1.5e6

#: Table 2 of the paper: planned beam time (minutes) and, for the
#: fixed-duration sessions, fluence, memory upsets and failures.
TABLE2 = {
    "session1": {"minutes": 1651.0, "fluence": 1.49e11,
                 "upsets": 1669, "failures": 95},
    "session2": {"minutes": 1618.0, "fluence": 1.46e11,
                 "upsets": 1743, "failures": 97},
    "session3": {"minutes": 453.0, "target_failures": 141},
    "session4": {"minutes": 165.0, "fluence": 1.48e10,
                 "upsets": 195, "failures": 13},
}

#: Tolerated relative fluence error against flux x planned beam time.
FLUENCE_TOLERANCE = 0.01

#: False-alarm probability per tail of the count checks.
EPSILON = 1e-5


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _binomial_tails(k: int, n: int, p: float) -> tuple:
    """(P[X <= k], P[X >= k]) for X ~ Binomial(n, p), exactly."""
    log_p, log_q = math.log(p), math.log1p(-p)
    lgn = math.lgamma(n + 1)

    def pmf(i: int) -> float:
        return math.exp(
            lgn - math.lgamma(i + 1) - math.lgamma(n - i + 1)
            + i * log_p + (n - i) * log_q
        )

    below = sum(pmf(i) for i in range(0, k + 1))
    above = sum(pmf(i) for i in range(k, n + 1))
    return below, above


def poisson_count_ok(
    observed: int, exposure: float, paper: int, paper_exposure: float,
    epsilon: float = EPSILON,
) -> bool:
    """Is *observed* inside the Poisson interval around the paper's count?

    Both counts are Poisson draws (the paper's beam session is one
    sample, not the true rate), so the interval is the exact
    conditional test of equal rates: given the total, the simulated
    count is binomial with the exposure share as its probability.  The
    check fails when either tail falls below *epsilon*.
    """
    n = observed + paper
    if n == 0:
        return True
    share = exposure / (exposure + paper_exposure)
    below, above = _binomial_tails(observed, n, share)
    return below >= epsilon and above >= epsilon


def check_campaign(data: dict) -> List[str]:
    """Table 2 and internal-consistency checks of one campaign.json."""
    problems: List[str] = []
    sessions = data.get("sessions", {})
    if sorted(sessions) != sorted(TABLE2):
        return [f"sessions {sorted(sessions)} != {sorted(TABLE2)}"]
    for label, paper in TABLE2.items():
        session = sessions[label]
        planned_s = paper["minutes"] * 60.0
        if session["plan"]["max_minutes"] != paper["minutes"]:
            problems.append(
                f"{label}: planned {session['plan']['max_minutes']} min, "
                f"Table 2 has {paper['minutes']}"
            )
        fluence = session["fluence"]["fluence_per_cm2"]
        exposure_s = session["fluence"]["exposure_seconds"]
        upsets = session["upsets"]
        failures = session["failures"]
        if "fluence" in paper:
            expected = FLUX_PER_CM2_S * planned_s
            if abs(fluence - expected) > FLUENCE_TOLERANCE * expected:
                problems.append(
                    f"{label}: fluence {fluence:.4g} is not within "
                    f"{FLUENCE_TOLERANCE:.0%} of flux x planned time "
                    f"{expected:.4g}"
                )
            if abs(fluence - paper["fluence"]) > (
                FLUENCE_TOLERANCE * paper["fluence"]
            ):
                problems.append(
                    f"{label}: fluence {fluence:.4g} is not within "
                    f"{FLUENCE_TOLERANCE:.0%} of Table 2's "
                    f"{paper['fluence']:.3g}"
                )
            for name, observed in (
                ("upsets", len(upsets)), ("failures", len(failures))
            ):
                if not poisson_count_ok(
                    observed, fluence, paper[name], paper["fluence"]
                ):
                    problems.append(
                        f"{label}: {observed} {name} is outside the "
                        f"Poisson interval (eps={EPSILON:g}/tail) around "
                        f"Table 2's {paper[name]}"
                    )
        else:
            target = paper["target_failures"]
            ended_on_failures = len(failures) >= target
            ended_on_time = exposure_s >= planned_s * (1 - FLUENCE_TOLERANCE)
            if not (ended_on_failures or ended_on_time):
                problems.append(
                    f"{label}: ended at {exposure_s / 60:.1f} min with "
                    f"{len(failures)} failures, neither {target} failures "
                    f"nor {paper['minutes']} min"
                )
            if exposure_s > planned_s * (1 + FLUENCE_TOLERANCE):
                problems.append(
                    f"{label}: flew {exposure_s / 60:.1f} min past its "
                    f"{paper['minutes']} min"
                )
        by_level: Counter = Counter()
        for key, n in session["counts"].items():
            by_level[key.split("/")[0]] += n
        listed = Counter(u["level"] for u in upsets)
        if by_level != listed:
            problems.append(
                f"{label}: per-level counts {dict(by_level)} do not sum "
                f"to the upset list {dict(listed)}"
            )
        run_failures = sum(run["failure_count"] for run in session["runs"])
        if run_failures != len(failures):
            problems.append(
                f"{label}: runs record {run_failures} failures, the "
                f"failure list holds {len(failures)}"
            )
    return problems


def campaign_counts(data: dict) -> Dict[str, float]:
    """Work counts of a campaign: runs flown, upsets, failures."""
    runs = eventful = upsets = failures = 0
    for session in data["sessions"].values():
        runs += len(session["runs"])
        upsets += len(session["upsets"])
        failures += len(session["failures"])
        eventful += sum(
            1 for run in session["runs"]
            if run["counts"] or run["failure_count"]
        )
    return {
        "runs": runs,
        "upsets": upsets,
        "failures": failures,
        "eventful_ratio": eventful / runs if runs else 0.0,
    }


_OUTCOMES = ("clean", "corrected", "detected", "silent")
_INTERVALS = ("fit_due", "fit_sdc", "fit_total", "silent_fraction")


def _dominates(a: Iterable[float], b: Iterable[float]) -> bool:
    a, b = tuple(a), tuple(b)
    return all(x <= y for x, y in zip(a, b)) and any(
        x < y for x, y in zip(a, b)
    )


def check_pareto(document: dict) -> List[str]:
    """Method checks of one explore pareto.json."""
    problems: List[str] = []
    cells = document.get("cells", [])
    if not cells:
        return ["pareto.json holds no cells"]
    slices: Dict[tuple, List[dict]] = {}
    for cell in cells:
        label = cell["label"]
        total = sum(cell[name] for name in _OUTCOMES)
        if total != cell["strikes"]:
            problems.append(
                f"{label}: outcomes sum to {total}, not the "
                f"{cell['strikes']} strikes"
            )
        halves = cell["halves"]
        for name in _OUTCOMES:
            split = halves["first"][name] + halves["second"][name]
            if split != cell[name]:
                problems.append(
                    f"{label}: {name} halves sum to {split}, the cell "
                    f"has {cell[name]}"
                )
        if cell["codec"] == "parity" and cell["corrected"]:
            problems.append(
                f"{label}: parity corrected {cell['corrected']} strike(s)"
            )
        for name in _INTERVALS:
            interval = cell[name]
            if not interval["lower"] <= interval["value"] <= interval["upper"]:
                problems.append(
                    f"{label}: {name} interval {interval['lower']} .. "
                    f"{interval['upper']} does not hold {interval['value']}"
                )
        key = (cell.get("node"), cell["pmd_mv"], cell["soc_mv"],
               cell["workload"])
        slices.setdefault(key, []).append(cell)
    for slice_cells in slices.values():
        for cell in slice_cells:
            mine = _objectives(cell)
            front = not any(
                _dominates(_objectives(other), mine)
                for other in slice_cells if other is not cell
            )
            if cell["on_front"] != front:
                problems.append(
                    f"{cell['label']}: on_front={cell['on_front']} but the "
                    f"non-domination check says {front}"
                )
    return problems


def _objectives(cell: dict) -> tuple:
    return (
        cell["fit_total"]["value"],
        float(cell["cost"]["area_gates"]),
        float(cell["cost"]["energy_pj"]),
    )


def check_identical(path: str, reference: str, what: str) -> List[str]:
    """Byte identity of two files."""
    if sha256_file(path) != sha256_file(reference):
        return [f"{what}: {path} differs from {reference}"]
    return []
