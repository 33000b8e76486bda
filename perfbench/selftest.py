"""Self-tests of the benchmark's correctness checks.

Run from the repository root::

    python3 perfbench/selftest.py

It flies the headline campaign and the default explore sweep once at
the default seed, confirms that the checks pass on those outputs, and
then confirms that each check rejects a deliberately broken copy:

* a campaign.json with one per-level count raised by 7;
* a fixed-duration session whose fluence is off by 2 %;
* a resumed campaign.json one byte different from its source;
* a pareto.json with a dominated cell flagged ``on_front``;
* a simulated count far outside the Poisson interval around Table 2;
* a timed operation that exits 1 (a ``--resume`` with no journal).

Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import copy
import json
import os
import shutil
import sys

import run  # sets up the thread pins and the program's import path
import checks


class ResumeWithoutJournal(run.Workload):
    """A timed operation the program refuses: it exits 1 at once."""

    name = "resume-without-journal"

    def argv(self, outdir):
        return ["run", outdir, "--seed", str(self.seed), "--time-scale",
                "1.0", "--resume"]


def main() -> int:
    if not os.path.isdir(os.path.join(run.SRC, "repro")):
        print(f"error: no program source under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, run.SRC)
    os.environ["PYTHONPATH"] = run.SRC  # for the set-up interpreters
    work = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    try:
        return _cases(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(run.WORK)


def _cases(work: str) -> int:
    seed = run.DEFAULT_SEED
    flown = os.path.join(work, "campaign")
    swept = os.path.join(work, "explore")
    if run.quiet_main(["run", flown, "--seed", str(seed),
                       "--time-scale", "1.0"]) != 0:
        print("error: the campaign did not fly", file=sys.stderr)
        return 1
    if run.quiet_main(["explore", swept, "--seed", str(seed)]) != 0:
        print("error: the sweep did not run", file=sys.stderr)
        return 1
    campaign_path = os.path.join(flown, "campaign.json")
    with open(campaign_path) as handle:
        campaign = json.load(handle)
    with open(os.path.join(swept, "pareto.json")) as handle:
        pareto = json.load(handle)

    results = []

    def expect(name: str, problems, rejected: bool) -> None:
        ok = bool(problems) == rejected
        results.append(ok)
        verdict = "rejected" if problems else "accepted"
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {verdict}"
              + (f" ({problems[0]})" if problems else ""))

    expect("clean campaign.json", checks.check_campaign(campaign), False)

    raised = copy.deepcopy(campaign)
    counts = raised["sessions"]["session1"]["counts"]
    counts[sorted(counts)[0]] += 7
    expect("one per-level count raised by 7",
           checks.check_campaign(raised), True)

    for label in ("session1", "session2", "session4"):
        drifted = copy.deepcopy(campaign)
        drifted["sessions"][label]["fluence"]["fluence_per_cm2"] *= 1.02
        expect(f"{label} fluence off by 2 %",
               checks.check_campaign(drifted), True)

    twin = os.path.join(work, "twin.json")
    shutil.copyfile(campaign_path, twin)
    expect("identical copy of campaign.json",
           checks.check_identical(twin, campaign_path, "copy"), False)
    with open(twin, "r+b") as handle:
        handle.seek(os.path.getsize(twin) // 2)
        byte = handle.read(1)
        handle.seek(-1, os.SEEK_CUR)
        handle.write(b"1" if byte != b"1" else b"2")
    expect("resumed campaign.json one byte different",
           checks.check_identical(twin, campaign_path, "resume"), True)

    expect("clean pareto.json", checks.check_pareto(pareto), False)
    flagged = copy.deepcopy(pareto)
    dominated = next(c for c in flagged["cells"] if not c["on_front"])
    dominated["on_front"] = True
    expect(f"dominated cell {dominated['label']} flagged on_front",
           checks.check_pareto(flagged), True)

    expect("Table 2 count against itself",
           [] if checks.poisson_count_ok(1743, 1.46e11, 1743, 1.46e11)
           else ["rejected"], False)
    expect("1400 upsets against Table 2's 1743",
           [] if checks.poisson_count_ok(1400, 1.46e11, 1743, 1.46e11)
           else ["outside the interval"], True)

    failing = run.measure(ResumeWithoutJournal(seed, work), 1.0, False)
    expect("a timed operation that exits 1",
           failing["problems"] if not failing["correct"]
           and failing["failed"] == 1 and "wall_s" not in failing["metrics"]
           else [], True)

    print(f"{sum(results)}/{len(results)} self-test cases behave")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
