"""Checks on the benchmark itself (run from the root of a checkout):

    python3 perfbench/selfcheck.py

- the same seed gives a byte-identical corpus and traffic script, and
  another seed gives different ones;
- a real scan report and a real gated walk pass their checkers, and the same
  outputs checked against a deliberately corrupted expectation count as
  failures, so a zero error rate is not vacuous.
"""

from __future__ import annotations

import copy
import itertools
import os
import shutil
import sys

import corpus
import load
import run
import sites


def _script(site: sites.Site, seed: int, deviation: float) -> str:
    walks = sites.WalkGenerator(site, seed, "selfcheck", deviation, True)
    return sites.script_text(list(itertools.islice(walks, 300)))


def main() -> int:
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    for kind in ("shared", "flat"):
        a, b = corpus.generate(kind, 7), corpus.generate(kind, 7)
        expect(a.files == b.files and a.planted == b.planted, f"{kind} corpus is identical for one seed")
        expect(a.files != corpus.generate(kind, 8).files, f"{kind} corpus differs for another seed")
    for name, make in (("small", lambda s: sites.small_site()), ("large", sites.large_site)):
        expect(_script(make(7), 7, 0.5) == _script(make(7), 7, 0.5),
               f"{name} traffic script is identical for one seed")
        expect(_script(make(7), 7, 0.5) != _script(make(8), 8, 0.5),
               f"{name} traffic script differs for another seed")

    work = os.path.join(run.ROOT, ".perfbench-work", f"selfcheck-{os.getpid()}")
    os.makedirs(work)
    gate = run.Gate(work, run.WORKLOADS["shared-small"], 7)
    try:
        tree = corpus.generate("shared", 7)
        root = os.path.join(work, "tree")
        tree.write(root)
        scans = run.ScanRuns()
        run._scan(tree, root, work, scans)
        expect(scans.failed == 0, f"scan report matches the planted findings ({scans.attempted} checks)")
        found = corpus.read_findings(os.path.join(work, "report.txt.data"), root)
        bad = copy.deepcopy(tree)
        planted_files = [rel for rel, want in bad.planted.items() if want]
        bad.planted[planted_files[0]].pop()                           # a finding not planted
        bad.planted[planted_files[1]].add((1, corpus.XSS))            # a planted finding not found
        expect(corpus.check_scan(bad, found)[1] == 2, "corrupted scan expectations count 2 failures")

        gate.set_up()
        addr = ("127.0.0.1", gate.proxy_port)
        walks = list(itertools.islice(sites.WalkGenerator(gate.site, 7, "selfcheck", 0.5, False), 80))
        good, _ = load.run_phase(iter(walks[:40]), addr, 60, 1)
        expect(good.failed == 0 and good.attempted > 0, f"gated walks get the expected replies "
                                                         f"({good.attempted} requests)")
        corrupted = copy.deepcopy(walks[40:])   # fresh identities: no state left by the first pass
        blocked = [s for w in corrupted for s in w.steps if s.reason][:1]
        forwarded = [s for w in corrupted for s in w.steps if not s.reason][:1]
        for step in blocked:
            step.reason = sites.SEQUENCE_VIOLATION if step.reason != sites.SEQUENCE_VIOLATION else sites.UNKNOWN_REQUEST
        for step in forwarded:
            step.status = 404
        bad_tally, _ = load.run_phase(iter(corrupted), addr, 60, 1)
        expect(bad_tally.failed == 2, "corrupted walk expectations count 2 failures")
        log = gate.path("proxy-deviations.log")
        merged = load.Tally()
        merged.merge(good)
        merged.merge(bad_tally)
        expect(run._gate_tally_check(merged, log, "selfcheck") == 0, "deviation log matches blocked replies")
        merged.observed[sites.ROLE_MISMATCH] += 1
        expect(run._gate_tally_check(merged, log, "selfcheck") == 1, "a missing log record counts 1 failure")
    finally:
        gate.stop()
        shutil.rmtree(work, ignore_errors=True)

    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
