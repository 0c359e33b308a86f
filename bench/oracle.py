"""Output oracle: decides which outputs are wrong or missing.

A classify query fails when
  * its kind or count differs from the paper's taxonomy table,
  * it reports unknown arcs,
  * the command raised or exited non-zero, or the query has no report,
  * its report bytes differ from the same query's first pass in the run,
  * its exact-mode kind or count differs from the float-mode verdict.

A trace_grow pass fails unless it ends in GrowthLimit or
ArcBudgetExhausted, reaches at least the reference's arc, and its
events match the recorded reference (kind, and arc to 1e-9) up to the
shorter of the two arcs.  Surface hashes are not compared with the
reference, since growing less of the surface is a legitimate change.
"""

from __future__ import annotations

from collections import Counter

# Paper taxonomy: scene -> point -> (kind, count) against line `l`.
PAPER_TABLE = {
    "silo": {
        "P": ("euclidean", 1),
        "R": ("elliptic", 0),
        "Q": ("regularly_hyperbolic", 0),
        "Qp": ("extremely_hyperbolic", 1),
        "Qpp": ("completely_hyperbolic", 0),
    },
    "semi": {
        "P": ("euclidean", 1),
        "Q": ("elliptic", 0),
        "R": ("regularly_hyperbolic", 0),
    },
    "flat": {
        "P": ("euclidean", 1),
    },
}

TRACE_ENDINGS = ("GrowthLimit", "ArcBudgetExhausted")
ARC_TOL = 1e-9


def query_text(point):
    return f"classify {point} l"


class Oracle:
    """Counts attempted and failed outputs over one benchmark run."""

    def __init__(self, dumps):
        self.dumps = dumps          # report -> canonical bytes
        self.attempted = 0
        self.failed = 0
        self.reasons = Counter()
        self.first_bytes = {}

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def _record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.update(problems)
        return not problems

    def check_scene(self, scene, points, mode, rc, data, error=None,
                    float_verdicts=None):
        """Check one `classify` command over a scene.

        Returns {point: (kind, count)} for the reports that were present.
        `float_verdicts`, when given, holds the float-mode verdicts of
        the same fixtures for the mode-agreement check.
        """
        by_query = {}
        if error is None and rc == 0 and isinstance(data, dict):
            for rep in data.get("reports", []):
                by_query[rep.get("query")] = rep
        verdicts = {}
        for p in points:
            problems = []
            rep = by_query.get(query_text(p))
            if error is not None:
                problems.append(f"raised {type(error).__name__}")
            elif rc != 0:
                problems.append(f"exit code {rc}")
            elif rep is None:
                problems.append("missing report")
            if rep is not None:
                res = rep["result"]
                got = (res["kind"], res["count"])
                verdicts[p] = got
                want = PAPER_TABLE[scene][p]
                if got != want:
                    problems.append(f"{scene} {p} {mode}: {got} != paper {want}")
                if res["unknown_arcs"] > 0:
                    problems.append(f"{scene} {p} {mode}: unknown_arcs "
                                    f"{res['unknown_arcs']}")
                text = self.dumps(rep)
                key = (scene, p, mode)
                first = self.first_bytes.setdefault(key, text)
                if text != first:
                    problems.append(f"{scene} {p} {mode}: report bytes differ "
                                    f"from the first pass")
                if float_verdicts is not None and p in float_verdicts \
                        and float_verdicts[p] != got:
                    problems.append(f"{scene} {p}: exact {got} != float "
                                    f"{float_verdicts[p]}")
            self._record(problems)
        return verdicts

    def check_trace(self, events, reference):
        """Check one trace_grow pass.

        `events` and `reference["events"]` are [(arc, event kind)], the
        terminal event last.
        """
        problems = []
        if not events:
            problems.append("trace produced no events")
            return self._record(problems)
        end_arc, end_kind = events[-1]
        ref_events = [tuple(e) for e in reference["events"]]
        ref_end_arc = ref_events[-1][0]
        if end_kind not in TRACE_ENDINGS:
            problems.append(f"trace ended in {end_kind}")
        if end_kind != "ArcBudgetExhausted" and end_arc < ref_end_arc - ARC_TOL:
            problems.append(f"trace stopped at arc {end_arc!r}, before the "
                            f"reference's {ref_end_arc!r}")
        limit = min(end_arc, ref_end_arc) + ARC_TOL
        got = [e for e in events[:-1] if e[0] <= limit]
        want = [e for e in ref_events[:-1] if e[0] <= limit]
        if len(got) != len(want):
            problems.append(f"{len(got)} events up to arc {limit:.9f}, "
                            f"reference has {len(want)}")
        for i, ((ga, gk), (wa, wk)) in enumerate(zip(got, want)):
            if gk != wk or abs(ga - wa) > ARC_TOL:
                problems.append(f"event {i}: ({ga!r}, {gk}) != reference "
                                f"({wa!r}, {wk})")
                break
        return self._record(problems)
