"""Check that regenerated classify goldens refine the old ones by nesting.

Run it on two directories of golden reports, the old ones and the new:

    python scripts/check_golden_nesting.py OLD_DIR tests/golden

For every report of every `*.json` file found in both, it checks that:

- kind, count and unknown_arcs are unchanged;
- every old interval wider than SLIVER_DEG lies inside exactly one new
  interval with the same status;
- every new interval boundary lies at an old boundary, or inside an old
  interval at most SLIVER_DEG wide;
- the certificates are the same, with the same counts.

It prints one line per report with the interval counts, and `identical`
when the report is byte for byte the same.  Exit status 1 when a check
fails.
"""

import json
import sys
from collections import Counter
from pathlib import Path

SLIVER_DEG = 2e-7


def check_report(old, new):
    errors = []
    for key in ("kind", "count", "unknown_arcs"):
        if old["result"][key] != new["result"][key]:
            errors.append(f"{key} {old['result'][key]} -> {new['result'][key]}")
    olds = old["evidence"]["intervals"]
    news = new["evidence"]["intervals"]
    for o in olds:
        if o["hi"] - o["lo"] <= SLIVER_DEG:
            continue
        homes = [n for n in news if n["lo"] <= o["lo"] and o["hi"] <= n["hi"]]
        if len(homes) != 1 or homes[0]["status"] != o["status"]:
            errors.append(f"old interval [{o['lo']}, {o['hi']}] {o['status']} "
                          f"lies in {len(homes)} new intervals")
    old_ends = {x for o in olds for x in (o["lo"], o["hi"])}
    slivers = [o for o in olds if o["hi"] - o["lo"] <= SLIVER_DEG]
    for b in sorted({x for n in news for x in (n["lo"], n["hi"])}):
        if b not in old_ends and not any(o["lo"] <= b <= o["hi"]
                                         for o in slivers):
            errors.append(f"new boundary {b} is neither old nor in a sliver")

    def certs(rep):
        return Counter(json.dumps(c, sort_keys=True)
                       for c in rep["evidence"]["certificates"])
    if certs(old) != certs(new):
        errors.append("certificates differ")
    return errors


def main(argv):
    old_dir, new_dir = (Path(a) for a in argv[1:3])
    failed = False
    for new_path in sorted(new_dir.glob("*.json")):
        old_path = old_dir / new_path.name
        if not old_path.exists():
            continue
        old = json.loads(old_path.read_text())["reports"]
        new = json.loads(new_path.read_text())["reports"]
        if [r["query"] for r in old] != [r["query"] for r in new]:
            print(f"{new_path.name}: queries differ")
            failed = True
            continue
        for o, n in zip(old, new):
            errors = check_report(o, n)
            same = json.dumps(o, sort_keys=True) == json.dumps(n, sort_keys=True)
            print(f"{new_path.name} {o['query']}: intervals "
                  f"{len(o['evidence']['intervals'])} -> "
                  f"{len(n['evidence']['intervals'])}"
                  + (", identical" if same else "")
                  + "".join(f"\n  FAIL {e}" for e in errors))
            failed = failed or bool(errors)
    print("FAIL" if failed else "ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
