"""Record the checked outputs of runs (final loss, steps, held-out top-5) as references.

    python3 perfbench/sweep.py --workloads train-boosted train-plain cli-pipeline \
        --seeds 0 1 2 --seconds 1 --out .perfbench_work/sets/refs.jsonl
    python3 perfbench/references.py .perfbench_work/sets/refs.jsonl

Adds each input set of each run to references.json, keyed by workload and
input seed.  An input set already recorded keeps its value; runs check their
outputs against it within the tolerances stated in pipeline.py.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

PATH = Path(__file__).resolve().parent / "references.json"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="+", help="files written by sweep.py")
    args = parser.parse_args(argv)
    refs = json.loads(PATH.read_text(encoding="utf-8")) if PATH.exists() else {}
    added = 0
    for path in args.sets:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                row = json.loads(line)
                if not row["result"]["correct"]:
                    raise SystemExit(f"{path}: {row['workload']} seed {row['seed']} "
                                     "was not correct; not recording it")
                known = refs.setdefault(row["workload"], {})
                for seed, values in row["detail"]["input_sets"].items():
                    if seed not in known:
                        known[seed] = values
                        added += 1
    for workload in refs:
        refs[workload] = dict(sorted(refs[workload].items(), key=lambda kv: int(kv[0])))
    PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {added} input sets in {PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
