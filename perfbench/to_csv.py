"""Trajectory staging: one raw JSON per run → one CSV of every metric.

``run.py`` writes ``perfbench/out/raw/<workload>-s<seed>-t<trace>-<stamp>.json``
per run and then calls :func:`write_csv`, which flattens every raw file into
``perfbench/out/results.csv`` (one row per metric × workload × run).  Run it
standalone to rebuild the CSV::

    python3 perfbench/to_csv.py
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"
COLUMNS = ("run", "workload", "seed", "trace", "correct", "metric", "value", "unit")


def write_raw(record: dict, out: Path = OUT) -> Path:
    raw_dir = out / "raw"
    raw_dir.mkdir(parents=True, exist_ok=True)
    path = raw_dir / f"{record['run']}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def write_csv(out: Path = OUT) -> Path:
    path = out / "results.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(COLUMNS)
        for raw in sorted((out / "raw").glob("*.json")):
            record = json.loads(raw.read_text())
            for metric, entry in record["result"]["metrics"].items():
                writer.writerow(
                    (
                        record["run"],
                        record["workload"],
                        record["seed"],
                        record["trace"],
                        record["result"]["correct"],
                        metric,
                        entry["value"],
                        entry["unit"],
                    )
                )
    return path


if __name__ == "__main__":
    print(write_csv())
