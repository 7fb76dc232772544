"""Print the figure suite and the headline report computed by the oracles.

Usage (from the repository root)::

    PYTHONPATH=src python -m tests.oracles DATASET

The output is what ``python -m repro.experiments.runner --dataset DATASET
--extensions --report --quiet`` prints, but every frames-backed analysis
runs its per-object oracle, so ``cmp`` of the two outputs checks the
production suite against the reference end to end.
"""

from __future__ import annotations

import argparse

from repro.analysis.report import format_report, headline_report
from repro.collection.dataset import MigrationDataset
from repro.experiments.registry import all_experiment_ids, get_experiment
from tests.oracles import oracles_installed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.oracles")
    parser.add_argument("dataset", help="a saved dataset (.json or .npz)")
    args = parser.parse_args(argv)
    dataset = MigrationDataset.load(args.dataset)
    with oracles_installed():
        for exp_id in all_experiment_ids(include_extensions=True):
            print(get_experiment(exp_id)(dataset).format())
            print()
        print(format_report(headline_report(dataset)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
