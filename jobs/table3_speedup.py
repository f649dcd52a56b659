"""Reproduce paper Table 3: IPPV (h=3) vs LTDS runtimes and speedups.

Usage: python jobs/table3_speedup.py [--tiny] [--k 5]
"""
import sys

from _util import dataset_args


def main(argv=None) -> None:
    args = dataset_args(argv, __doc__)
    from repro.experiments import format_table, table3_rows

    rows = table3_rows(None, args.datasets, k=args.k, h=3)
    print(format_table(rows, "Table 3: IPPV (h=3) vs LTDS"))


if __name__ == "__main__":
    sys.path.insert(0, "jobs")
    main()
