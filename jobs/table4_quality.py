"""Reproduce paper Table 4: average edge density and diameter of the
top-5 LhCDSes for h in {2, 3, 5, 7, 9}.

Usage: python jobs/table4_quality.py [--tiny] [--k 5]
"""
import sys

from _util import dataset_args


def main(argv=None) -> None:
    args = dataset_args(argv, __doc__)
    from repro.experiments import format_table, table4_rows

    print(
        format_table(
            table4_rows(args.datasets, k=args.k),
            "Table 4: average edge density and diameter across h",
        )
    )


if __name__ == "__main__":
    sys.path.insert(0, "jobs")
    main()
