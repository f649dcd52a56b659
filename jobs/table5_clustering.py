"""Reproduce paper Table 5: average clustering coefficient of the
detected LhCDSes for h in {2, 3, 5, 7, 9}.

Usage: python jobs/table5_clustering.py [--tiny] [--k 5]
"""
import sys

from _util import dataset_args


def main(argv=None) -> None:
    args = dataset_args(argv, __doc__)
    from repro.experiments import format_table, table5_rows

    print(
        format_table(
            table5_rows(args.datasets, k=args.k),
            "Table 5: average clustering coefficient across h",
        )
    )


if __name__ == "__main__":
    sys.path.insert(0, "jobs")
    main()
