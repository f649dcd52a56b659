"""Reproduce paper Figure 14 (as a table): size and h-clique density of
the subgraphs returned by IPPV vs the Greedy CDS baseline.

Usage: python jobs/fig14_greedy.py [--tiny] [--k 5]
"""
import sys

from _util import dataset_args


def main(argv=None) -> None:
    args = dataset_args(argv, __doc__)
    from repro.experiments import fig14_rows, format_table

    print(format_table(fig14_rows(args.datasets, k=args.k), "Figure 14: IPPV vs Greedy"))


if __name__ == "__main__":
    sys.path.insert(0, "jobs")
    main()
