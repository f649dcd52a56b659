"""Reproduce paper Figure 12 (as a table): IPPV (h=2) vs LDSflow.

Usage: python jobs/fig12_ldsflow.py [--tiny] [--k 5]
"""
import sys

from _util import dataset_args


def main(argv=None) -> None:
    args = dataset_args(argv, __doc__)
    from repro.experiments import fig12_rows, format_table

    print(format_table(fig12_rows(args.datasets, k=args.k), "Figure 12: IPPV (h=2) vs LDSflow"))


if __name__ == "__main__":
    sys.path.insert(0, "jobs")
    main()
