"""Reproduce paper Figure 9/10 (as a table): IPPV with the basic vs the
fast verification algorithm.

Usage: python jobs/fig9_verify.py [--tiny] [--datasets ...]
"""
import sys

from _util import dataset_args


def main(argv=None) -> None:
    args = dataset_args(argv, __doc__)
    from repro.experiments import fig9_rows, format_table

    print(
        format_table(
            fig9_rows(args.datasets),
            "Figure 9/10: basic vs fast verification (total IPPV runtime)",
        )
    )


if __name__ == "__main__":
    sys.path.insert(0, "jobs")
    main()
