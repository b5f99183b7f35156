"""Alias for ``spark-submit jobs/run.py expt6 [tpch|tpcds|both] [--force]``."""
import sys

import run


def main() -> None:
    run.main(["expt6", *sys.argv[1:]])


if __name__ == "__main__":
    main()
