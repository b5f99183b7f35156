"""Alias for ``spark-submit jobs/run.py table4 [tpch|tpcds|both] [--force]``."""
import sys

import run


def main() -> None:
    run.main(["table4", *sys.argv[1:]])


if __name__ == "__main__":
    main()
