"""Alias for ``spark-submit jobs/run.py table3 [tpch|tpcds|both] [--force]``."""
import sys

import run


def main() -> None:
    run.main(["table3", *sys.argv[1:]])


if __name__ == "__main__":
    main()
