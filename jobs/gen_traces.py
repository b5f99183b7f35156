"""Alias for ``spark-submit jobs/run.py traces [tpch|tpcds|both] [--force]``."""
import sys

import run


def main() -> None:
    run.main(["traces", *sys.argv[1:]])


if __name__ == "__main__":
    main()
