"""Child-process entry point: ``worker.py ROLE ARGS.json RESULT.json``.

The clock starts before anything is imported, so a role can report its
process's own start-up and ``import repro`` cost as set-up.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    role, args_path, result_path = sys.argv[1:4]
    with open(args_path) as handle:
        args = json.load(handle)
    from roles import ROLES

    result = ROLES[role](args, STARTED)
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
