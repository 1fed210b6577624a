"""``python -m repro.native``: this process's :func:`~repro.native.status`
as JSON; ``--clear`` empties the object cache first."""

import json
import sys

from repro import native

if __name__ == "__main__":
    if "--clear" in sys.argv[1:]:
        print(f"removed {native.clear()} cached object(s)", file=sys.stderr)
    print(json.dumps(native.status(), indent=2))
