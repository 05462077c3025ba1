"""``python3 -m perf``: run the benchmark from the root of a checkout.

The program under test is imported from the checkout's own ``src/``; a
directory without it (the benchmark files alone) is an error, never a
silent fallback to some other installed copy.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perf: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))

    from perf.bench import main

    raise SystemExit(main())
