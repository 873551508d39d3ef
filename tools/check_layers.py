#!/usr/bin/env python3
"""Fail when a library layer includes a layer above it.

Usage: check_layers.py [SRC_DIR]   (default: src)

The execution harness (harness/) sits on top of the backend abstraction
(exec/), which sits on top of everything else under SRC_DIR.  Reliable
broadcast (rb/) is reached only through the witness-phase engine in core/
(core/collect.hpp), so no protocol grows a private RB + witness copy.
Three rules:
  - only files under harness/ may include "harness/...";
  - only files under exec/ or harness/ may include "exec/...";
  - only files under core/ or rb/ may include "rb/...".
Exit code 1 and one line per offending include otherwise.
"""

import re
import sys
from pathlib import Path

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*[<"]([^>"]+)[>"]')

# Included layer -> top-level directories allowed to include it.
ALLOWED = {
    "harness": {"harness"},
    "exec": {"exec", "harness"},
    "rb": {"core", "rb"},
}


def violations(src: Path) -> list[str]:
    bad = []
    for path in sorted(src.rglob("*")):
        if path.suffix not in {".hpp", ".cpp", ".h", ".cc"}:
            continue
        owner = path.relative_to(src).parts[0]
        text = path.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), start=1):
            match = INCLUDE_RE.match(line)
            if not match:
                continue
            layer = match.group(1).split("/", 1)[0]
            if layer in ALLOWED and owner not in ALLOWED[layer]:
                bad.append(f"{path}:{lineno}: {owner}/ includes {match.group(1)}")
    return bad


def main(argv: list[str]) -> int:
    if len(argv) > 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    src = Path(argv[1] if len(argv) == 2 else "src")
    if not src.is_dir():
        print(f"{src}: not a directory", file=sys.stderr)
        return 2
    failures = violations(src)
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
