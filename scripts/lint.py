#!/usr/bin/env python3
"""Thin shim: the repo linter is the token-aware srlint engine in
tools/srlint/ (DESIGN.md §13). This file keeps the historical entry point —
the `lint` ctest and scripts/check.sh invoke it — and forwards everything.

Run `python3 tools/srlint --list-rules` for the rule catalog (R1–R10, R12–R14).
"""

import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    os.execv(
        sys.executable,
        [sys.executable, str(REPO_ROOT / "tools" / "srlint"), *sys.argv[1:]],
    )
