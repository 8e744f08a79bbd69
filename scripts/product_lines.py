#!/usr/bin/env python3
"""Count the product lines of the workspace: lines of
`crates/<crate>/src/**/*.rs` outside items gated by `#[cfg(test)]`, per
crate and in total. Blank and comment lines count; a gated item is skipped
from its attribute through its matching closing brace (or its `;`).

    python3 scripts/product_lines.py               # the working tree
    python3 scripts/product_lines.py --rev HEAD~1  # a commit, via git
    python3 scripts/product_lines.py --json        # one JSON object
    python3 scripts/product_lines.py --files crates/core/src/stream.rs ...
                                                   # those files, each

Stdlib only; reads files, runs nothing but `git ls-tree` / `git show`.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def code_chars(text):
    """Yield (index, char) of `text` outside comments, strings and char
    literals, so that braces there are not counted."""
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
            continue
        if text.startswith("/*", i):
            depth, i = 1, i + 2
            while i < n and depth:
                if text.startswith("/*", i):
                    depth, i = depth + 1, i + 2
                elif text.startswith("*/", i):
                    depth, i = depth - 1, i + 2
                else:
                    i += 1
            continue
        if c == "r" and i + 1 < n and text[i + 1] in '#"' and not _ident(text, i - 1):
            j = i + 1
            while j < n and text[j] == "#":
                j += 1
            if j < n and text[j] == '"':
                close = '"' + "#" * (j - i - 1)
                end = text.find(close, j + 1)
                i = n if end < 0 else end + len(close)
                continue
        if c == '"':
            i += 1
            while i < n and text[i] != '"':
                i += 2 if text[i] == "\\" else 1
            i += 1
            continue
        if c == "'":
            # A char literal ('x', '\n', '\u{..}') or a lifetime ('a).
            if i + 2 < n and text[i + 1] == "\\":
                end = text.find("'", i + 2)
                i = n if end < 0 else end + 1
                continue
            if i + 2 < n and text[i + 2] == "'":
                i += 3
                continue
        yield i, c
        i += 1


def _ident(text, i):
    return i >= 0 and (text[i].isalnum() or text[i] == "_")


def product_lines(text):
    """Lines of `text` outside `#[cfg(test)]` items."""
    skip = set()
    lines = text.split("\n")
    starts, pos = [], 0
    for line in lines:
        starts.append(pos)
        pos += len(line) + 1
    chars = list(code_chars(text))
    by_pos = {p: k for k, (p, _) in enumerate(chars)}
    line_of = lambda p: _line_at(starts, p)
    for no, line in enumerate(lines):
        if line.strip() != "#[cfg(test)]" or no in skip:
            continue
        # From the attribute to the item's end: the first `;` before any
        # brace, or the brace that closes the first one opened.
        k = next((by_pos[p] for p in range(starts[no], len(text)) if p in by_pos), len(chars))
        k += len("#[cfg(test)]")
        depth, nest, end = 0, 0, len(text)
        for p, c in chars[k:]:
            if c in "([":
                nest += 1
            elif c in ")]":
                nest -= 1
            elif c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    end = p
                    break
            elif c == ";" and depth == 0 and nest == 0:
                end = p
                break
        skip.update(range(no, line_of(end) + 1))
    total = len(lines) - (1 if text.endswith("\n") else 0)
    return total - len([s for s in skip if s < total])


def _line_at(starts, p):
    lo, hi = 0, len(starts)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if starts[mid] <= p:
            lo = mid
        else:
            hi = mid
    return lo


def sources(rev):
    """(crate, path, text) of every `crates/<crate>/src/**/*.rs`."""
    if rev is None:
        crates = os.path.join(ROOT, "crates")
        for crate in sorted(os.listdir(crates)):
            src = os.path.join(crates, crate, "src")
            for dirpath, _, files in sorted(os.walk(src)):
                for f in sorted(files):
                    if f.endswith(".rs"):
                        path = os.path.join(dirpath, f)
                        with open(path, encoding="utf-8") as fh:
                            yield crate, os.path.relpath(path, ROOT), fh.read()
        return
    git = ["git", "-C", ROOT]
    names = subprocess.run(
        git + ["ls-tree", "-r", "--name-only", rev, "crates"],
        check=True, capture_output=True, text=True,
    ).stdout.split()
    for path in sorted(names):
        parts = path.split("/")
        if len(parts) >= 4 and parts[2] == "src" and path.endswith(".rs"):
            text = subprocess.run(
                git + ["show", f"{rev}:{path}"], check=True, capture_output=True, text=True
            ).stdout
            yield parts[1], path, text


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rev", help="count this git revision instead of the working tree")
    ap.add_argument("--json", action="store_true", help="print one JSON object")
    ap.add_argument("--files", nargs="+", metavar="PATH",
                    help="count these files (paths from the repo root), each, instead of crates")
    args = ap.parse_args()
    per_crate, per_file = {}, {}
    for crate, path, text in sources(args.rev):
        lines = product_lines(text)
        per_crate[crate] = per_crate.get(crate, 0) + lines
        per_file[path] = lines
    kind, rows = "crates", dict(sorted(per_crate.items()))
    if args.files:
        missing = [f for f in args.files if f not in per_file]
        if missing:
            sys.exit(f"not a crates/<crate>/src file here: {' '.join(missing)}")
        kind, rows = "files", {f: per_file[f] for f in args.files}
    total = sum(rows.values())
    if args.json:
        json.dump({"rev": args.rev or "working tree", kind: rows, "total": total},
                  sys.stdout, indent=1)
        print()
        return
    print(f"product lines outside #[cfg(test)] ({args.rev or 'working tree'})")
    width = max(10, *map(len, rows))
    for name, lines in rows.items():
        print(f"  {name:<{width}} {lines:>6}")
    print(f"  {'total':<{width}} {total:>6}")

if __name__ == "__main__":
    main()
