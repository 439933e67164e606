#!/usr/bin/env python3
"""List `pub` items of the library crates that no program uses.

An item counts as used when its name appears, as a whole word, in code that
a program runs: the library crates themselves, their binaries (`src/bin/`),
`benches/`, or `perfbench/src`. Code that only tests or demonstrates runs
nothing for a user and is not a caller: `#[cfg(test)]` items, `tests/`
directories and `examples/`. Comments and string literals are ignored, and
the item's own definition does not count.

The match is by name, not by path, so two items sharing a name (`new`,
`len`) shield each other; the list is a lower bound on what is unused. It is
a report, not a gate: some unused items are kept on purpose (reference
bodies that tests compare bits against, test fakes, accessors tests read).

Usage: python3 .github/scripts/unused_pub.py [repo-root]
Prints one `path:line kind name` per unused item, then a count line.
"""

import os
import re
import sys

PUB_ITEM = re.compile(
    r"\bpub\s+(?:const\s+|unsafe\s+|async\s+|extern\s+\"C\"\s+)*"
    r"(fn|struct|enum|trait|type|const|static|union)\s+([A-Za-z_][A-Za-z0-9_]*)"
)
CFG_TEST = re.compile(r"#\[cfg\(test\)\]")
# An import is not a use: a plain `use` only names what the code below it
# uses (an unused import warns), and a `pub use` re-exports for others.
USE_DECL = re.compile(r"^\s*(?:pub(?:\([a-z]+\))?\s+)?use\s[^;]*;", re.M)
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def strip_comments_and_strings(src):
    """Blanks comments and string/char literal contents, keeping newlines
    (so line numbers survive) and every other byte offset."""
    out = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if src.startswith("//", i):
            j = src.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif src.startswith("/*", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if src.startswith("/*", j):
                    depth, j = depth + 1, j + 2
                elif src.startswith("*/", j):
                    depth, j = depth - 1, j + 2
                else:
                    j += 1
            out.append(re.sub(r"[^\n]", " ", src[i:j]))
            i = j
        elif c == "r" and re.match(r'r#*"', src[i:]) and not (
            i and (src[i - 1].isalnum() or src[i - 1] == "_")
        ):
            hashes = re.match(r"r(#*)\"", src[i:]).group(1)
            end = src.find('"' + hashes, i + len(hashes) + 2)
            j = n if end < 0 else end + 1 + len(hashes)
            out.append(re.sub(r"[^\n]", " ", src[i:j]))
            i = j
        elif c == '"':
            j = i + 1
            while j < n and src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            j += 1
            out.append(re.sub(r"[^\n]", " ", src[i:j]))
            i = j
        elif c == "'":
            # A char literal ('x', '\n', '\u{..}'); otherwise a lifetime.
            m = re.match(r"'(\\u\{[0-9a-fA-F]+\}|\\.|[^\\'])'", src[i:])
            if m:
                out.append(" " * len(m.group(0)))
                i += len(m.group(0))
            else:
                out.append(c)
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def strip_cfg_test(code):
    """Blanks every `#[cfg(test)]` item: through its matching brace, or
    through its `;` when it has no body."""
    out = list(code)
    for m in CFG_TEST.finditer(code):
        i = m.end()
        while i < len(code) and code[i] not in "{;":
            i += 1
        if i < len(code) and code[i] == "{":
            depth = 0
            while i < len(code):
                depth += {"{": 1, "}": -1}.get(code[i], 0)
                i += 1
                if depth == 0:
                    break
        else:
            i += 1
        for k in range(m.start(), min(i, len(code))):
            if out[k] != "\n":
                out[k] = " "
    return "".join(out)


def rust_files(root, rel):
    base = os.path.join(root, rel)
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d not in ("target", "tests"))
        for f in sorted(filenames):
            if f.endswith(".rs"):
                yield os.path.relpath(os.path.join(dirpath, f), root)


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    crates = sorted(
        os.path.join("crates", d, "src")
        for d in os.listdir(os.path.join(root, "crates"))
        if os.path.isdir(os.path.join(root, "crates", d, "src"))
    )
    crates += sorted(
        os.path.join("crates", "compat", d, "src")
        for d in os.listdir(os.path.join(root, "crates", "compat"))
        if os.path.isdir(os.path.join(root, "crates", "compat", d, "src"))
    )
    benches = [
        os.path.join("crates", d, "benches")
        for d in os.listdir(os.path.join(root, "crates"))
        if os.path.isdir(os.path.join(root, "crates", d, "benches"))
    ]
    lib_files = [f for c in crates for f in rust_files(root, c)]
    lib_files += [f for f in rust_files(root, "src")]
    caller_files = lib_files + [
        f for b in benches + [os.path.join("perfbench", "src")] for f in rust_files(root, b)
    ]

    uses = {}
    definitions = []
    for path in caller_files:
        with open(os.path.join(root, path), encoding="utf-8") as fh:
            code = strip_cfg_test(strip_comments_and_strings(fh.read()))
        for w in WORD.finditer(USE_DECL.sub("", code)):
            uses[w.group(0)] = uses.get(w.group(0), 0) + 1
        if path in lib_files and "/bin/" not in path:
            for m in PUB_ITEM.finditer(code):
                line = code.count("\n", 0, m.start()) + 1
                definitions.append((path, line, m.group(1), m.group(2)))

    defined = {}
    for _, _, _, name in definitions:
        defined[name] = defined.get(name, 0) + 1
    unused = [d for d in definitions if uses.get(d[3], 0) <= defined[d[3]] and d[3] != "main"]
    for path, line, kind, name in unused:
        print(f"{path}:{line} {kind} {name}")
    print(f"{len(unused)} pub item(s) with no caller outside tests and examples")


if __name__ == "__main__":
    main()
