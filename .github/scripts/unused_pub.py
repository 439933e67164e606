#!/usr/bin/env python3
"""List `pub` items of the library crates that no program uses.

An item counts as used when its name appears, as a whole word, in code that
a program runs: the library crates themselves, their binaries (`src/bin/`),
`benches/`, or `perfbench/src`. Code that only tests or demonstrates runs
nothing for a user and is not a caller: `#[cfg(test)]` items, `tests/`
directories and `examples/`. Comments, string literals and `use`
declarations are ignored.

The scan is transitive. A use does not count when it sits inside the item's
own definition or its own `impl` blocks (those whose self type it is), or
inside the definition or `impl` blocks of an item already found unused; the
scan repeats until the list stops growing. So a family of items that only
name each other (a trait and the types implementing it, a struct and the
one wrapper that holds it) is listed whole.

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
IMPL = re.compile(r"\bimpl\b")
PATH_TYPE = re.compile(r"(?:[A-Za-z_][A-Za-z0-9_]*\s*::\s*)*([A-Za-z_][A-Za-z0-9_]*)")


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


def skip_generics(code, i):
    """Index just past the balanced `<...>` starting at `code[i]`."""
    depth = 0
    while i < len(code):
        if code[i] == "<":
            depth += 1
        elif code[i] == ">" and code[i - 1] != "-":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return i


def block_end(code, i):
    """Index just past the `{...}` block opening at `code[i]`."""
    depth = 0
    while i < len(code):
        depth += {"{": 1, "}": -1}.get(code[i], 0)
        i += 1
        if depth == 0:
            break
    return i


def item_end(code, start, kind):
    """Index just past the item whose header starts at `start`: through its
    `{...}` body, or through its `;`. A `const`, `static` or `type` always
    ends at its `;`; the others end at the first body or `;` outside
    brackets (so `fn f(a: [u8; 4])` and tuple structs are read whole)."""
    braces = kind in ("const", "static", "type")
    depth, i = 0, start
    while i < len(code):
        c = code[i]
        if c in "([" or (braces and c == "{"):
            depth += 1
        elif c in ")]" or (braces and c == "}"):
            depth -= 1
        elif depth == 0 and c == ";":
            return i + 1
        elif depth == 0 and c == "{":
            return block_end(code, i)
        i += 1
    return i


def impl_blocks(code):
    """`(start, end, self_type)` of every `impl` item: the self type is the
    last path segment of the type after `for`, or of the implemented type."""
    out = []
    for m in IMPL.finditer(code):
        # An item starts a file or follows a `}`, `;`, attribute or `unsafe`;
        # any other `impl` is an argument or return type (`-> impl Fn()`).
        before = code[: m.start()].rstrip()
        if before and before[-1] not in "{};]" and not before.endswith("unsafe"):
            continue
        i = m.end()
        while i < len(code) and code[i].isspace():
            i += 1
        if code.startswith("<", i):
            i = skip_generics(code, i)
        brace = code.find("{", i)
        if brace < 0:
            continue
        header = re.split(r"\bwhere\b", code[i:brace])[0]
        target = re.split(r"\bfor\b", header)[-1]
        target = re.sub(r"&|'[A-Za-z_]+|\b(?:mut|dyn)\b", " ", target)
        name = PATH_TYPE.search(target)
        if name:
            out.append((m.start(), block_end(code, brace), name.group(1)))
    return out


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

    definitions = []
    codes = {}
    spans = {}  # path -> [(start, end, owner name)]: definitions and impls
    for path in caller_files:
        with open(os.path.join(root, path), encoding="utf-8") as fh:
            code = strip_cfg_test(strip_comments_and_strings(fh.read()))
        code = USE_DECL.sub(lambda m: re.sub(r"[^\n]", " ", m.group(0)), code)
        codes[path] = code
        spans[path] = impl_blocks(code)
        if path in lib_files and "/bin/" not in path:
            for m in PUB_ITEM.finditer(code):
                line = code.count("\n", 0, m.start()) + 1
                definitions.append((path, line, m.group(1), m.group(2)))
                spans[path].append((m.start(), item_end(code, m.start(), m.group(1)), m.group(2)))

    # Every use of a defined name, with the owners of the spans around it.
    defined = {name for _, _, _, name in definitions}
    uses = {name: [] for name in defined}
    for path, code in codes.items():
        for w in WORD.finditer(code):
            if w.group(0) in defined:
                owners = {o for a, b, o in spans[path] if a <= w.start() < b}
                uses[w.group(0)].append(owners)

    unused = set()
    while True:
        found = {
            name
            for name in defined - unused
            if name != "main"
            and not any(name not in owners and not owners & unused for owners in uses[name])
        }
        if not found:
            break
        unused |= found
    listed = [d for d in definitions if d[3] in unused]
    for path, line, kind, name in listed:
        print(f"{path}:{line} {kind} {name}")
    print(f"{len(listed)} pub item(s) with no caller outside tests and examples")


if __name__ == "__main__":
    main()
