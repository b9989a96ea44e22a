#!/usr/bin/env python3
"""Options audit: does every knob of libsa name who turns it?

Usage: python3 tools/options_audit.py   (no flags; run from anywhere)

A knob is a field of a struct whose name ends in Config, Options, Params or
Policy under src/. The script reads every such struct definition in the
headers under src/, lists its non-static data members and checks them
against tools/libsa_options.txt. Each line of the list is

    <Struct>::<field>  <category>: <reason>
    <Struct>::*        declaration: <reason>

<category> is one of

    program       a shipped program or library code sets the field; the
                  reason names the file (src/, tools/, examples/ or
                  perfbench/src/) that writes it
    paper         a bench that reproduces one of the paper's experiments
                  sets it
    wire:<n>      ROADMAP direction <n> will connect it
    harness       a named test cannot check, at the programs' value,
                  behaviour the programs exercise
    declaration   (Struct::* only) the struct describes the modelled
                  system, a deployment or an analysis output: its fields
                  are not knobs

Blank lines and lines starting with '#' are ignored.

Exit status 1 when a field has no line, when a line names no field (or no
struct), when a line is malformed, or when a program: line's file does not
write the field (".field =", "->field =", or a write to one of its
members such as ".field.x ="); 0 otherwise. So the list stays exact: a
change that adds a knob adds its line and says who sets it, and a change
that turns a knob into a constant removes its line.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIST = os.path.join(ROOT, "tools", "libsa_options.txt")

CATEGORIES = ("program", "paper", "harness", "declaration")
PROGRAM_DIRS = ("src/", "tools/", "examples/", "perfbench/src/")
STRUCT_RE = re.compile(
    r"\bstruct\s+(\w+(?:Config|Options|Params|Policy))\b[^;{()]*\{")
LINE_RE = re.compile(
    r"^(?P<struct>\w+)::(?P<field>\w+|\*)\s+"
    r"(?P<category>[a-z]+(?::\d+)?):\s+(?P<reason>\S.*)$")
PATH_RE = re.compile(
    r"\b((?:src|tools|examples|perfbench/src)/[\w./-]+\.(?:cpp|hpp))\b")
COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.S)


def matching_brace(text, open_at):
    """Index of the brace that closes the one at `open_at`."""
    depth = 0
    for i in range(open_at, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    raise ValueError("unbalanced braces")


def statements(body):
    """The top-level statements of a struct body, split at ';'."""
    out, depth, start = [], 0, 0
    for i, c in enumerate(body):
        if c in "({[":
            depth += 1
        elif c in ")}]":
            depth -= 1
        elif c == ";" and depth == 0:
            out.append(body[start:i].strip())
            start = i + 1
    return out


def field_name(statement):
    """The data member a statement declares, or None (method, static, ...)."""
    if not statement or re.match(r"(static|using|friend|typedef|enum|struct|"
                                 r"class|template)\b", statement):
        return None
    if re.search(r"\boperator\b", statement):
        return None
    # The declarator ends where the initializer starts.
    depth = 0
    for i, c in enumerate(statement):
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif depth == 0 and c in "={":
            statement = statement[:i]
            break
        elif depth == 0 and c == "(":
            return None  # a member function
    m = re.search(r"(\w+)\s*(\[[^\]]*\])?\s*$", statement)
    return m.group(1) if m else None


def option_structs(sources):
    """{struct name: [field, ...]} over {path: text} of C++ headers."""
    structs = {}
    for path, text in sources.items():
        text = COMMENT_RE.sub("", text)
        for m in STRUCT_RE.finditer(text):
            open_at = m.end() - 1
            body = text[open_at + 1:matching_brace(text, open_at)]
            fields = [f for f in map(field_name, statements(body)) if f]
            structs[m.group(1)] = fields
    return structs


def writes(text, field):
    """True when `text` assigns the field or one of its members."""
    return re.search(r"(?:\.|->)" + re.escape(field) + r"(?:\.\w+)*\s*=(?!=)",
                     text) is not None


def audit(structs, lines, read):
    """Check the option structs' fields against the list's lines.

    `read(path)` returns a repository file's text, or None when it does not
    exist. Returns one error string per unlisted field, stale line,
    malformed line or unfounded program: line; an empty list means the list
    is exact."""
    errors, listed = [], set()
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = LINE_RE.match(line)
        if not m:
            errors.append(f"line {number}: not '<Struct>::<field>  "
                          f"<category>: <reason>': {line}")
            continue
        struct, field = m.group("struct"), m.group("field")
        category, reason = m.group("category"), m.group("reason")
        if category not in CATEGORIES and not re.fullmatch(r"wire:\d+",
                                                           category):
            errors.append(f"line {number}: unknown category '{category}'"
                          f" (use {', '.join(CATEGORIES)} or wire:<n>)")
            continue
        if (field == "*") != (category == "declaration"):
            errors.append(f"line {number}: '{struct}::*' goes with"
                          " declaration and declaration with '::*' only")
            continue
        if struct not in structs:
            errors.append(f"line {number}: stale: no struct {struct} under"
                          " src/; remove the line")
            continue
        if field == "*":
            listed.update((struct, f) for f in structs[struct])
            listed.add((struct, "*"))
            continue
        if field not in structs[struct]:
            errors.append(f"line {number}: stale: {struct} has no field"
                          f" '{field}'; remove the line")
            continue
        listed.add((struct, field))
        if category == "program":
            path = PATH_RE.search(reason)
            text = read(path.group(1)) if path else None
            if text is None:
                errors.append(f"line {number}: a program: reason must name"
                              " an existing file under "
                              f"{', '.join(PROGRAM_DIRS)}")
            elif not writes(COMMENT_RE.sub("", text), field):
                errors.append(f"line {number}: {path.group(1)} does not write"
                              f" {struct}::{field}")
    for struct in sorted(structs):
        if not structs[struct] and (struct, "*") not in listed:
            continue  # a struct without fields is not a knob
        for field in structs[struct]:
            if (struct, field) not in listed:
                errors.append(f"unlisted: {struct}::{field} is a knob; add a"
                              " line naming who sets it, or make it a"
                              " constant")
    return errors


def main():
    if len(sys.argv) > 1:
        sys.exit(__doc__)
    sources = {}
    for directory, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in sorted(files):
            if name.endswith(".hpp"):
                path = os.path.join(directory, name)
                with open(path, encoding="utf-8") as f:
                    sources[os.path.relpath(path, ROOT)] = f.read()
    structs = option_structs(sources)

    def read(path):
        full = os.path.join(ROOT, path)
        if not os.path.isfile(full):
            return None
        with open(full, encoding="utf-8") as f:
            return f.read()

    with open(LIST, encoding="utf-8") as f:
        lines = f.read().splitlines()
    errors = audit(structs, lines, read)
    declared = {m.group("struct") for m in map(LINE_RE.match, lines)
                if m and m.group("field") == "*"}
    knobs = sum(len(fields) for name, fields in structs.items()
                if name not in declared)
    print(f"{len(structs)} option structs; {knobs} knobs outside the"
          f" {len(declared)} declaration structs")
    for error in errors:
        print(f"{os.path.relpath(LIST, ROOT)}: {error}", file=sys.stderr)
    if errors:
        return 1
    print(f"{os.path.relpath(LIST, ROOT)}: exact")
    return 0


if __name__ == "__main__":
    sys.exit(main())
