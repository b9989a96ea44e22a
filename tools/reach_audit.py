#!/usr/bin/env python3
"""Reachability audit: which libsa functions does no shipped program contain?

Usage: python3 tools/reach_audit.py   (no flags; run from anywhere)

The shipped programs are the three tools, the ten examples and perfbench's
perfbench_driver. The script builds them under build-reach/, both trees at
-O0 -fno-inline -ffunction-sections -fdata-sections and linked with
-Wl,--gc-sections, so a function survives in a binary exactly when some
path from main() can call it:

  build-reach/root       the root project, tools and examples on, tests and
                         benches off;
  build-reach/perfbench  perfbench/ as it is, target perfbench_driver, and
                         -fkeep-inline-functions on top: it emits every
                         inline function, so an inline member that nothing
                         calls has a symbol in this tree's libsa.a too.

It then lists every libsa function whose name appears in none of the
binaries, with its size, and checks libsa's own unreached functions against
tools/libsa_unreached.txt. The functions are

  - the strong text symbols (nm type T or t) of the root tree's libsa.a.
    They come from the tree without the flag, which would also emit local
    copies of inline functions with internal linkage (mostly std:: helpers
    instantiated over lambda types) that no program calls at run time;
  - the weak symbols (W or w) in sa:: of the perfbench tree's libsa.a:
    inline members and template instantiations. Weak constructors,
    destructors and assignment operators are skipped, since the compiler
    mostly generates those itself.

Inline functions with internal linkage (members of a class in an anonymous
namespace) are in neither set. One summary line gives the unreached share
of the strong functions and one that of the weak sa:: ones. Tests and
benches are not entry points: code only they reach needs a line like any
other.

Each line of the list is

    <name>  <category>: <reason>

<name> is a qualified name below sa:: (covering every overload), or
"Class::*" (every member of the class or namespace). <category> is one of

    paper         one of the paper's models that only benches run
    wire:<n>      code that ROADMAP direction <n> will connect
    grammar       a printer the grammar suite's round trip rests on
    benchmark     kept for perfbench, whose files belong to the benchmark
    harness       called by tests or benches to set up or observe a run

Blank lines and lines starting with '#' are ignored.

Exit status 1 when an unreached function in sa:: (lambda bodies and std::
instantiations aside) matches no line, when a line matches no unreached
function, when a line is malformed, or when the perfbench tree's libsa.a
holds no weak sa:: function that the root tree's lacks (a compiler that
ignored -fkeep-inline-functions would hide every uncalled inline member);
0 otherwise. So the list stays exact: a change that strands a function adds
a line with its reason, and a change that reaches or deletes one removes
its line.
"""

import collections
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "build-reach")
LIST = os.path.join(ROOT, "tools", "libsa_unreached.txt")

CXX_FLAGS = "-O0 -fno-inline -ffunction-sections -fdata-sections"
INLINE_FLAGS = CXX_FLAGS + " -fkeep-inline-functions"
LINK_FLAGS = "-Wl,--gc-sections"

CATEGORIES = ("paper", "grammar", "benchmark", "harness")
ABI_TAG_RE = re.compile(r"\[abi:[^\]]*\]")
LINE_RE = re.compile(
    r"^(?P<name>\S.*?)\s+(?P<category>[a-z]+(?::\d+)?):\s+(?P<reason>\S.*)$")


def qualified_name(demangled):
    """The function's qualified name: no return type, no parameter list."""
    depth = 0
    start = 0
    i = 0
    while i < len(demangled):
        c = demangled[i]
        if demangled.startswith("operator", i) and (
                i == 0 or demangled[i - 1] in " :"):
            # operator(), operator<, operator<< ... : skip the operator's
            # own symbol so its brackets do not count as nesting.
            j = i + len("operator")
            if demangled.startswith("()", j):
                return demangled[start:j + 2]
            if demangled.startswith(" ", j):  # conversion: operator bool()
                return demangled[start:demangled.index("(", j)]
            while j < len(demangled) and demangled[j] in "<>=!+-*/%&|^~[],":
                j += 1
            i = j
            continue
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == "(" and depth == 0:
            if demangled.startswith("(anonymous namespace)", i):
                i += len("(anonymous namespace)")
                continue
            return demangled[start:i]
        elif c == " " and depth == 0:
            start = i + 1  # what came before was a return type
        i += 1
    return demangled[start:]


def own_function(demangled):
    """The name below sa:: of one of libsa's own functions, else None."""
    if "{lambda(" in demangled:
        return None
    name = ABI_TAG_RE.sub("", qualified_name(demangled))
    if not name.startswith("sa::"):
        return None
    return name[len("sa::"):]


def without_template_args(name):
    """The name with every <...> argument list removed."""
    out, depth = [], 0
    for c in name:
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif depth == 0:
            out.append(c)
    return "".join(out)


def special_member(name):
    """Whether an own_function() name is a constructor, destructor or
    assignment operator."""
    if name.endswith("::operator="):
        return True
    if "operator" in name:
        return False  # its symbol may hold a '<' of its own
    parts = without_template_args(name).split("::")
    return len(parts) > 1 and (parts[-1].startswith("~")
                               or parts[-1] == parts[-2])


Symbol = collections.namedtuple("Symbol", "mangled demangled size weak")


def symbols(nm_lines, types):
    """{mangled name: size} of the `nm -S --defined-only` lines' symbols
    whose type letter is one of types."""
    found = {}
    for line in nm_lines:
        fields = line.split()
        if len(fields) == 4 and fields[2] in types:
            found[fields[3]] = int(fields[1], 16)
    return found


def library_functions(plain_nm, inline_nm, demangler):
    """(functions, errors) for the nm lines of libsa.a built without and
    with -fkeep-inline-functions.

    The functions are the plain archive's strong text symbols and the
    inline archive's weak ones that are libsa's own (own_function) and not
    special members (special_member). demangler maps a list of mangled
    names to their demangled forms. errors is non-empty when the inline
    archive adds no such weak function to the plain one's."""
    strong = symbols(plain_nm, "Tt")
    weak = symbols(inline_nm, "Ww")
    plain_weak = symbols(plain_nm, "Ww")
    names = sorted(set(strong) | set(weak))
    functions = []
    for mangled, demangled in zip(names, demangler(names)):
        if mangled in strong:
            functions.append(Symbol(mangled, demangled, strong[mangled], False))
            continue
        own = own_function(demangled)
        if own is not None and not special_member(own):
            functions.append(Symbol(mangled, demangled, weak[mangled], True))
    errors = []
    if not any(s.weak and s.mangled not in plain_weak for s in functions):
        errors.append("-fkeep-inline-functions added no weak sa:: function"
                      " to libsa.a, so no uncalled inline member was seen")
    return functions, errors


def parse_list(lines):
    """(entries, errors): entries are (line number, name, category)."""
    entries, errors = [], []
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = LINE_RE.match(line)
        if not m:
            errors.append(f"line {number}: not '<name>  <category>: <reason>':"
                          f" {line}")
            continue
        category = m.group("category")
        if category not in CATEGORIES and not re.fullmatch(r"wire:\d+",
                                                           category):
            errors.append(f"line {number}: unknown category '{category}'"
                          f" (use {', '.join(CATEGORIES)} or wire:<n>)")
            continue
        entries.append((number, m.group("name"), category))
    return entries, errors


def covers(entry_name, name):
    if entry_name.endswith("::*"):
        return name.startswith(entry_name[:-1])
    return name == entry_name


def audit(unreached, lines):
    """Check demangled unreached function names against the list's lines.

    Returns one error string per unlisted function, stale line or malformed
    line; an empty list means the list is exact."""
    entries, errors = parse_list(lines)
    own = sorted({n for n in map(own_function, unreached) if n is not None})
    used = set()
    for name in own:
        hits = [e for e in entries if covers(e[1], name)]
        if not hits:
            errors.append(f"unlisted: sa::{name} is reached by no shipped"
                          " program; add a line with a reason, or delete it")
        used.update(e[0] for e in hits)
    for number, entry_name, _ in entries:
        if number not in used:
            errors.append(f"line {number}: stale: '{entry_name}' matches no"
                          " unreached function; remove the line")
    return errors


def run(cmd):
    print("+", " ".join(cmd), flush=True)
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)


def build():
    """(plain libsa.a, inline libsa.a, shipped binaries)."""
    jobs = str(os.cpu_count() or 1)
    common = [
        "-DCMAKE_BUILD_TYPE=ReachAudit",  # no per-type flags: only these
        f"-DCMAKE_EXE_LINKER_FLAGS={LINK_FLAGS}",
    ]
    root = os.path.join(BUILD, "root")
    run(["cmake", "-S", ROOT, "-B", root, *common,
         f"-DCMAKE_CXX_FLAGS={CXX_FLAGS}",
         "-DSA_BUILD_TOOLS=ON", "-DSA_BUILD_EXAMPLES=ON",
         "-DSA_BUILD_TESTS=OFF", "-DSA_BUILD_BENCH=OFF"])
    run(["cmake", "--build", root, "-j", jobs])
    perfbench = os.path.join(BUILD, "perfbench")
    run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", perfbench,
         *common, f"-DCMAKE_CXX_FLAGS={INLINE_FLAGS}"])
    run(["cmake", "--build", perfbench, "-j", jobs,
         "--target", "perfbench_driver"])
    binaries = [os.path.join(perfbench, "perfbench_driver")]
    for sub in ("tools", "examples"):
        directory = os.path.join(root, sub)
        for entry in sorted(os.listdir(directory)):
            path = os.path.join(directory, entry)
            if os.path.isfile(path) and os.access(path, os.X_OK):
                with open(path, "rb") as f:
                    if f.read(4) == b"\x7fELF":
                        binaries.append(path)
    return (os.path.join(root, "libsa.a"),
            os.path.join(perfbench, "sa", "libsa.a"), binaries)


def nm(path, extra=()):
    out = subprocess.run(["nm", "--defined-only", *extra, path], check=True,
                         capture_output=True, text=True).stdout
    return out.splitlines()


def demangle(names):
    out = subprocess.run(["c++filt"], input="\n".join(names) + "\n",
                         check=True, capture_output=True, text=True).stdout
    return out.splitlines()


def summary(functions, unreached, what):
    """'<n> of <m> <what>, <x> KB of <y> KB' for the unreached functions."""
    total = sum(s.size for s in functions) / 1000
    lost = sum(s.size for s in unreached) / 1000
    return (f"{len(unreached)} of {len(functions)} {what}, {lost:.1f} KB of"
            f" {total:.1f} KB")


def check(functions, present, lines):
    """(unreached functions, errors) for the audited functions, the symbol
    names the binaries hold and the list's lines."""
    unreached = [s for s in functions if s.mangled not in present]
    return unreached, audit([s.demangled for s in unreached], lines)


def main():
    if len(sys.argv) > 1:
        sys.exit(__doc__)
    plain, inline, binaries = build()
    functions, errors = library_functions(nm(plain, ["-S"]),
                                          nm(inline, ["-S"]), demangle)
    present = set()
    for binary in binaries:
        present.update(line.split()[-1] for line in nm(binary) if line)
    with open(LIST, encoding="utf-8") as f:
        unreached, list_errors = check(functions, present,
                                       f.read().splitlines())
    errors += list_errors
    for s in sorted(unreached, key=lambda s: s.demangled):
        print(f"{s.size:7d}  {'W' if s.weak else 'T'}  {s.demangled}")
    strong = summary([s for s in functions if not s.weak],
                     [s for s in unreached if not s.weak], "T/t functions")
    weak = summary([s for s in functions if s.weak],
                   [s for s in unreached if s.weak], "weak sa:: functions")
    print(f"\n{len(binaries)} binaries; unreached: {strong}")
    print(f"inline members and templates: unreached: {weak}")
    for error in errors:
        print(f"{os.path.relpath(LIST, ROOT)}: {error}", file=sys.stderr)
    if errors:
        return 1
    print(f"{os.path.relpath(LIST, ROOT)}: exact")
    return 0


if __name__ == "__main__":
    sys.exit(main())
