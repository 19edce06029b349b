#!/usr/bin/env python3
"""List every lib/ module that no shipped executable links.

The shipped executables are `lbq` (bin/), the bench CLI (bench/) and the
layered benchmark (perfbench/).  Starting from their compilation units,
the script follows the imports that `ocamlobjinfo` reports for each
native `.cmx` (interfaces and implementations both), and prints every
`Lbq_*__*` unit of a library under lib/ that the walk never reaches.
It reads compiled imports rather than grepping source, because comments
and local module aliases would be mistaken for uses.

Run it from the repository root after `dune build @all`.  Exit status
is 1 when the list is non-empty.
"""

import glob
import os
import re
import subprocess
import sys

BUILD = "_build/default"
ROOTS = ["bin", "bench", "perfbench"]
# An import line: a 32-hex CRC, or dashes when the unit is only named by
# a module alias (the library wrappers), then the unit name.
IMPORT = re.compile(r"^\t([0-9a-f]{32}|-{32})\t(\S+)$")


def main():
    # Every library's units, and the executables' units under ROOTS only:
    # executable units are all named Dune__exe__*, so another directory's
    # (a test's, an example's) could shadow a root's.
    cmx = glob.glob(os.path.join(BUILD, "**/.*.objs/native/*.cmx"),
                    recursive=True)
    for r in ROOTS:
        cmx += glob.glob(os.path.join(BUILD, r, ".*.eobjs/native/*.cmx"))
    if not cmx:
        sys.exit("unshipped-guard: no .cmx under %s; run dune build @all first"
                 % BUILD)
    out = subprocess.run(["ocamlobjinfo", *sorted(cmx)], check=True,
                         capture_output=True, text=True).stdout
    deps, roots, lib_units = {}, set(), set()
    path = name = None
    for line in out.splitlines():
        if line.startswith("File "):
            path = os.path.relpath(line[len("File "):], BUILD)
        elif line.startswith("Name: "):
            name = line[len("Name: "):]
            deps.setdefault(name, set())
            top = path.split(os.sep)[0]
            if top in ROOTS:
                roots.add(name)
            elif top == "lib" and re.match(r"^Lbq_[a-z_]+__", name):
                lib_units.add(name)
        else:
            m = IMPORT.match(line)
            # A dashed CRC is an alias with no dependency behind it.
            if m and name is not None and not m.group(1).startswith("-"):
                deps[name].add(m.group(2))
    seen, todo = set(roots), list(roots)
    while todo:
        for d in deps.get(todo.pop(), ()):
            if d not in seen:
                seen.add(d)
                todo.append(d)
    unshipped = sorted(lib_units - seen)
    for u in unshipped:
        print("  unshipped: %s" % u)
    if unshipped:
        print("unshipped-guard: the lib/ module(s) above have no shipped "
              "caller FAIL")
        return 1
    print("  unshipped-guard: all %d lib/ modules are reached from bin/, "
          "bench/ or perfbench/ OK" % len(lib_units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
