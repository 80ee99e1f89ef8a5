#!/usr/bin/env python3
"""Dead-API gate: every vg:: function in src/ must be linked by a target.

    python3 tools/dead_api.py

Builds the repository and perfbench's vgbench into build-dead-api/ at
-O0 with -ffunction-sections -fkeep-inline-functions, links every
executable with --gc-sections, and reads `nm` of the src/ static
libraries and of each executable. A function the libraries define
counts as linked by an executable that still defines it after
--gc-sections dropped every unreferenced section. Two sets follow:

  dead       linked by no executable at all;
  test-only  linked only by tests/test_* binaries.

Exits 1 if the dead set is not empty or the test-only set differs from
tools/test_only_api.txt, where each kept test-only function has one
line, `<demangled signature> -- <reason>`. DESIGN.md ("What the build
links") gives the rules. Needs cmake, a C++ compiler, nm and c++filt.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-dead-api")
ALLOWLIST = os.path.join(HERE, "test_only_api.txt")

# -fkeep-inline-functions emits every header-inline member into each
# library object that includes it, so an accessor no target calls shows
# up in the libraries while --gc-sections drops it from executables.
CXX_FLAGS = "-O0 -ffunction-sections -fkeep-inline-functions"
LINK_FLAGS = "-Wl,--gc-sections"

# Executables under these build subdirectories ship; tests/ do not.
SHIPPED_DIRS = ("bench", "examples", "tools", "perfbench")


def mangled_candidate(kind, name):
    """A code symbol of namespace vg, anonymous namespaces included.

    The prefix excludes std:: instantiations (_ZNSt...), members of
    local classes and lambdas (_ZZ...), and vtables or typeinfo (_ZT...).
    """
    return (kind in "TtWw" and name.startswith(("_ZN2vg", "_ZNK2vg"))
            and "." not in name)


def _split_params(sig):
    """Split a demangled signature into (qualified name, parameter list)."""
    if sig.endswith(" const"):
        sig = sig[:-len(" const")]
    depth = 0
    for i in range(len(sig) - 1, -1, -1):
        c = sig[i]
        if c == ")":
            depth += 1
        elif c == "(":
            depth -= 1
            if depth == 0:
                return sig[:i], sig[i:]
    return sig, ""


def _components(qualified):
    """Split a qualified name at top-level `::`, ignoring template args."""
    parts, depth, start, i = [], 0, 0, 0
    while i < len(qualified):
        c = qualified[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif depth == 0 and qualified.startswith("::", i):
            parts.append(qualified[start:i])
            start = i + 2
            i += 1
        i += 1
    parts.append(qualified[start:])
    return parts


def special_member(sig):
    """True for a constructor, destructor or copy/move assignment."""
    qualified, _ = _split_params(sig)
    parts = _components(qualified)
    if len(parts) < 2:
        return False
    last, owner = parts[-1], parts[-2].split("<", 1)[0]
    return last == owner or last.startswith("~") or last == "operator="


def demangle(names):
    names = list(names)
    if not names:
        return {}
    out = subprocess.run(["c++filt"], input="\n".join(names) + "\n",
                         capture_output=True, text=True, check=True).stdout
    return dict(zip(names, out.splitlines()))


def functions(nm_lines):
    """Demangled signatures of the considered functions in `nm` output.

    Constructors, destructors and assignments that are weak (W) or
    local (t) are the compiler's: implicit or defaulted members, emitted
    wherever they are used. They are skipped. A user-declared
    out-of-line one is a strong global symbol (T) and is kept.
    """
    generated = {}
    for line in nm_lines:
        fields = line.split()
        if len(fields) != 3:
            continue
        _, kind, name = fields
        if mangled_candidate(kind, name):
            generated[name] = generated.get(name, True) and kind != "T"
    names = demangle(generated)
    return {names[m] for m, g in generated.items()
            if not (g and special_member(names[m]))}


def nm(path):
    return subprocess.run(["nm", "--defined-only", path], capture_output=True,
                          text=True, check=True).stdout.splitlines()


def is_elf_executable(path):
    if not os.path.isfile(path) or not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def executables(build_dir):
    """(shipped, tests): executable paths under the audit build."""
    shipped, tests = [], []
    for top in SHIPPED_DIRS + ("tests",):
        base = os.path.join(build_dir, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = [d for d in dirnames if d != "CMakeFiles"
                           and d != "vg_src"]
            for f in sorted(filenames):
                path = os.path.join(dirpath, f)
                if is_elf_executable(path):
                    (tests if top == "tests" else shipped).append(path)
    return shipped, tests


def build():
    steps = []
    for src, out in ((ROOT, BUILD),
                     (os.path.join(ROOT, "perfbench"),
                      os.path.join(BUILD, "perfbench"))):
        steps.append(["cmake", "-S", src, "-B", out,
                      "-DCMAKE_BUILD_TYPE=None",
                      f"-DCMAKE_CXX_FLAGS={CXX_FLAGS}",
                      f"-DCMAKE_EXE_LINKER_FLAGS={LINK_FLAGS}"])
        steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 2)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode != 0:
            print(f"dead_api: build failed: {' '.join(cmd)}", file=sys.stderr)
            sys.exit(2)


def read_allowlist(path):
    listed = {}
    with open(path) as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            sig, sep, reason = line.partition(" -- ")
            if not sep or not reason.strip():
                print(f"{path}:{n}: want `<signature> -- <reason>`",
                      file=sys.stderr)
                sys.exit(2)
            listed[sig.strip()] = reason.strip()
    return listed


def report(title, sigs):
    print(f"{title}: {len(sigs)}")
    for s in sorted(sigs):
        print(f"  {s}")


def main():
    build()
    libs = sorted(os.path.join(BUILD, "src", f)
                  for f in os.listdir(os.path.join(BUILD, "src"))
                  if f.startswith("libvg_") and f.endswith(".a"))
    defined = functions(line for lib in libs for line in nm(lib))
    shipped_exes, test_exes = executables(BUILD)
    shipped = set().union(*(functions(nm(e)) for e in shipped_exes))
    tested = set().union(*(functions(nm(e)) for e in test_exes))
    print(f"dead_api: {len(defined)} functions in {len(libs)} libraries, "
          f"{len(shipped_exes)} shipped and {len(test_exes)} test executables")

    dead = defined - shipped - tested
    test_only = (defined & tested) - shipped
    listed = read_allowlist(ALLOWLIST)
    unlisted = test_only - listed.keys()
    stale = listed.keys() - test_only

    report("linked by no executable", dead)
    report("linked only by tests, not in tools/test_only_api.txt", unlisted)
    report("in tools/test_only_api.txt, but not test-only", stale)
    print(f"test-only, listed with a reason: {len(test_only & listed.keys())}")
    return 1 if dead or unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
