#!/usr/bin/env python3
"""Symbolizes a profile written by tools/prof/sampler.cc and prints shares.

    tools/prof/report.py PROFILE [--under FRAME]

Maps each sampled address to the function around it with `nm -C` on the
mapped file (`nm -D -C` for a stripped shared library; an address outside
every exported symbol reads "?? <file>"), then prints two tables of the
25 largest shares, as percentages of the samples kept:

    self       samples whose leaf frame is the function
    inclusive  samples with the function anywhere on the stack (once each)

--under FRAME keeps only the samples whose stack holds a function whose name
contains FRAME, e.g. --under 'Simulator::Step' for the simulator's event
work, leaving out setup, teardown and the benchmark's own reference loop.
Names drop their argument lists, so overloads share a row.
"""

import argparse
import bisect
import collections
import struct
import subprocess
import sys

TOP = 25  # rows per table


def short_name(name):
    """Drops the argument list (and any trailing qualifiers) of a name."""
    depth = 0
    for i, c in enumerate(name):
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif (c == "(" and depth == 0 and not name.startswith("(anonymous", i)
              and not name.startswith("operator()", i - 8)):
            return name[:i]
    return name


class Module:
    """One mapped file: its nm symbols and how its addresses were loaded."""

    def __init__(self, path):
        self.path = path
        self.base = None  # start of the mapping at file offset 0
        self.addrs = []
        self.names = []
        try:
            with open(path, "rb") as f:
                header = f.read(18)
            # ELF e_type 2 (EXEC) keeps link addresses; 3 (DYN: PIE, .so) is
            # relocated by the load base.
            self.relocated = len(header) == 18 and struct.unpack("<H", header[16:18])[0] == 3
        except OSError:
            self.relocated = True
        self.ends = []
        for flags in (["-C"], ["-D", "-C"]):
            try:
                out = subprocess.run(["nm", "--defined-only", "-S", *flags, path],
                                     capture_output=True, text=True).stdout
            except OSError:
                return
            syms = []
            for line in out.splitlines():
                # "addr size type name", or "addr type name" without a size.
                parts = line.split(" ", 3)
                if len(parts) > 2 and len(parts[1]) == 1:
                    parts = [parts[0], "0", parts[1], " ".join(parts[2:])]
                if len(parts) == 4 and parts[2] in "tTwWiu":
                    start, size = int(parts[0], 16), int(parts[1], 16)
                    syms.append((start, start + size if size else None, parts[3]))
            if syms:
                syms.sort(key=lambda sym: sym[0])
                self.addrs = [a for a, _, _ in syms]
                self.ends = [e for _, e, _ in syms]
                self.names = [n for _, _, n in syms]
                return

    def symbol(self, addr):
        """The function around `addr`, or None past every sized symbol."""
        vaddr = addr - self.base if self.relocated else addr
        i = bisect.bisect_right(self.addrs, vaddr) - 1
        if i < 0 or (self.ends[i] is not None and vaddr >= self.ends[i]):
            return None
        return short_name(self.names[i])


def load(path):
    maps = []  # (start, end, module)
    modules = {}
    samples = []
    meta = {}
    with open(path) as f:
        for line in f:
            if line.startswith("s "):
                samples.append([int(a, 16) for a in line.split()[1:]])
            elif line.startswith("map "):
                fields = line.split()
                start, end = (int(x, 16) for x in fields[1].split("-"))
                offset = int(fields[3], 16)
                file = fields[6] if len(fields) > 6 else ""
                module = modules.setdefault(file, Module(file))
                if offset == 0 and module.base is None:
                    module.base = start
                if "x" in fields[2]:
                    maps.append((start, end, module))
            else:
                key, _, value = line.partition(" ")
                meta[key] = value.strip()
    maps.sort(key=lambda m: m[0])
    return meta, maps, samples


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("profile")
    parser.add_argument("--under", metavar="FRAME")
    args = parser.parse_args()

    meta, maps, samples = load(args.profile)
    starts = [m[0] for m in maps]
    cache = {}

    def symbolize(addr):
        if addr not in cache:
            i = bisect.bisect_right(starts, addr) - 1
            name = None
            if i >= 0 and addr < maps[i][1]:
                module = maps[i][2]
                name = module.symbol(addr) or "?? " + module.path.rsplit("/", 1)[-1]
            cache[addr] = name or "??"
        return cache[addr]

    self_counts = collections.Counter()
    incl_counts = collections.Counter()
    kept = 0
    for stack in samples:
        names = [symbolize(a) for a in stack]
        if args.under and not any(args.under in n for n in names):
            continue
        kept += 1
        self_counts[names[0]] += 1
        incl_counts.update(set(names))

    print(f"{args.profile}: {len(samples)} samples ({meta.get('hz', '?')} Hz requested), "
          f"{meta.get('dropped', '0')} dropped; {kept} kept"
          + (f" (stack holds '{args.under}')" if args.under else ""))
    if kept == 0:
        return 1
    for title, counts in (("self", self_counts), ("inclusive", incl_counts)):
        print(f"\n{title:>9}  function")
        for name, n in counts.most_common(TOP):
            print(f"{100.0 * n / kept:8.1f}%  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
