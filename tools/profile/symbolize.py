#!/usr/bin/env python3
"""Symbolise a samp.c profile: self, inclusive and innermost-repo-line tables.

    symbolize.py samp.<pid>.out [--top N] [--repo /path/to/repo]

Functions come from `nm` (always available); lines from `addr2line`, which
needs the target built with CARGO_PROFILE_RELEASE_DEBUG=line-tables-only.
A return address is looked up one byte back, inside the call it returns to.
"""
import argparse, bisect, collections, os, subprocess, sys


def load(path):
    maps, samples = [], []
    for line in open(path):
        kind, rest = line[0], line[2:].split()
        if kind == "M" and len(rest) >= 6:
            lo, hi = (int(x, 16) for x in rest[0].split("-"))
            maps.append((lo, hi, rest[5]))
        elif kind == "S":
            samples.append([int(a, 16) for a in rest])
    return maps, samples


class Image:
    """One mapped ELF file and its sorted function symbols."""

    def __init__(self, path):
        self.path = path
        out = subprocess.run(["nm", "-C", "--defined-only", "-n", path], capture_output=True, text=True).stdout
        syms = [l.split(None, 2) for l in out.splitlines()]
        syms = [(int(a, 16), n) for a, t, n in (s for s in syms if len(s) == 3) if t in "tTwW"]
        self.addrs, self.names = [a for a, _ in syms], [n for _, n in syms]

    def function(self, vaddr):
        i = bisect.bisect_right(self.addrs, vaddr) - 1
        return self.names[i] if i >= 0 else f"{os.path.basename(self.path)}+{vaddr:#x}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("profile")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--repo", default=os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..")))
    args = ap.parse_args()
    maps, samples = load(args.profile)
    if not samples:
        sys.exit("no samples in " + args.profile)
    # The file's lowest mapping is where its vaddr 0 was loaded (PIE).
    bias = {}
    for lo, _, path in maps:
        if path.startswith("/"):
            bias[path] = min(bias.get(path, lo), lo)
    images, located = {}, {}

    def locate(addr):
        if addr not in located:
            located[addr] = (None, addr)
            for lo, hi, path in maps:
                if lo <= addr < hi and path in bias:
                    if path not in images:
                        images[path] = Image(path)
                    located[addr] = (images[path], addr - bias[path])
                    break
        return located[addr]

    def function(addr):
        image, vaddr = locate(addr)
        return image.function(vaddr) if image else f"[unmapped {addr:#x}]"

    self_t, incl_t = collections.Counter(), collections.Counter()
    for stack in samples:
        names = [function(a - (i > 0)) for i, a in enumerate(stack)]
        self_t[names[0]] += 1
        incl_t.update(set(names))

    # Innermost repo line: per sample, the first frame (inlined ones included)
    # whose source file lies in the repo — where the program spent the time,
    # whatever libc or libstd function it was in at the instant.
    wanted = collections.defaultdict(set)
    for stack in samples:
        for i, a in enumerate(stack):
            image, vaddr = locate(a - (i > 0))
            if image:
                wanted[image.path].add(vaddr)
    lines = {}
    for path, vaddrs in wanted.items():
        vaddrs = sorted(vaddrs)
        out = subprocess.run(["addr2line", "-e", path, "-a", "-i"] + [hex(v) for v in vaddrs],
                             capture_output=True, text=True).stdout
        cur = None
        for l in out.splitlines():
            if l.startswith("0x") and ":" not in l:
                cur = (path, int(l, 16))
                lines[cur] = []
            elif cur:
                lines[cur].append(l.split(" (discriminator")[0])
    line_t = collections.Counter()
    for stack in samples:
        hit = "[outside the repo]"
        for i, a in enumerate(stack):
            image, vaddr = locate(a - (i > 0))
            found = [l for l in lines.get((image.path, vaddr), []) if l.startswith(args.repo)] if image else []
            if found:
                hit = os.path.relpath(found[0], args.repo)
                break
        line_t[hit] += 1

    total = len(samples)
    for title, table in (("self", self_t), ("inclusive", incl_t), ("innermost repo line", line_t)):
        print(f"\n== {title} ({total} samples) ==")
        for name, n in table.most_common(args.top):
            print(f"{100 * n / total:6.2f}%  {n:7d}  {name[:110]}")


if __name__ == "__main__":
    main()
