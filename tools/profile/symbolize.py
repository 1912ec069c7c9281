#!/usr/bin/env python3
"""Symbolise a samp.c profile: self, inclusive and innermost-repo-line tables.

    symbolize.py samp.<pid>.out [--top N] [--repo /path/to/repo]
    symbolize.py AFTER.samp --base BEFORE.samp [--reps A B] [--base-repo /path/to/parent]

Functions come from `nm` (always available); lines from `addr2line`, which
needs the target built with CARGO_PROFILE_RELEASE_DEBUG=line-tables-only.
A return address is looked up one byte back, inside the call it returns to.

With --base, the self and innermost-line tables of both profiles are printed
side by side: each profile's share of its own samples, samples per
repetition (--reps: how many repetitions BEFORE and AFTER each sampled), and
their ratio — what a change did to a row's cost, not to its share of a wall
that moved.
"""
import argparse, bisect, collections, os, re, subprocess, sys


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
        # Two builds name one function alike only without its symbol hash.
        return re.sub(r"::h[0-9a-f]{16}$", "", self.names[i]) if i >= 0 else f"{os.path.basename(self.path)}+{vaddr:#x}"


def tables(profile, repo):
    """(samples, self, inclusive, innermost repo line) of one profile."""
    maps, samples = load(profile)
    if not samples:
        sys.exit("no samples in " + profile)
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
            found = [l for l in lines.get((image.path, vaddr), []) if l.startswith(repo)] if image else []
            if found:
                hit = os.path.relpath(found[0], repo)
                break
        line_t[hit] += 1
    return len(samples), self_t, incl_t, line_t


def side_by_side(title, before, after, total_b, total_a, reps_b, reps_a, top):
    """The rows either profile ranks in its top `top`, by AFTER's samples."""
    names = {n for n, _ in before.most_common(top)} | {n for n, _ in after.most_common(top)}
    print(f"\n== {title} (before {total_b} samples / {reps_b} reps, after {total_a} / {reps_a}) ==")
    print(f"{'before':>7} {'after':>7}  {'bef/rep':>8} {'aft/rep':>8} {'ratio':>6}")
    for name in sorted(names, key=lambda n: (-after[n], -before[n], n)):
        b, a = before[name] / reps_b, after[name] / reps_a
        ratio = f"{a / b:6.2f}" if b else "     —"
        print(f"{100 * before[name] / total_b:6.2f}% {100 * after[name] / total_a:6.2f}%  "
              f"{b:8.1f} {a:8.1f} {ratio}  {name[:100]}")
    b, a = total_b / reps_b, total_a / reps_a
    print(f"{100.0:6.2f}% {100.0:6.2f}%  {b:8.1f} {a:8.1f} {a / b:6.2f}  [all samples]")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("profile")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--repo", default=os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..")))
    ap.add_argument("--base", help="a BEFORE profile to print side by side with this one")
    ap.add_argument("--base-repo", help="source prefix of the BEFORE build (default: --repo)")
    ap.add_argument("--reps", type=float, nargs=2, default=[1, 1], metavar=("A", "B"),
                    help="repetitions sampled in BEFORE and in this profile")
    args = ap.parse_args()
    total, self_t, incl_t, line_t = tables(args.profile, args.repo)
    if args.base:
        total_b, self_b, _, line_b = tables(args.base, args.base_repo or args.repo)
        reps_b, reps_a = args.reps
        for title, before, after in (("self", self_b, self_t), ("innermost repo line", line_b, line_t)):
            side_by_side(title, before, after, total_b, total, reps_b, reps_a, args.top)
        return
    for title, table in (("self", self_t), ("inclusive", incl_t), ("innermost repo line", line_t)):
        print(f"\n== {title} ({total} samples) ==")
        for name, n in table.most_common(args.top):
            print(f"{100 * n / total:6.2f}%  {n:7d}  {name[:110]}")


if __name__ == "__main__":
    main()
