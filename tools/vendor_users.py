#!/usr/bin/env python3
"""Fail when a vendored crate has no user.

    tools/vendor_users.py

The crates under `vendor/` are offline stand-ins for external crates, kept
no larger than what the workspace uses (vendor/README.md). A stand-in whose
last user is gone must go with it. This reads
`cargo metadata --offline --format-version 1 --no-deps` and follows path
dependencies (normal, dev and build) from every first-party workspace
member; a `vendor/*` package that none of them reaches is reported, and the
script exits 1.
"""

import json
import pathlib
import subprocess
import sys


def main():
    meta = json.loads(subprocess.run(
        ["cargo", "metadata", "--offline", "--format-version", "1", "--no-deps"],
        check=True, capture_output=True, text=True).stdout)
    vendor = pathlib.Path(meta["workspace_root"]) / "vendor"
    members = set(meta["workspace_members"])
    packages = {pathlib.Path(p["manifest_path"]).parent: p
                for p in meta["packages"] if p["id"] in members}

    def vendored(path):
        return path.parent == vendor

    reached = set()
    todo = [path for path in packages if not vendored(path)]
    while todo:
        for dep in packages[todo.pop()]["dependencies"]:
            path = dep.get("path") and pathlib.Path(dep["path"])
            if path in packages and path not in reached:
                reached.add(path)
                todo.append(path)

    unused = sorted(path.name for path in packages
                    if vendored(path) and path not in reached)
    for name in unused:
        print(f"vendor/{name}: no workspace crate depends on it; delete it",
              file=sys.stderr)
    if unused:
        sys.exit(1)
    print(f"{sum(map(vendored, packages))} vendored crates, each with a user")


if __name__ == "__main__":
    main()
