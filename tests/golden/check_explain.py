#!/usr/bin/env python3
"""Golden-file test for `nokq explain`.

Builds a store from tests/golden/explain_doc.xml in a temp directory,
runs `nokq explain` for four representative queries (tag-index probe,
value-index probe, a branchy scan + structural semi-join, and a
value-anchored parent whose `//` child runs top-down through a scout pass
and a ScopedScan, on the bp tier so the operators' bp steps show),
normalizes the volatile fields (page and timing counters vary with build
flags and machine speed) and compares the result against the checked-in
.golden files.  It also checks that an unknown --strategy (such as the
retired "path") is a usage error naming the valid strategies on both
`explain` and `query`, that the retired planner flags (--fixed-order,
--plan-cache, --no-synopsis) are usage errors, that the retired
`refresh` command is an unknown command (usage, exit 2), and that
`insert` and `delete` reject malformed Dewey IDs (exit 1, "bad Dewey
ID") without changing the store's answers.

Usage:
  check_explain.py --nokq build/tools/nokq [--update]
"""

import argparse
import difflib
import re
import subprocess
import sys
import tempfile
from pathlib import Path

# (golden file stem, xpath, extra explain flags).
CASES = [
    ("explain_tag_index", "//special", []),
    ("explain_value_index", '//item[name="needle"]', []),
    ("explain_branchy", "//item[.//special]", []),
    ("explain_top_down", '//item[name="needle"]//price', ["--nav-mode", "bp"]),
]


def normalize(text: str) -> str:
    """Masks timings and page counts; the plan and cardinalities stay."""
    text = re.sub(r"pages=\d+", "pages=N", text)
    text = re.sub(r"time=[0-9.]+ms", "time=T", text)
    return text


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--nokq", required=True, help="path to the nokq binary")
    parser.add_argument(
        "--golden-dir", default=str(Path(__file__).resolve().parent)
    )
    parser.add_argument(
        "--update", action="store_true", help="rewrite the golden files"
    )
    args = parser.parse_args()

    golden_dir = Path(args.golden_dir)
    doc = golden_dir / "explain_doc.xml"

    failures = 0
    with tempfile.TemporaryDirectory(prefix="nokq_explain_") as tmp:
        store = str(Path(tmp) / "store")
        build = subprocess.run(
            [args.nokq, "build", str(doc), store],
            capture_output=True,
            text=True,
        )
        if build.returncode != 0:
            print(f"nokq build failed:\n{build.stderr}", file=sys.stderr)
            return 1

        for stem, xpath, flags in CASES:
            run = subprocess.run(
                [args.nokq, "explain", store, xpath] + flags,
                capture_output=True,
                text=True,
            )
            if run.returncode != 0:
                print(
                    f"{stem}: nokq explain failed:\n{run.stderr}",
                    file=sys.stderr,
                )
                failures += 1
                continue
            got = normalize(run.stdout)
            golden_path = golden_dir / f"{stem}.golden"
            if args.update:
                golden_path.write_text(got)
                print(f"updated {golden_path}")
                continue
            if not golden_path.exists():
                print(f"{stem}: missing golden file {golden_path}",
                      file=sys.stderr)
                failures += 1
                continue
            want = golden_path.read_text()
            if got != want:
                diff = "".join(
                    difflib.unified_diff(
                        want.splitlines(keepends=True),
                        got.splitlines(keepends=True),
                        fromfile=str(golden_path),
                        tofile=f"nokq explain '{xpath}'",
                    )
                )
                print(f"{stem}: output differs:\n{diff}", file=sys.stderr)
                failures += 1
            else:
                print(f"{stem}: ok")

        for command in ("explain", "query"):
            run = subprocess.run(
                [args.nokq, command, store, "//item", "--strategy", "path"],
                capture_output=True,
                text=True,
            )
            if run.returncode != 2 or "auto|scan|tag|value" not in run.stderr:
                print(
                    f"{command} --strategy path: want exit 2 listing "
                    f"auto|scan|tag|value, got exit {run.returncode}:\n"
                    f"{run.stdout}{run.stderr}",
                    file=sys.stderr,
                )
                failures += 1
            else:
                print(f"{command} --strategy path: usage error, ok")

        # The retired planner switches: one plan path, no knobs.
        for command, flag in (
            ("explain", "--fixed-order"),
            ("explain", "--plan-cache"),
            ("explain", "--no-synopsis"),
            ("query", "--no-synopsis"),
        ):
            run = subprocess.run(
                [args.nokq, command, store, "//item", flag],
                capture_output=True,
                text=True,
            )
            if run.returncode != 2 or "usage:" not in run.stderr:
                print(
                    f"{command} {flag}: want exit 2 with the usage text, "
                    f"got exit {run.returncode}:\n{run.stdout}{run.stderr}",
                    file=sys.stderr,
                )
                failures += 1
            else:
                print(f"{command} {flag}: usage error, ok")

        # The retired `refresh` command (it rebuilt cached index
        # positions, which no store keeps any more) is an unknown command.
        run = subprocess.run(
            [args.nokq, "refresh", store], capture_output=True, text=True
        )
        if run.returncode != 2 or "usage:" not in run.stderr:
            print(
                "refresh: want exit 2 with the usage text, got exit "
                f"{run.returncode}:\n{run.stdout}{run.stderr}",
                file=sys.stderr,
            )
            failures += 1
        else:
            print("refresh: unknown command, ok")

        # Malformed Dewey IDs (trailing garbage, a sign, an empty
        # component, a component past 32 bits) fail with exit 1 before
        # the store is touched.
        def answers() -> str:
            run = subprocess.run(
                [args.nokq, "query", store, "//*"],
                capture_output=True,
                text=True,
            )
            return f"exit {run.returncode}\n{run.stdout}"

        fragment = Path(tmp) / "frag.xml"
        fragment.write_text("<item><name>probe</name></item>")
        before = answers()
        for dewey in ("0.1x", "0.-1", "0..1", "0.99999999999"):
            for command in (
                ["insert", store, dewey, "0", str(fragment)],
                ["delete", store, dewey],
            ):
                run = subprocess.run(
                    [args.nokq] + command, capture_output=True, text=True
                )
                if run.returncode != 1 or "bad Dewey ID" not in run.stderr:
                    print(
                        f"{command[0]} {dewey}: want exit 1 naming a bad "
                        f"Dewey ID, got exit {run.returncode}:\n"
                        f"{run.stdout}{run.stderr}",
                        file=sys.stderr,
                    )
                    failures += 1
                else:
                    print(f"{command[0]} {dewey}: bad Dewey ID, ok")
        if answers() != before:
            print("malformed Dewey IDs changed the store's answers",
                  file=sys.stderr)
            failures += 1

    if failures:
        print(
            f"{failures} golden mismatch(es); rerun with --update after "
            "verifying the new output is intended",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
