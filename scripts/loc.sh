#!/usr/bin/env bash
# Counts the module's code lines: non-test, non-blank, non-comment Go
# outside bench/ and testdata/ (a line whose first non-space characters are
# "//" is a comment), as a total and by package directory.
#
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' -print0 |
    xargs -0 awk '
        !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// {
            dir = FILENAME; sub(/\/[^\/]*$/, "", dir); sub(/^\.\/?/, "", dir)
            if (dir == "") dir = "."
            n[dir]++; total++
        }
        END {
            for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"
            close("sort -k2")
            printf "%6d total\n", total
        }'
