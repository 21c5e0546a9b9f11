#!/usr/bin/env bash
# Production line count per crate, at REV and in the working tree (the
# same as HEAD once the change is committed).
#
# A production line is a line of a non-test `.rs` file under a
# package's `src/` (binaries under `src/bin` included) that lies above
# the file's `#[cfg(test)] mod ...` block. Integration tests, examples
# and benches outside `src/` do not count. The bench tooling (`bench`,
# `harness`, `perfbench`) is listed apart from the production crates.
# Files whose count changed are listed after the tables.
#
# Usage: scripts/prod_lines.sh [REV]     (REV defaults to HEAD)

set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C

rev=$(git rev-parse --verify --quiet --short "${1:-HEAD}^{commit}") || {
    echo "prod_lines: unknown revision ${1:-HEAD}" >&2
    exit 2
}

# Lines above the test module of the file on stdin.
count() {
    awk 'prev && /^(pub(\(crate\))? )?mod [A-Za-z_0-9]+/ { print NR - 2; found = 1; exit }
         { prev = ($0 ~ /^#\[cfg\(test\)\][[:space:]]*$/) }
         END { if (!found) print NR }'
}

# The package a production source path belongs to, or nothing.
package_of() {
    case $1 in
        crates/*/src/*.rs) local p=${1#crates/}; echo "${p%%/*}" ;;
        perfbench/src/*.rs) echo perfbench ;;
        src/*.rs) echo root ;;
    esac
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# "<package> <path> <lines>" for every production file at REV.
git ls-tree -r --name-only "$rev" | while read -r path; do
    pkg=$(package_of "$path")
    if [ -n "$pkg" ]; then
        echo "$pkg $path $(git show "$rev:$path" | count)"
    fi
done | sort -k2 >"$tmp/old"

# ...and in the working tree, untracked files included.
git ls-files -co --exclude-standard | while read -r path; do
    pkg=$(package_of "$path")
    if [ -n "$pkg" ] && [ -f "$path" ]; then
        echo "$pkg $path $(count <"$path")"
    fi
done | sort -k2 >"$tmp/new"

# Joins both sides on path; a file missing on one side counts 0 there.
join -1 2 -2 2 -a 1 -a 2 -e 0 -o '0,1.1,2.1,1.3,2.3' "$tmp/old" "$tmp/new" |
    awk -v rev="$rev" '
    {
        pkg = ($2 != "0") ? $2 : $3
        old[pkg] += $4; new[pkg] += $5
        if ($4 != $5) changed[++n] = sprintf("  %-58s %7d %7d %+7d", $1, $4, $5, $5 - $4)
    }
    function table(title, apart,    p, o, w, k, names, m) {
        printf "%s\n  %-24s %9s %9s %8s\n", title, "package", rev, "worktree", "delta"
        m = 0
        for (p in old) names[++m] = p
        for (p in new) if (!(p in old)) names[++m] = p
        # Sort names (insertion sort; a few dozen packages at most).
        for (k = 2; k <= m; k++) {
            p = names[k]; w = k - 1
            while (w > 0 && names[w] > p) { names[w + 1] = names[w]; w-- }
            names[w + 1] = p
        }
        o = 0; w = 0
        for (k = 1; k <= m; k++) {
            p = names[k]
            if ((p in bench) != apart) continue
            printf "  %-24s %9d %9d %+8d\n", p, old[p], new[p], new[p] - old[p]
            o += old[p]; w += new[p]
        }
        printf "  %-24s %9d %9d %+8d\n\n", "total", o, w, w - o
    }
    END {
        bench["bench"]; bench["harness"]; bench["perfbench"]
        table("production crates", 0)
        table("bench tooling (apart)", 1)
        print "changed files"
        printf "  %-58s %7s %7s %7s\n", "path", "before", "after", "delta"
        for (k = 1; k <= n; k++) print changed[k]
    }'
