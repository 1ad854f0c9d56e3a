#!/usr/bin/env sh
# Prints the non-test line count of each crate in the workspace, then
# their total. A non-test line is any line of a `.rs` file under the
# crate's `src/` that comes before the file's first `#[cfg(test)]`,
# comments and blank lines included.
#
# Usage: scripts/src_lines.sh   (from any directory)
set -eu
cd "$(dirname "$0")/.."

total=0
for manifest in Cargo.toml crates/*/Cargo.toml crates/shims/*/Cargo.toml perfbench/Cargo.toml; do
    dir=$(dirname "$manifest")
    [ -d "$dir/src" ] || continue
    lines=$(find "$dir/src" -type f -name '*.rs' | sort | xargs awk '
        FNR == 1 { counting = 1 }
        /#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print n + 0 }')
    printf '%-26s %6d\n' "$dir/src" "$lines"
    total=$((total + lines))
done
printf '%-26s %6d\n' total "$total"
