#!/usr/bin/env bash
# Non-test line counts per crate: for every `.rs` file under a crate's
# `src/`, the lines before its first `#[cfg(test)]` (the whole file when
# it has none), summed per crate, then the workspace total. Integration
# tests (`tests/`), examples and benches are not counted. This is the
# count simplicity changes quote, before and after.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for crate in crates/*/; do
    name="$(basename "$crate")"
    [ -d "$crate/src" ] || continue
    lines=0
    while IFS= read -r -d '' file; do
        n="$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")"
        lines=$((lines + n))
    done < <(find "$crate/src" -name '*.rs' -print0)
    printf '%-10s %6d\n' "$name" "$lines"
    total=$((total + lines))
done
printf '%-10s %6d\n' total "$total"
