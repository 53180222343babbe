#!/usr/bin/env bash
# Non-test line counts per crate: for every `.rs` file under a crate's
# `src/`, the lines before its first `#[cfg(test)]` (the whole file when
# it has none), summed per crate, then the workspace total. Integration
# tests (`tests/`), examples and benches are not counted. This is the
# count simplicity changes quote, before and after.
#
#   scripts/loc.sh         the working tree's counts
#   scripts/loc.sh REV     REV's counts (its tree extracted with
#                          `git archive` into a temporary directory),
#                          the working tree's, and the difference:
#                          before / after / delta per crate
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints `crate lines` for every crate of the tree rooted at $1.
count() {
    local crate name lines file n
    for crate in "$1"/crates/*/; do
        name="$(basename "$crate")"
        [ -d "$crate/src" ] || continue
        lines=0
        while IFS= read -r -d '' file; do
            n="$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")"
            lines=$((lines + n))
        done < <(find "$crate/src" -name '*.rs' -print0)
        printf '%s %d\n' "$name" "$lines"
    done
}

if [ $# -eq 0 ]; then
    total=0
    while read -r name lines; do
        printf '%-10s %6d\n' "$name" "$lines"
        total=$((total + lines))
    done < <(count .)
    printf '%-10s %6d\n' total "$total"
    exit 0
fi

rev="$1"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
git archive "$rev" crates | tar -x -C "$tmp"

declare -A before after
names=()
while read -r name lines; do
    before[$name]=$lines
    names+=("$name")
done < <(count "$tmp")
while read -r name lines; do
    after[$name]=$lines
    [ -n "${before[$name]+set}" ] || names+=("$name")
done < <(count .)

printf '%-10s %6s %6s %6s\n' crate before after delta
total_before=0
total_after=0
for name in "${names[@]}"; do
    b=${before[$name]:-0}
    a=${after[$name]:-0}
    printf '%-10s %6d %6d %+6d\n' "$name" "$b" "$a" $((a - b))
    total_before=$((total_before + b))
    total_after=$((total_after + a))
done
printf '%-10s %6d %6d %+6d\n' total "$total_before" "$total_after" \
    $((total_after - total_before))
