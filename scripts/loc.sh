#!/bin/sh
# Non-test Rust lines: every src/**/*.rs up to (not including) its first
# `#[cfg(test)]` line. Informational, never a gate. Run from the repo root:
#   scripts/loc.sh          per-crate table and total
#   scripts/loc.sh FILE..   per-file table and total for the named files
byfile=$#
[ $# -eq 0 ] && set -- $(find src crates/*/src -name '*.rs' | sort)
awk -v byfile="$byfile" '
    FNR == 1 {
        counting = 1
        unit = FILENAME
        if (!byfile && !sub(/\/src\/.*/, "", unit)) unit = "(root)"
    }
    /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
    counting { lines[unit]++; total++ }
    END {
        for (u in lines) printf "%-32s %6d\n", u, lines[u] | "sort"
        close("sort")
        printf "%-32s %6d\n", "total", total
    }
' "$@"
