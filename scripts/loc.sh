#!/usr/bin/env bash
# Non-test lines of Rust per crate, the count the ROADMAP's size figures
# use. For every `.rs` file under crates/<crate>/src, count the lines
# before the file's first column-0 `#[cfg(test)]` (the test module that
# closes the file; an indented one, such as a nested test module or a
# `#[cfg(test)]` helper method, does not end the count), leaving out
# blank lines and lines whose first non-blank characters are `//`.
#
# Usage, from anywhere in the repository:
#   scripts/loc.sh [CRATE...]      # default: every crate under crates/
set -euo pipefail
cd "$(dirname "$0")/../crates"

if [ "$#" -eq 0 ]; then
    set -- */
fi
total=0
for crate in "$@"; do
    crate="${crate%/}"
    lines=$(find "$crate/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { live = 1 }
        /^#\[cfg\(test\)\]/ { live = 0 }
        live && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
        END { print n + 0 }')
    printf '%-10s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-10s %6d\n' total "$total"
