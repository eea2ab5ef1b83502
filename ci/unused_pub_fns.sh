#!/usr/bin/env bash
# Fails if a `pub fn` under crates/*/src (the frozen e2e benchmark excepted)
# is named nowhere in crates/, tests/ or examples/ except where it is
# defined. A public function nothing calls is surface nobody exercises;
# delete it, or list its name in ci/pub_api_allowlist.txt (one per line,
# `#` starts a comment) with the reason it must stay.
#
# Usage (from the repository root): ci/unused_pub_fns.sh
set -euo pipefail

allowlist=ci/pub_api_allowlist.txt
allowed=$(sed 's/#.*//' "$allowlist" | tr -s ' \t' '\n' | sed '/^$/d' | sort -u)

names=$(grep -rhoE --include='*.rs' 'pub fn [A-Za-z_][A-Za-z0-9_]*' crates/*/src \
    --exclude-dir=e2e | sed 's/^pub fn //' | sort -u)

unused=0
for name in $names; do
    if grep -qxF "$name" <<<"$allowed"; then
        continue
    fi
    uses=$(grep -rwo --include='*.rs' -- "$name" crates tests examples | wc -l)
    defs=$(grep -rEo --include='*.rs' -- "pub fn $name\b" crates tests examples | wc -l)
    if [ "$uses" -le "$defs" ]; then
        grep -rnE --include='*.rs' -- "pub fn $name\b" crates
        unused=$((unused + 1))
    fi
done

if [ "$unused" -gt 0 ]; then
    echo "$unused public function(s) above have no caller in crates/, tests/ or examples/" >&2
    exit 1
fi
