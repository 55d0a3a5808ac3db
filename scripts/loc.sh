#!/usr/bin/env bash
# Non-test Go line count: every committed .go file except *_test.go and the
# separate benchmark/ module, concatenated through wc -l. This is the count
# ROADMAP.md tracks.
#
#   scripts/loc.sh            # the count at HEAD
#   scripts/loc.sh main       # the count at HEAD and at main, and the delta
#
# Reads committed trees only (git ls-tree / git show), so uncommitted edits
# do not count. Reports; gates nothing.
set -euo pipefail

cd "$(dirname "$0")/.."

count() {
	git ls-tree -r --name-only "$1" | grep '\.go$' | grep -v '_test\.go$' | grep -v '^benchmark/' |
		while read -r f; do git show "$1:$f"; done | wc -l
}

head=$(count HEAD)
if [ $# -eq 0 ]; then
	echo "non-test Go at HEAD: $head"
	exit 0
fi
base=$(count "$1")
echo "non-test Go at $1: $base"
echo "non-test Go at HEAD: $head"
echo "delta: $((head - base))"
