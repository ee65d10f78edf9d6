#!/bin/sh
# Fuzz smoke run: every native fuzz target in the module, FUZZTIME each
# (default 10s), with two fuzzing workers. A target that finds a failing
# input stops the run; go test writes the input under the package's
# testdata/fuzz/ for a regression entry.
set -eu

cd "$(dirname "$0")/.."

GO="${GO:-go}"
fuzztime="${FUZZTIME:-10s}"

for pkg in $("$GO" list ./...); do
	dir="$("$GO" list -f '{{.Dir}}' "$pkg")"
	for target in $(cat "$dir"/*_test.go 2>/dev/null | sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p'); do
		echo "fuzz-smoke: $pkg $target ($fuzztime)"
		"$GO" test -run '^$' -fuzz "^$target\$" -fuzztime "$fuzztime" -parallel 2 "$pkg"
	done
done
