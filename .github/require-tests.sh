#!/bin/sh
# Usage: sh .github/require-tests.sh PATTERN PKG...
#
# Fails unless each alternative of the -run PATTERN names a test, benchmark,
# example or fuzz target in one of the PKGs. `go test -run` passes with
# "[no tests to run]" when its pattern matches nothing, so a CI step that
# names a renamed or deleted test would otherwise go on passing while testing
# nothing. PATTERN is an optional ^, one name or a parenthesized list of
# alternatives, and an optional $; a /subtest suffix is dropped, because
# `go test -list` sees only top-level names.
set -euf # -f: the pattern is a regexp, not a glob
pat=${1%%/*}
shift
start= end=
case $pat in ^*) start=^ pat=${pat#^} ;; esac
case $pat in *\$) end=\$ pat=${pat%\$} ;; esac
case $pat in \(*\)) pat=${pat#\(} pat=${pat%\)} ;; esac
status=0
IFS='|'
for name in $pat; do
	if ! go test -list "$start$name$end" "$@" | grep -Eq '^(Test|Benchmark|Example|Fuzz)'; then
		echo "require-tests: no test matches $start$name$end in $*" >&2
		status=1
	fi
done
exit $status
