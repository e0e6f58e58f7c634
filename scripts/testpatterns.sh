#!/usr/bin/env bash
# Fails when a -run, -bench or -fuzz pattern that CI or the Makefile
# hands to go test matches nothing. go test exits 0 on such a pattern,
# so a renamed test would silently turn its step into a no-op. From the
# repository root:
#
#   bash scripts/testpatterns.sh
#
# Every go test command in .github/workflows/ci.yml and the Makefile,
# comments aside, is checked with `go test -list PATTERN PACKAGES` over the command's own
# packages, and the check fails when the list is empty. The pattern ^$
# (run nothing) is skipped. A pattern with a / is checked by its
# top-level part, because -list names top-level functions only; an
# alternation a|b is checked one alternative at a time.
set -euo pipefail

ci=.github/workflows/ci.yml

# commands prints one go test command per line: the workflow's, then the
# Makefile's with $(GO) and $$ unescaped.
commands() {
	grep -v '^[[:space:]]*#' "$ci" | grep -o 'go test .*'
	grep -v '^[[:space:]]*#' Makefile | grep -o '$(GO) test .*' | sed -e 's/^\$(GO)/go/' -e 's/\$\$/$/g'
}

status=0 checked=0
while IFS= read -r cmd; do
	# Split the command into words, honouring quotes; its go test
	# arguments end at a pipe or at the next command.
	words=()
	while IFS= read -r w; do
		words+=("$w")
	done < <(xargs printf '%s\n' <<<"$cmd")
	patterns=() pkgs=()
	for ((i = 2; i < ${#words[@]}; i++)); do
		w=${words[i]}
		case $w in
		'|' | '&&' | ';') break ;;
		-run | -bench | -fuzz)
			i=$((i + 1))
			patterns+=("${words[i]}")
			;;
		-run=* | -bench=* | -fuzz=*) patterns+=("${w#*=}") ;;
		-timeout | -fuzztime | -benchtime | -count | -cpu | -parallel | -tags | -o) i=$((i + 1)) ;;
		-*) ;;
		*) pkgs+=("$w") ;;
		esac
	done
	((${#pkgs[@]})) || pkgs=(.)
	for p in ${patterns[@]+"${patterns[@]}"}; do
		[ "$p" = '^$' ] && continue
		p=${p%%/*}
		alts=("$p")
		if [[ $p != *'('* ]]; then
			IFS='|' read -ra alts <<<"$p"
		fi
		for a in "${alts[@]}"; do
			checked=$((checked + 1))
			if ! list=$(go test -list "$a" "${pkgs[@]}"); then
				echo "go test -list failed (from: $cmd)" >&2
				status=1
			elif ! grep -qE '^(Test|Benchmark|Fuzz|Example)' <<<"$list"; then
				echo "no test, benchmark or fuzz target in ${pkgs[*]} matches '$a' (from: $cmd)" >&2
				status=1
			fi
		done
	done
done < <(commands)
echo "$checked patterns checked"
exit $status
