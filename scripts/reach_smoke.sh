#!/usr/bin/env bash
# Reachability smoke: every lib/*/*.ml module must be linked into at
# least one shipped executable (bin/, bench/, perfbench/main and
# examples/). A module no binary links is code only its tests exercise.
#
# ocamlopt links a library's compilation unit only when something
# references it, and every linked unit defines a
# caml<Lib>__<Module>.code_begin symbol, so `nm` over the executables
# lists exactly the linked modules. The scan fails, naming each unlinked
# module as <Lib>.<Module>; it also fails when nm is missing or finds
# no such symbol, so it cannot pass vacuously.
#
# Run from the repo root after a build (`make reach-smoke` does both).
set -euo pipefail

BUILD=./_build/default

fail() { echo "reach-smoke: FAIL: $*" >&2; exit 1; }

command -v nm >/dev/null || fail "nm is not on PATH"

exes=()
for e in "$BUILD"/bin/*.exe "$BUILD"/bench/*.exe "$BUILD"/perfbench/main.exe "$BUILD"/examples/*.exe; do
  [ -f "$e" ] && exes+=("$e")
done
[ ${#exes[@]} -gt 0 ] || fail "no built executable under $BUILD (run dune build first)"

linked=$(for e in "${exes[@]}"; do nm "$e" || fail "nm cannot read $e"; done \
  | sed -n 's/^[0-9a-fA-F]* [Tt] caml\([A-Za-z0-9_]*\)\.code_begin$/\1/p' | sort -u)
[ -n "$linked" ] || fail "nm found no caml*.code_begin symbol in ${#exes[@]} executables"

modules=0
unlinked=()
for dir in lib/*/; do
  lib=$(sed -n 's/^ *(name \([a-z0-9_]*\)).*/\1/p' "$dir/dune" | head -n 1)
  [ -n "$lib" ] || fail "no library name in $dir/dune"
  for f in "$dir"*.ml; do
    mod=$(basename "$f" .ml)
    # A wrapped library's unit is <Lib>__<Module>, its main module <Lib>.
    if [ "$mod" = "$lib" ]; then sym=${lib^}; else sym="${lib^}__${mod^}"; fi
    modules=$((modules + 1))
    grep -qxF "$sym" <<<"$linked" || unlinked+=("${lib^}.${mod^}")
  done
done

if [ ${#unlinked[@]} -gt 0 ]; then
  printf 'reach-smoke: no executable links %s\n' "${unlinked[@]}" >&2
  fail "${#unlinked[@]} of $modules lib modules are linked by no executable"
fi
echo "reach-smoke: OK: all $modules lib modules are linked by ${#exes[@]} executables"
