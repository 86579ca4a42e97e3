#!/usr/bin/env bash
# Documentation consistency check, run as a ctest (see tests/CMakeLists.txt).
#
# 1. Required docs exist: the manifest below names the documents other
#    docs, tests and CI point at — deleting or renaming one must fail
#    here, not at a reader's 404.
# 2. Every relative markdown link target in README.md, DESIGN.md,
#    EXPERIMENTS.md and docs/*.md must exist on disk.
# 3. Every source-tree path a docs/*.md file mentions in backticks
#    (src/..., tests/..., bench/..., examples/..., scripts/...) must
#    exist, so the docs cannot drift from the code they describe.
# 4. Every backticked `server.*` / `planner.*` / `estimator.*` /
#    `stream.*` / `log.*` / `accuracy.*` metric, span or log-event name
#    the docs mention must occur in src/ — the observability vocabulary
#    docs advertise is the one the code emits.
# 5. No build output is tracked: `git ls-files` lists no CMakeCache.txt
#    and no ELF file (skipped outside a git checkout).
#
# Exits non-zero listing every stale reference.

set -u
cd "$(dirname "$0")/.."

fail=0

err() {
  echo "check_docs: $1" >&2
  fail=1
}

# --- 0. required-docs manifest --------------------------------------------
required_docs=(
  README.md
  DESIGN.md
  EXPERIMENTS.md
  ROADMAP.md
  docs/ARCHITECTURE.md
  docs/SERVER.md
  docs/PLANNER.md
  docs/DURABILITY.md
)
for doc in "${required_docs[@]}"; do
  [ -e "$doc" ] || err "required document '$doc' is missing"
done

doc_files=(README.md DESIGN.md EXPERIMENTS.md)
for f in docs/*.md; do
  [ -e "$f" ] && doc_files+=("$f")
done

# --- 1. markdown link targets ---------------------------------------------
for doc in "${doc_files[@]}"; do
  dir=$(dirname "$doc")
  # [text](target) — keep relative targets only, strip #fragments.
  while IFS= read -r target; do
    target=${target%%#*}
    [ -z "$target" ] && continue
    case "$target" in
      http://*|https://*|mailto:*) continue ;;
    esac
    if [ ! -e "$dir/$target" ]; then
      err "$doc links to missing target '$target'"
    fi
  done < <(grep -o '\[[^][]*\]([^()]*)' "$doc" | sed 's/.*(\(.*\))/\1/')
done

# --- 2. source paths referenced by the docs -------------------------------
for doc in "${doc_files[@]}"; do
  while IFS= read -r path; do
    case "$path" in
      *\**) continue ;;    # globs like src/core/*.h describe sets, not files
      *\<*) continue ;;    # placeholders like tests/<module>_test.cc
    esac
    # A path resolves if it exists as given (file or directory, trailing
    # slash tolerated) or is a build-target name whose source exists
    # (bench/fig6_sampling -> bench/fig6_sampling.cc).
    if [ ! -e "$path" ] && [ ! -e "${path%/}" ] \
        && [ ! -e "$path.cc" ] && [ ! -e "$path.cpp" ]; then
      err "$doc references nonexistent source path '$path'"
    fi
  done < <(grep -o '`\(src\|tests\|bench\|examples\|scripts\)/[^`]*`' "$doc" \
             | tr -d '\`' | sort -u)
done

# --- 4. metric / span names referenced by the docs ------------------------
# Backticked dotted names in the observability vocabulary (server.*,
# planner.*, estimator.*, stream.*, log.*, accuracy.*) must be greppable
# in src/ — either whole (most call sites) or as a "<prefix>." literal
# next to a runtime suffix (the server's per-code failure counters, the
# logger's per-level line counters).
for doc in "${doc_files[@]}"; do
  while IFS= read -r name; do
    case "$name" in
      *\<*) continue ;;    # placeholders like server.requests.failed.<code>
    esac
    if ! grep -rqF "$name" src/; then
      prefix="${name%.*}."
      grep -rqF "\"$prefix" src/ \
        || err "$doc references metric/span '$name' not found in src/"
    fi
  done < <(grep -ho '`\(server\|planner\|estimator\|stream\|log\|accuracy\)\.[a-z0-9_.]*`' "$doc" \
             | tr -d '\`' | sort -u)
done

# --- 5. build output tracked by git ---------------------------------------
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  while IFS= read -r -d '' path; do
    case "$path" in
      CMakeCache.txt|*/CMakeCache.txt)
        err "build output '$path' is tracked by git"
        continue
        ;;
    esac
    if [ -f "$path" ] \
        && [ "$(head -c 4 -- "$path" | tr -d '\0')" = $'\x7fELF' ]; then
      err "binary '$path' is tracked by git"
    fi
  done < <(git ls-files -z)
else
  echo "check_docs: not a git checkout, skipping the tracked-output check"
fi

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED" >&2
  exit 1
fi
echo "check_docs: OK (${#doc_files[@]} files checked)"
