#!/usr/bin/env bash
# End-to-end smoke run of the nestcount CLI against the README and the oracle.
#
# Usage, from any directory:
#   bash tests/cli_smoke.sh nestcount                          # installed console script
#   PYTHONPATH=src bash tests/cli_smoke.sh python3 -m nestcount.cli   # from a checkout
#
# The arguments are the command prefix that every `nestcount` line below
# runs. The script stops at the first command that fails and names its line.
set -eE
prefix=("$@")
if [ ${#prefix[@]} = 0 ]; then
    echo "usage: $0 COMMAND-PREFIX..." >&2
    exit 2
fi
# `command` runs the prefix itself: a prefix of `nestcount` would otherwise
# call this function again, without end.
nestcount() { command "${prefix[@]}" "$@"; }
script=$(realpath "$0")
# A failure inside nestcount() is named by the script line that called it;
# any other by the failed command itself.
trap 'line=${BASH_LINENO[0]}; failed=$BASH_COMMAND
      [ "$line" = 0 ] && line=$LINENO || failed=$(sed -n "${line}s/^ *//p" "$script")
      echo "cli_smoke.sh: line $line failed: $failed" >&2' ERR
cd "$(dirname "$script")/.."
start=$SECONDS

diff <(sed -n 's/^gtree\.sequence(2, 10) *# \[\(.*\)\]$/\1/p' README.md \
         | tr -d ' ' | tr ',' '\n' | awk 'BEGIN { print "n,count" } { print NR - 1 "," $0 }') \
     <(nestcount sequence -m 2 -n 10 --engine gtree)
for engine in oracle useries xseries; do
  diff <(nestcount sequence -m 2 -n 10 --engine gtree) <(nestcount sequence -m 2 -n 10 --engine $engine)
done
nestcount stats -n 6
# stats -n 10 counts Bell(10) = 115975 partitions, with equal nesting and crossing marginals
nestcount stats -n 10 | awk -F, 'NR > 1 { total += $3; ne[$1] += $3; cr[$2] += $3 }
    END { for (k in ne) if (ne[k] != cr[k]) exit 1
          for (k in cr) if (ne[k] != cr[k]) exit 1
          exit total != 115975 }'
nestcount labels -m 2 -n 5 --engine oracle
cache=$(mktemp -d)
trap 'rm -rf "$cache"' EXIT
nestcount sequence -m 3 -n 12 --cache-dir "$cache" > "$cache/write.out"
cp "$cache/m3_gtree.json" "$cache/record.json"
nestcount sequence -m 3 -n 12 --cache-dir "$cache" > "$cache/hit.out"
diff "$cache/write.out" "$cache/hit.out"
cmp "$cache/m3_gtree.json" "$cache/record.json"  # the second run read the record, not rewrote it
test "$(nestcount --version)" = "$(python -c 'import nestcount; print(nestcount.__version__)')"
nestcount --help
nestcount sequence --help
code=0
nestcount sequence -m 2 > "$cache/usage.out" 2> "$cache/usage.err" || code=$?
test "$code" = 2  # a usage error exits 2, prints nothing to stdout and one error line
test ! -s "$cache/usage.out"
test "$(wc -l < "$cache/usage.err")" = 1
grep -q '^error: ' "$cache/usage.err"
code=0
nestcount sequence -m 2 -n 3 --cache-dir "" > "$cache/usage.out" 2> "$cache/usage.err" || code=$?
test "$code" = 2  # an empty --cache-dir is a usage error, not a run with no cache
test ! -s "$cache/usage.out"
test "$(wc -l < "$cache/usage.err")" = 1
grep -q '^error: ' "$cache/usage.err"
code=0
nestcount stats -n -1 > "$cache/usage.out" 2> "$cache/usage.err" || code=$?
test "$code" = 2  # a value below an option's least is a usage error that names the option
test ! -s "$cache/usage.out"
test "$(wc -l < "$cache/usage.err")" = 1
grep -q '^error: .*--size' "$cache/usage.err"
code=0
nestcount sequence -m 2 -n 14 --engine oracle --cache-dir "$cache/never" > "$cache/usage.out" 2> "$cache/usage.err" || code=$?
test "$code" = 2  # past an engine's ceiling: refused before --cache-dir is created
test ! -s "$cache/usage.out"
test "$(wc -l < "$cache/usage.err")" = 1
grep -q '^error: .*--terms' "$cache/usage.err"
test ! -e "$cache/never"
{ nestcount sequence -m 2 -n 10 || test $? = 141; } 2> "$cache/pipe.err" | true
test ! -s "$cache/pipe.err"  # a reader that closes stdout early: exit 141, no traceback
nestcount verify --suite table1
nestcount verify --suite catalan
nestcount verify --suite labels
nestcount verify --suite labels -m 3 -n 7
nestcount verify --suite bell-prefix
nestcount verify --suite bell-prefix -n 60  # builds only n <= 2m+2, the terms it checks: 0.1 s, not minutes
nestcount verify --suite m2-formula
nestcount verify --suite m2-formula -n 15
nestcount verify --suite equidistribution
nestcount verify --suite equidistribution -m 4 --terms 11
nestcount verify --suite oracle -m 2 --terms 11
nestcount verify --suite cross-engine -m 5 --terms 24
nestcount verify --suite cross-engine -m 4 --terms 14
nestcount verify --suite cross-engine -m 4 --terms 30
nestcount verify --suite cross-engine -m 3 --terms 40
nestcount verify --suite cross-engine -m 2 --terms 62
nestcount verify --suite cross-engine -m 2 --terms 150
nestcount verify --suite cross-engine -m 1 --terms 100
nestcount verify --suite cross-engine -m 6 --terms 16
nestcount verify --suite cross-engine -m 7 --terms 16
nestcount verify --suite cross-engine -m 3 --terms 60
nestcount verify --suite cross-engine -m 5 --terms 30
nestcount verify --suite cross-engine -m 2 --terms 254
nestcount verify --suite cross-engine -m 3 --terms 62
nestcount verify --suite cross-engine -m 6 --terms 24
nestcount verify --suite cross-engine -m 6 --terms 30  # the u-engine steps to t-orders 26..30 at m = 5..1
nestcount verify --suite cross-engine -m 7 --terms 18
python -c "from nestcount.series import v_identity_check as v; assert v(3, 14, [(1, 2, 3), (2, -1, 5)]) and v(2, 30, [(1, 2), (3, -2)])"
python -c "from nestcount import gtree, series; assert all(series.u_series(m, 12) == [ms.counts for ms in gtree.levels(m, 12)] for m in (2, 4, 6))"  # whole orders, label by label
python -c "from nestcount import gtree, series; assert all(series.x_engine(m, N, check_stable=True) == gtree.sequence(m, N) for m, N in ((2, 32), (3, 24), (5, 16)))"  # [x^0] at weight bounds N and 2N
nestcount verify --suite oracle -m 3 --terms 12
nestcount verify --suite equidistribution -m 5 --terms 12
nestcount verify --suite cross-engine -m 24 --terms 12  # every m > N/2 counts as m = N // 2

echo "cli_smoke.sh: every command passed in $((SECONDS - start)) s"
