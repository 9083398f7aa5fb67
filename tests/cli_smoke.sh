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
nestcount() { "${prefix[@]}" "$@"; }
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
nestcount verify --suite table1
nestcount verify --suite catalan
nestcount verify --suite labels
nestcount verify --suite labels -m 3 -n 7
nestcount verify --suite bell-prefix
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
nestcount verify --suite cross-engine -m 7 --terms 18
python -c "from nestcount.series import v_identity_check as v; assert v(3, 14, [(1, 2, 3), (2, -1, 5)]) and v(2, 30, [(1, 2), (3, -2)])"
nestcount verify --suite oracle -m 3 --terms 12
nestcount verify --suite equidistribution -m 5 --terms 12
nestcount verify --suite cross-engine -m 24 --terms 12  # every m > N/2 counts as m = N // 2

echo "cli_smoke.sh: every command passed in $((SECONDS - start)) s"
