#!/usr/bin/env bash
# Traffic inventory: the src/ functions that no entry point runs.
#
#   tools/coverage_inventory.sh <scratch-dir>
#
# Builds two Debug trees with `--coverage -O1` under <scratch-dir>: the
# entry points (every bench, example and lnicctl) and perfbench/. Runs
# tools/run_entry_points.sh on the first; then perfbench --selftest and
# each perfbench workload for one round (--seconds 0), untraced and
# traced. Prints every src/ function location (file and first line) that
# never ran, grouped by file, with totals over function locations and
# executable lines. A location counts as run when any of its inlined or
# instantiated copies ran in either tree. Takes about five minutes on 4
# cores; the build trees stay in <scratch-dir> for a closer look.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 <scratch-dir>" >&2
  exit 1
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
scratch=$(cd "$1" && pwd)
jobs=$(( $(nproc) < 4 ? $(nproc) : 4 ))
flags=(-G "Unix Makefiles" -DCMAKE_BUILD_TYPE=Debug
       "-DCMAKE_CXX_FLAGS=--coverage -O1"
       "-DCMAKE_EXE_LINKER_FLAGS=--coverage")

echo "== building entry points" >&2
cmake -S "$root" -B "$scratch/entry" "${flags[@]}" > "$scratch/entry.log"
for dir in bench examples tools; do
  make -C "$scratch/entry/$dir" -j "$jobs" >> "$scratch/entry.log"
done
echo "== building perfbench" >&2
cmake -S "$root/perfbench" -B "$scratch/perfbench" "${flags[@]}" \
  > "$scratch/perfbench.log"
cmake --build "$scratch/perfbench" -j "$jobs" >> "$scratch/perfbench.log"

# Counts accumulate across runs; start from zero.
find "$scratch/entry" "$scratch/perfbench" -name '*.gcda' -delete

echo "== running entry points" >&2
"$root/tools/run_entry_points.sh" "$scratch/entry" > "$scratch/run.log"
echo "== running perfbench" >&2
bench="$scratch/perfbench/lnic_perfbench"
mkdir -p "$scratch/traces"
"$bench" --selftest --seed 1 >> "$scratch/run.log"
for workload in faas_mix nic_kv_rw image_rdma; do
  for trace in 0 1; do
    "$bench" --workload "$workload" --seed 1 --seconds 0 --trace "$trace" \
      --out "$scratch/traces" >> "$scratch/run.log"
  done
done

# One JSON report per object file. -p keeps the object's path in the
# report's name: common/trace.cc and net/trace.cc share a basename, and
# without it one report overwrites the other. Objects that never ran have
# no .gcda; gcov then reports all their counts as zero.
echo "== collecting counts" >&2
rm -rf "$scratch/gcov"
mkdir -p "$scratch/gcov"
(
  cd "$scratch/gcov"
  find "$scratch/entry/src" "$scratch/perfbench/lnic" -name '*.gcno' \
    -print0 | xargs -0 gcov -p -j > /dev/null 2>&1
)

python3 - "$root/src" "$scratch/gcov" <<'PY'
import glob, gzip, json, os, sys

src, reports = sys.argv[1], sys.argv[2]
functions = {}  # (file, first line) -> [name, ran]
lines = {}      # (file, line) -> ran
for path in glob.glob(os.path.join(reports, "*.gcov.json.gz")):
    with gzip.open(path, "rt") as f:
        report = json.load(f)
    cwd = report.get("current_working_directory", "")
    for entry in report["files"]:
        name = os.path.normpath(os.path.join(cwd, entry["file"]))
        if not name.startswith(src + os.sep):
            continue
        name = os.path.relpath(name, os.path.dirname(src))
        for fn in entry["functions"]:
            key = (name, fn["start_line"])
            slot = functions.setdefault(key, [fn["demangled_name"], False])
            # Instantiations share a location; name it by the least name.
            slot[0] = min(slot[0], fn["demangled_name"])
            slot[1] = slot[1] or fn["execution_count"] > 0
        for line in entry["lines"]:
            key = (name, line["line_number"])
            lines[key] = lines.get(key, False) or line["count"] > 0

by_file = {}
for (name, first), (label, ran) in functions.items():
    by_file.setdefault(name, []).append((first, label, ran))
never = 0
for name in sorted(by_file):
    missed = sorted(x for x in by_file[name] if not x[2])
    if not missed:
        continue
    never += len(missed)
    print(f"{name}: {len(missed)} of {len(by_file[name])} never ran")
    for first, label, _ in missed:
        print(f"  {first:5d}  {label}")
dark = sum(1 for ran in lines.values() if not ran)
print(f"total: {never} of {len(functions)} src/ function locations never "
      f"ran ({dark} of {len(lines)} executable lines)")
PY
