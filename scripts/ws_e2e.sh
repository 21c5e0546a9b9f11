#!/usr/bin/env bash
# End-to-end workspace lifecycle through the user-facing CLI:
# create -> plan/execute -> (simulated) crash -> recover -> gc ->
# query. The crash is a torn journal append — a half-written line at
# the end of the project's tail file, exactly what a process killed
# mid-write leaves behind. Reopening must shrug it off (and truncate
# it), `herc gc` must fold the surviving ops into a fresh snapshot,
# and every status query across the lifecycle must agree. A second
# crash tears between a datum's write to the data segment and the
# journal record that would reference it: reopening must ignore the
# orphan bytes, `herc fsck` must report them and `--repair` drop them.
# Last, re-planning beta under unchanged estimates must carry its
# versions: the live tail grows by exactly two records (the planning
# session and one `carry-plan`), fsck stays clean, and the status
# reads the same after a reopen and after gc.
#
# Run directly or via `scripts/ci.sh --stage ws`.

set -euo pipefail
cd "$(dirname "$0")/.."

HERC=${HERC:-"cargo run -q --release --offline -p dac95-schedflow --bin herc --"}
ROOT=target/ws_e2e
rm -rf "$ROOT"
mkdir -p "$ROOT"

cat > "$ROOT/counter.schema" <<'EOF'
data netlist; data stimuli; data performance;
tool netlist_editor; tool simulator;
activity Create:   netlist = netlist_editor();
activity Simulate: performance = simulator(netlist, stimuli);
EOF

# -- create two projects, execute one, plan the other ------------------
$HERC ws "$ROOT/ws" create alpha "$ROOT/counter.schema" --seed 7
$HERC ws "$ROOT/ws" create beta "$ROOT/counter.schema" --seed 8
$HERC ws "$ROOT/ws" run alpha "$ROOT/counter.schema" performance --seed 7 \
    > "$ROOT/run_alpha.txt"
$HERC ws "$ROOT/ws" plan beta "$ROOT/counter.schema" performance --seed 8 \
    > /dev/null
$HERC ws "$ROOT/ws" status alpha "$ROOT/counter.schema" --seed 7 \
    > "$ROOT/status_before.txt"

# -- crash: torn half-line at the end of alpha's journal tail ----------
tail_file=$(ls "$ROOT"/ws/alpha/tail-*.journal | head -n 1)
printf 'begin-run Create al' >> "$tail_file"

# -- recover: reopening tolerates the torn line, state is unchanged ----
$HERC ws "$ROOT/ws" status alpha "$ROOT/counter.schema" --seed 7 \
    > "$ROOT/status_recovered.txt"
cmp "$ROOT/status_before.txt" "$ROOT/status_recovered.txt" || {
    echo "ws_e2e: status diverged across crash recovery" >&2
    exit 1
}

# -- gc: fold each tail into a fresh snapshot --------------------------
$HERC gc "$ROOT/ws" | tee "$ROOT/gc1.txt"
grep -q '^alpha: folded' "$ROOT/gc1.txt" || {
    echo "ws_e2e: gc did not report alpha" >&2
    exit 1
}
if grep -q '^alpha: folded 0 ' "$ROOT/gc1.txt"; then
    echo "ws_e2e: alpha had an empty tail before gc — nothing was journaled" >&2
    exit 1
fi
# A second pass must find nothing left to fold.
$HERC gc "$ROOT/ws" > "$ROOT/gc2.txt"
if grep -qv 'folded 0 tail op(s)' "$ROOT/gc2.txt"; then
    echo "ws_e2e: second gc still had tail ops to fold:" >&2
    cat "$ROOT/gc2.txt" >&2
    exit 1
fi

# -- query at the new generation: identical state, still writable ------
$HERC ws "$ROOT/ws" status alpha "$ROOT/counter.schema" --seed 7 \
    > "$ROOT/status_after_gc.txt"
cmp "$ROOT/status_before.txt" "$ROOT/status_after_gc.txt" || {
    echo "ws_e2e: status diverged across gc" >&2
    exit 1
}
$HERC ws "$ROOT/ws" plan beta "$ROOT/counter.schema" performance --seed 8 \
    > /dev/null
$HERC ws "$ROOT/ws" list

# -- crash between a datum and its record (storage v3) -----------------
# Design data go to the project's data segment before the journal
# record that references them. A crash in between leaves the first
# bytes of a datum that no record points at.
seg="$ROOT/ws/alpha/data.seg"
test -s "$seg" || {
    echo "ws_e2e: alpha's design data are not in a data segment" >&2
    exit 1
}
seg_bytes=$(wc -c < "$seg")
head -c 300 "$seg" > "$ROOT/partial_datum"
cat "$ROOT/partial_datum" >> "$seg"
$HERC ws "$ROOT/ws" status alpha "$ROOT/counter.schema" --seed 7 \
    > "$ROOT/status_orphan.txt"
cmp "$ROOT/status_before.txt" "$ROOT/status_orphan.txt" || {
    echo "ws_e2e: status diverged across the orphaned datum" >&2
    exit 1
}
$HERC fsck "$ROOT/ws" > "$ROOT/fsck_orphan.txt" || {
    echo "ws_e2e: orphan segment bytes must not fail fsck:" >&2
    cat "$ROOT/fsck_orphan.txt" >&2
    exit 1
}
grep -q 'data.seg .*slack .*300 of [0-9]* bytes unreferenced' "$ROOT/fsck_orphan.txt" || {
    echo "ws_e2e: fsck did not report the unreferenced bytes:" >&2
    cat "$ROOT/fsck_orphan.txt" >&2
    exit 1
}
$HERC fsck "$ROOT/ws" --repair > "$ROOT/fsck_orphan_repair.txt"
grep -q 'repaired: rebuilt' "$ROOT/fsck_orphan_repair.txt" || {
    echo "ws_e2e: repair did not rebuild alpha's segment:" >&2
    cat "$ROOT/fsck_orphan_repair.txt" >&2
    exit 1
}
test "$(wc -c < "$seg")" -eq "$seg_bytes" || {
    echo "ws_e2e: repair left $(wc -c < "$seg") segment bytes, expected $seg_bytes" >&2
    exit 1
}
if $HERC fsck "$ROOT/ws" | grep -q 'slack'; then
    echo "ws_e2e: unreferenced bytes survived repair" >&2
    exit 1
fi
$HERC ws "$ROOT/ws" status alpha "$ROOT/counter.schema" --seed 7 \
    > "$ROOT/status_orphan_repaired.txt"
cmp "$ROOT/status_before.txt" "$ROOT/status_orphan_repaired.txt" || {
    echo "ws_e2e: status diverged across the segment repair" >&2
    exit 1
}

# -- corruption: flip an interior record in beta's journal tail --------
# (Not a torn tail: damage with valid records after it, which recovery
# must refuse to guess around. fsck must flag it, --repair must rebuild
# from snapshot + valid prefix, and the root must serve again. The
# *live* generation is the one named by CURRENT — compact keeps the
# previous one around, and damage there must not fail the store. The
# damaged record is the tail's first: beta's last plan, an unchanged
# one, appended two records, so only the first has one after it.)
tail_file="$ROOT/ws/beta/tail-$(cat "$ROOT/ws/beta/CURRENT").journal"
awk 'NR==2 { n=split($0,a,""); s=""; for (i=n; i>=1; i--) s=s a[i]; print s; next }
     { print }' "$tail_file" > "$tail_file.rot" && mv "$tail_file.rot" "$tail_file"
if $HERC fsck "$ROOT/ws" > "$ROOT/fsck_before.txt" 2>&1; then
    echo "ws_e2e: fsck passed on a corrupt root" >&2
    exit 1
fi
grep -q 'CORRUPT' "$ROOT/fsck_before.txt" || {
    echo "ws_e2e: fsck did not classify the damage:" >&2
    cat "$ROOT/fsck_before.txt" >&2
    exit 1
}
$HERC fsck "$ROOT/ws" --repair > "$ROOT/fsck_repair.txt"
grep -q 'repaired: rebuilt' "$ROOT/fsck_repair.txt" || {
    echo "ws_e2e: repair did not rebuild beta:" >&2
    cat "$ROOT/fsck_repair.txt" >&2
    exit 1
}
test -f "$ROOT"/ws/beta/*.quarantine || {
    echo "ws_e2e: damaged tail was not quarantined" >&2
    exit 1
}
$HERC fsck "$ROOT/ws" > /dev/null
# -- re-serve: the repaired root answers over HTTP ---------------------
$HERC serve "$ROOT/ws" --oneshot GET /projects/beta/status > /dev/null
$HERC ws "$ROOT/ws" status alpha "$ROOT/counter.schema" --seed 7 \
    > "$ROOT/status_after_fsck.txt"
cmp "$ROOT/status_before.txt" "$ROOT/status_after_fsck.txt" || {
    echo "ws_e2e: alpha's state changed across beta's repair" >&2
    exit 1
}

# -- re-plan unchanged: versions are carried, not copied ---------------
beta_tail() { echo "$ROOT/ws/beta/tail-$(cat "$ROOT/ws/beta/CURRENT").journal"; }
$HERC ws "$ROOT/ws" plan beta "$ROOT/counter.schema" performance --seed 8 \
    > /dev/null
$HERC ws "$ROOT/ws" status beta "$ROOT/counter.schema" --seed 8 \
    > "$ROOT/beta_status_before.txt"
records_before=$(wc -l < "$(beta_tail)")
$HERC ws "$ROOT/ws" plan beta "$ROOT/counter.schema" performance --seed 8 \
    > /dev/null
records_after=$(wc -l < "$(beta_tail)")
test $((records_after - records_before)) -eq 2 || {
    echo "ws_e2e: an unchanged re-plan appended $((records_after - records_before)) records, expected 2:" >&2
    tail -n 4 "$(beta_tail)" >&2
    exit 1
}
tail -n 1 "$(beta_tail)" | grep -q ' carry-plan ' || {
    echo "ws_e2e: an unchanged re-plan did not end in a carry-plan record:" >&2
    tail -n 2 "$(beta_tail)" >&2
    exit 1
}
$HERC fsck "$ROOT/ws" > "$ROOT/fsck_carry.txt" || {
    echo "ws_e2e: fsck failed after the carried re-plan:" >&2
    cat "$ROOT/fsck_carry.txt" >&2
    exit 1
}
$HERC ws "$ROOT/ws" status beta "$ROOT/counter.schema" --seed 8 \
    > "$ROOT/beta_status_reopened.txt"
cmp "$ROOT/beta_status_before.txt" "$ROOT/beta_status_reopened.txt" || {
    echo "ws_e2e: beta's status changed across the carried re-plan" >&2
    exit 1
}
$HERC gc "$ROOT/ws" > /dev/null
$HERC ws "$ROOT/ws" status beta "$ROOT/counter.schema" --seed 8 \
    > "$ROOT/beta_status_after_gc.txt"
cmp "$ROOT/beta_status_before.txt" "$ROOT/beta_status_after_gc.txt" || {
    echo "ws_e2e: beta's status changed across gc of carried versions" >&2
    exit 1
}

echo "ws_e2e: OK"
