#!/usr/bin/env bash
# docs-drift: fail when the docs disagree with the interconnect verbs in
# crates/disagg/src/proto.rs.
#
# 1. The docs reference wire verbs as `VERB` (method id N) — every such
#    pair is cross-checked against `pub const VERB: u32 = N;`. A verb
#    the docs name but proto.rs no longer defines is drift too.
# 2. A verb in `method::RETIRED` may be named (in backticks) only under
#    a heading that starts "Historical": anywhere else in README,
#    DESIGN or EXPERIMENTS the text describes a protocol that is gone.
# 3. The same goes for the identifiers of deleted mechanisms (the list
#    below), over those files and the verify skill.
# 4. README and DESIGN state how many interconnect verbs there are
#    ("N interconnect verbs"); N is the number of `pub const VERB: u32`
#    in proto.rs.
# 5. Retired: a wall-clock poll in the transport is caught by a test,
#    crates/rpclite/tests/thread_census.rs (idle server threads take no
#    context switch in 750 ms), not by grepping for a `*POLL*` constant.
# 6. DESIGN states how many options a cluster has ("N options") and
#    gives each a row in its Options table; N is the number of leaf
#    `pub` fields of `ClusterConfig` and `InterconnectConfig` (a field
#    holding the other is not a leaf) plus `StoreConfig::name`. A field
#    added without a row — or without the two callers a row has to
#    name — fails here (PR 24).
# 7. Retired: a thread per request is caught by a test,
#    crates/rpclite/tests/thread_census.rs, not by grepping `serve_conn`.
# 8. Retired: a protocol path that asks a peer for `METRICS` is caught by
#    a test, tests/elastic.rs (every path the benchmarks and the chaos
#    soak drive, then no `rpc.client.metrics.latency_ns` sample on any node), not
#    by grepping for `method::METRICS` callers.
# 9. A CHANGES.md entry from PR 27 on is at most 1 200 characters
#    (ROADMAP's rule iv): run detail goes to EXPERIMENTS.md.
# 10. The envelope checksum runs on the CPU's instruction:
#    crates/rpclite/src/wire.rs calls `_mm_crc32_u64` behind
#    `is_x86_feature_detected!("sse4.2")`. This one stays a grep because
#    no test can see which path ran: the table fold computes the same
#    CRC-32C (`crc32_known_answers` pins the polynomial on both paths).
#    Against the three-lane instruction path its cost is now outside
#    `e2e` `put_sw_per_ref`'s 0.25 bound (0.564 → 0.955 on `remote_read`,
#    0.473 → 0.910 on `write_churn` with the table, 3 pairs each), but
#    the benchmark only shows that when someone runs it.
# 11. Every statement of the inline-put threshold in README, DESIGN and
#    the verify skill — "`INLINE_PUT_MAX` = N KiB", "`INLINE_PUT_MAX`
#    (N KiB)", "`put` ≤ N KiB" or "`put` > N KiB" — names the constant
#    in crates/plasma/src/client.rs. (A copying `Bytes` is caught by a
#    test, tests/put_copies.rs, not by grepping for `Arc<[u8]>`.)
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
while IFS=: read -r file line verb id; do
    [ -n "$verb" ] || continue
    actual=$(sed -n "s/^ *pub const ${verb}: u32 = \([0-9]*\);.*/\1/p" crates/disagg/src/proto.rs)
    if [ -z "$actual" ]; then
        echo "docs-drift: $file:$line documents \`$verb\` but proto.rs does not define it" >&2
        status=1
    elif [ "$actual" != "$id" ]; then
        echo "docs-drift: $file:$line says \`$verb\` is method id $id but proto.rs says $actual" >&2
        status=1
    fi
done < <(grep -nH -oE '`[A-Z_]+`[^()]*\(method id [0-9]+\)' DESIGN.md README.md EXPERIMENTS.md ROADMAP.md 2>/dev/null |
    sed -E 's/^([^:]+):([0-9]+):`([A-Z_]+)`[^0-9]*([0-9]+)\)$/\1:\2:\3:\4/')

# Fail on any of `tokens` (space-separated, matched as substrings)
# appearing in `file` outside a heading that starts "Historical".
outside_historical() {
    local what=$1 file=$2 tokens=$3
    awk -v tokens="$tokens" -v file="$file" -v what="$what" '
        BEGIN { n = split(tokens, token, " ") }
        /^#+ / {
            level = index($0, " ") - 1
            title = substr($0, level + 2)
            if (title ~ /^Historical/) historical = level
            else if (historical && level <= historical) historical = 0
        }
        !historical {
            for (i = 1; i <= n; i++)
                if (index($0, token[i])) {
                    printf "docs-drift: %s:%d names %s %s outside a Historical section\n", file, NR, what, token[i] > "/dev/stderr"
                    bad = 1
                }
        }
        END { exit bad }
    ' "$file"
}

retired=$(sed -n '/pub const RETIRED/,/];/p' crates/disagg/src/proto.rs |
    sed -n 's/^ *([0-9]*, "\([a-z_]*\)"),$/`\1`/p' | tr 'a-z' 'A-Z' | tr '\n' ' ')
[ -n "$retired" ] || { echo "docs-drift: cannot read method::RETIRED from proto.rs" >&2; exit 1; }
# Identifiers deleted with the mechanisms they named: the thread-per-peer
# `DisaggStore::fanout` and the public in-flight window setter (PR 20;
# `fanout` is spelled quoted, as a path and as a call, so that the
# metric `disagg.lookup.fanout.latency_ns`, which stays, is not hit);
# the binary-split allocator, the messages the call header and the
# `DelegateReq` rename replaced, and the lease chase's handler (PR 21);
# the store-side remote write (PR 22); the recv timeout and the reader's
# stop flag, the data-plane wrapper type and the `get` alias (PR 23;
# `batch_get` is spelled quoted, as a path and as a call, so that the
# metric `batch_get_model_us_per_obj` and the span `op.batch_get`, which
# stay, are not hit); store growth, the eviction switch, the elastic and
# replication sub-configs with their fields, the client-cost switch as a
# public field, the hint parser and an uncalled `Cluster` getter (PR 24);
# the capacity scatter a spill pass made before choosing a lender (PR 27);
# the protobuf-style second codec the interconnect and the rpclite
# envelope were written in (PR 35); the one-id release loop, the raw
# parked-release flush and the one-id park beside them, which
# `return_pins` and `release_owed` replaced (PR 37); the probe-pacing
# config the deadline now derives, and a usage verb and module DESIGN
# named that never existed (PR 40).
# Then the client's own call and redial counts, which its metrics keep;
# and the server's hand-off of a call that may wait on another to a
# parked handler thread, gone since every verb is a leaf. Then the
# listener's stop plumbing, the Unix-socket transport and the two accept
# threads, gone since a connect hands its connection to the server. Then
# the byte-stream framing no transport has used since that socket went.
# Then the lookup's second round to a lent object's holder, and the
# request flag that let a holder serve its leased copy to it, gone since
# the owner answers a lent id with the holder's descriptor (`redirected`
# is spelled quoted, so that prose saying a read is redirected is not
# hit). Then the create staged at its owner and everything that served
# it, gone since the owner adopts the creator's copy (PR 51; `Staged` is
# spelled quoted and as a path, so that prose saying a write is staged
# is not hit, and the seal and abort handlers as calls, so that the
# `rpclite.calls.seal_at` row `e2e` still prints is not).
# A name gone for two ROADMAP re-anchors leaves the list (PR 15's did).
identifiers="MsgEnc MsgDec put_varint get_varint zigzag WireType bytes_head encode_put set_window \`fanout\` ::fanout fanout( Buddy ReleaseReq ForwardReq InvalidateReq SpillAtReq SpillAtResp SpillAtStatus delete_held( write_payload set_recv_timeout reader_stop MappedFabric \`batch_get\` ::batch_get batch_get( GrowthPolicy with_growth enable_eviction ElasticConfig ReplicationConfig model_client_cost heat_min_hits high_watermark_ppm low_watermark_ppm retry_after_from rpc_running peer_free_bytes release_now flush_parked_releases park_release HealthConfig UsageReport disagg::usage call_count reconnect_count may_wait Handlers rpc-handler StopHandle stop_handle UdsConn UdsListener rpc-accept plasma-accept write_to read_from MAX_FRAME_LEN follow_redirects \`redirected\` \`Staged\` Kind::Staged close_staged finish_staged seal_forwarded abort_forwarded seal_at( abort_at( CreateAtReq put_head create_via_ring create_routed"
for file in README.md DESIGN.md EXPERIMENTS.md; do
    outside_historical "retired verb" "$file" "$retired" || status=1
done
for file in README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md; do
    outside_historical "retired identifier" "$file" "$identifiers" || status=1
done

verbs=$(grep -cE '^ *pub const [A-Z_]+: u32 = [0-9]+;' crates/disagg/src/proto.rs)
for file in README.md DESIGN.md; do
    stated=$({ grep -oE '[0-9]+ interconnect verbs' "$file" || true; } | cut -d' ' -f1 | sort -u | tr '\n' ' ')
    if [ "$stated" != "$verbs " ]; then
        echo "docs-drift: $file states \"${stated:-no count of} interconnect verbs\" but proto.rs defines $verbs" >&2
        status=1
    fi
done

# The `pub` fields of `struct` in `file` that are not themselves one of
# the option structs; with a third argument, only the field of that name.
leaf_fields() {
    awk -v name="$2" -v only="${3:-[a-z_]+}" '
        $0 ~ "^pub struct " name " \\{" { inside = 1; next }
        inside && /^}/ { exit }
        inside && $0 ~ "^    pub " only ": " {
            type = $0
            sub(/^    pub [a-z_]+: /, "", type)
            sub(/,$/, "", type)
            if (type !~ /^(ClusterConfig|InterconnectConfig)$/) n++
        }
        END { print n + 0 }
    ' "$1"
}
options=$(($(leaf_fields crates/disagg/src/cluster.rs ClusterConfig) +
    $(leaf_fields crates/disagg/src/store.rs InterconnectConfig) +
    $(leaf_fields crates/plasma/src/store.rs StoreConfig name)))
stated=$({ grep -oE '[0-9]+ options' DESIGN.md || true; } | cut -d' ' -f1 | sort -u | tr '\n' ' ')
rows=$(awk '/^### Options/ { table = 1; next } /^#/ { table = 0 } table && /^\| `/' DESIGN.md | wc -l)
if [ "$stated" != "$options " ] || [ "$rows" -ne "$options" ]; then
    echo "docs-drift: DESIGN.md states \"${stated:-no count of }options\" over $rows table rows but the config structs have $options settable fields" >&2
    status=1
fi

# One CHANGES.md entry per line: a "- PR N" line and any lines that
# continue it, up to a blank line or the next entry.
while IFS= read -r entry; do
    pr=$(sed -E 's/^- PR ([0-9]+).*/\1/' <<<"$entry")
    [ "$pr" -ge 27 ] || continue
    chars=$(printf '%s' "$entry" | LC_ALL=C.UTF-8 wc -m)
    if [ "$chars" -gt 1200 ]; then
        echo "docs-drift: the CHANGES.md entry of PR $pr is $chars characters (at most 1 200; run detail goes to EXPERIMENTS.md)" >&2
        status=1
    fi
done < <(awk '
    /^- PR [0-9]+/ { if (entry != "") print entry; entry = $0; next }
    /^$/ { if (entry != "") print entry; entry = ""; next }
    entry != "" { entry = entry " " $0 }
    END { if (entry != "") print entry }
' CHANGES.md)

wire=crates/rpclite/src/wire.rs
if ! grep -q 'is_x86_feature_detected!("sse4.2")' "$wire" ||
    ! grep -q '_mm_crc32_u64(' "$wire"; then
    echo "docs-drift: $wire must compute the envelope checksum with _mm_crc32_u64 behind is_x86_feature_detected!(\"sse4.2\")" >&2
    status=1
fi

inline_kib=$(sed -n 's/^pub const INLINE_PUT_MAX: usize = \([0-9]*\) << 10;$/\1/p' crates/plasma/src/client.rs)
if [ -z "$inline_kib" ]; then
    echo "docs-drift: cannot read INLINE_PUT_MAX (as \"N << 10\") from crates/plasma/src/client.rs" >&2
    status=1
else
    while IFS=: read -r file line stated; do
        kib=$(grep -oE '[0-9]+ KiB' <<<"$stated" | cut -d' ' -f1)
        if [ "$kib" != "$inline_kib" ]; then
            echo "docs-drift: $file:$line says \"$stated\" but INLINE_PUT_MAX is $inline_kib KiB" >&2
            status=1
        fi
    done < <(grep -nH -oE 'INLINE_PUT_MAX`? (= |\()[0-9]+ KiB|`put`? (≤|>) [0-9]+ KiB' README.md DESIGN.md .claude/skills/verify/SKILL.md)
fi

if [ "$status" -eq 0 ]; then
    echo "docs-drift: documented method ids and the verb count agree with proto.rs, no retired verb or identifier is documented as live, $options options each with a row, every checked CHANGES.md entry fits 1 200 characters, the envelope checksum runs on the CPU's instruction and every stated inline-put threshold is $inline_kib KiB"
fi
exit $status
