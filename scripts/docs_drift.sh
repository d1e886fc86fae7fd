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
# 5. The transport has no timer: a `*_POLL*` constant under crates/ipc
#    or crates/rpclite means some thread is again learning that it
#    should stop from a wall-clock poll instead of a `close` (PR 23).
#    (`disagg`'s `REMOTE_POLL` paces a blocking get's re-lookups; it is
#    a different thing and is not looked at.)
# 6. DESIGN states how many options a cluster has ("N options") and
#    gives each a row in its Options table; N is the number of leaf
#    `pub` fields of `ClusterConfig`, `InterconnectConfig`, `RetryPolicy`
#    and `HealthConfig` (a field holding another of these is not a
#    leaf) plus `StoreConfig::name`. A field added without a row — or
#    without the two callers a row has to name — fails here (PR 24).
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
# Identifiers deleted with the mechanisms they named: the sharded object
# table (PR 17); the throttling clock mode, the TCP transport and the
# bins and baselines `e2e` superseded (PR 19); the thread-per-peer
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
# public field, the hint parser and an uncalled `Cluster` getter (PR 24).
# A name gone for two ROADMAP re-anchors leaves the list (PR 15's did).
identifiers="with_shards shard_stats shard_count shard_of DEFAULT_SHARDS plasma.shard.{ ClockMode Throttle fabric_dp rack_scale_sweep BENCH_fabric BENCH_placement TcpConn TcpListener set_window \`fanout\` ::fanout fanout( Buddy ReleaseReq ForwardReq InvalidateReq SpillAtReq SpillAtResp SpillAtStatus delete_held( write_payload set_recv_timeout reader_stop MappedFabric \`batch_get\` ::batch_get batch_get( GrowthPolicy with_growth enable_eviction ElasticConfig ReplicationConfig model_client_cost heat_min_hits high_watermark_ppm low_watermark_ppm retry_after_from rpc_running"
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

if polls=$(grep -rnE '\b[A-Z_]*POLL[A-Z_]*\b' crates/ipc crates/rpclite); then
    echo "docs-drift: a poll constant is back in the transport (wake the thread with Conn::close / StopHandle::stop instead):" >&2
    echo "$polls" >&2
    status=1
fi

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
            if (type !~ /^(ClusterConfig|InterconnectConfig|RetryPolicy|HealthConfig)$/) n++
        }
        END { print n + 0 }
    ' "$1"
}
options=$(($(leaf_fields crates/disagg/src/cluster.rs ClusterConfig) +
    $(leaf_fields crates/disagg/src/store.rs InterconnectConfig) +
    $(leaf_fields crates/disagg/src/health.rs RetryPolicy) +
    $(leaf_fields crates/disagg/src/health.rs HealthConfig) +
    $(leaf_fields crates/plasma/src/store.rs StoreConfig name)))
stated=$({ grep -oE '[0-9]+ options' DESIGN.md || true; } | cut -d' ' -f1 | sort -u | tr '\n' ' ')
rows=$(awk '/^### Options/ { table = 1; next } /^#/ { table = 0 } table && /^\| `/' DESIGN.md | wc -l)
if [ "$stated" != "$options " ] || [ "$rows" -ne "$options" ]; then
    echo "docs-drift: DESIGN.md states \"${stated:-no count of }options\" over $rows table rows but the config structs have $options settable fields" >&2
    status=1
fi

if [ "$status" -eq 0 ]; then
    echo "docs-drift: documented method ids and the verb count agree with proto.rs, no retired verb or identifier is documented as live, no poll constant in the transport, $options options each with a row"
fi
exit $status
