//! Per-layer readings taken from the program's public state: per-node
//! counters (`network::Node` fields), the `types::work` counters and the
//! engine's shard statistics.

use crate::trace::Metrics;
use cqac_dsms::engine::DsmsEngine;
use cqac_dsms::network::NodeId;
use cqac_dsms::ops::OPERATOR_KINDS;
use cqac_dsms::types::work::WorkSnapshot;
use std::collections::HashMap;
use std::time::Duration;

#[derive(Clone, Copy, Default)]
struct NodeReading {
    in_count: u64,
    out_count: u64,
    busy: Duration,
}

/// Per-node counters, and each shard's busy time, at one instant.
pub struct NodeSnapshot {
    nodes: HashMap<NodeId, (&'static str, NodeReading)>,
    shard_busy: Vec<Duration>,
}

impl NodeSnapshot {
    pub fn take(engine: &DsmsEngine) -> Self {
        let net = engine.network();
        Self {
            shard_busy: engine.shard_stats().iter().map(|s| s.busy).collect(),
            nodes: net
                .node_ids()
                .into_iter()
                .filter_map(|id| net.node(id).map(|n| (id, n)))
                .map(|(id, n)| {
                    let reading = NodeReading {
                        in_count: n.in_count,
                        out_count: n.out_count,
                        busy: n.busy,
                    };
                    (id, (n.kind, reading))
                })
                .collect(),
        }
    }
}

/// Per-operator-kind deltas accumulated over many measured calls.
#[derive(Default)]
pub struct OpTotals {
    by_kind: HashMap<&'static str, (u64, u64, Duration)>,
}

impl OpTotals {
    /// Adds the change between two snapshots and returns the wall time the
    /// operators covered: operator time on the calling thread plus the
    /// busiest shard's time (shards run in parallel, and node busy time
    /// sums over them). A node that appeared in between counts from zero; a
    /// node that disappeared is skipped.
    pub fn add(&mut self, before: &NodeSnapshot, after: &NodeSnapshot) -> Duration {
        let mut busy = Duration::ZERO;
        for (id, (kind, now)) in &after.nodes {
            let was = before.nodes.get(id).map(|e| e.1).unwrap_or_default();
            let e = self.by_kind.entry(kind).or_default();
            e.0 += now.in_count - was.in_count;
            e.1 += now.out_count - was.out_count;
            let d = now.busy.saturating_sub(was.busy);
            e.2 += d;
            busy += d;
        }
        let shards: Vec<Duration> = after
            .shard_busy
            .iter()
            .zip(&before.shard_busy)
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        let in_shards: Duration = shards.iter().sum();
        busy.saturating_sub(in_shards) + shards.into_iter().max().unwrap_or_default()
    }

    /// `ops.<kind>.{busy_ms,rows_in,selectivity}` for every operator kind.
    pub fn report(&self, m: &mut Metrics) {
        for kind in OPERATOR_KINDS {
            let (rows_in, rows_out, busy) = self.by_kind.get(kind).copied().unwrap_or_default();
            m.put(
                format!("ops.{kind}.busy_ms"),
                busy.as_secs_f64() * 1e3,
                "ms",
            );
            m.put(format!("ops.{kind}.rows_in"), rows_in as f64, "count");
            let sel = if rows_in == 0 {
                0.0
            } else {
                rows_out as f64 / rows_in as f64
            };
            m.put(format!("ops.{kind}.selectivity"), sel, "ratio");
        }
    }
}

/// Every `WorkSnapshot` field by name, and whether it must repeat exactly
/// for a fixed seed. Stealing and pool wake-ups depend on thread timing.
pub fn work_fields(w: &WorkSnapshot) -> [(&'static str, u64, bool); 24] {
    [
        ("rows_materialized", w.rows_materialized, true),
        ("row_evals", w.row_evals, true),
        ("kernel_ops", w.kernel_ops, true),
        ("batch_deep_clones", w.batch_deep_clones, true),
        ("shard_batches", w.shard_batches, true),
        ("shard_merge_rows", w.shard_merge_rows, true),
        ("keyed_shard_rows", w.keyed_shard_rows, true),
        ("selection_pushdown_rows", w.selection_pushdown_rows, true),
        ("pool_spawns", w.pool_spawns, true),
        ("pool_wakeups", w.pool_wakeups, false),
        ("morsels_executed", w.morsels_executed, true),
        ("morsels_stolen", w.morsels_stolen, false),
        ("steal_misses", w.steal_misses, false),
        ("rows_shed", w.rows_shed, true),
        ("quarantines", w.quarantines, true),
        ("overload_flushes", w.overload_flushes, true),
        ("simd_lanes", w.simd_lanes, true),
        ("dict_code_cmps", w.dict_code_cmps, true),
        ("str_cmps", w.str_cmps, true),
        ("adaptive_resizes", w.adaptive_resizes, true),
        ("chain_morsels", w.chain_morsels, true),
        ("grouped_partial_rows", w.grouped_partial_rows, true),
        ("partial_groups_combined", w.partial_groups_combined, true),
        ("dict_batches_pruned", w.dict_batches_pruned, true),
    ]
}

pub fn report_work(w: &WorkSnapshot, m: &mut Metrics) {
    for (name, value, _) in work_fields(w) {
        m.put(format!("work.{name}"), value as f64, "count");
    }
}

/// The counts a fixed seed must reproduce exactly: the marked work
/// counters plus the engine's processed-tuple and batch totals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExactCounts(pub Vec<(&'static str, u64)>);

impl ExactCounts {
    pub fn new(w: &WorkSnapshot, tuples: u64, batches: u64) -> Self {
        let mut v: Vec<(&'static str, u64)> = work_fields(w)
            .into_iter()
            .filter(|f| f.2)
            .map(|f| (f.0, f.1))
            .collect();
        v.push(("tuples_processed", tuples));
        v.push(("batches_processed", batches));
        Self(v)
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Engine-wide shard readings: `(rows skew = max/mean shard rows, summed
/// shard busy ms)`. Reads (1, 0) on a single-threaded engine.
pub fn shard_readings(engine: &DsmsEngine) -> (f64, f64) {
    let stats = engine.shard_stats();
    let rows: Vec<u64> = stats.iter().map(|s| s.rows).collect();
    let total: u64 = rows.iter().sum();
    let skew = if total == 0 {
        1.0
    } else {
        *rows.iter().max().expect("at least one shard") as f64 / (total as f64 / rows.len() as f64)
    };
    let busy: f64 = stats.iter().map(|s| s.busy.as_secs_f64() * 1e3).sum();
    (skew, busy)
}
