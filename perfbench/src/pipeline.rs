//! The center as the workloads drive it, plus the auction rebuilt from the
//! public functions `DsmsCenter::run_auction` is made of, so each step can
//! be timed and the center's decisions checked against it.

use crate::data::{Digest, Reference, Template, Universe};
use crate::layers::{NodeSnapshot, OpTotals};
use crate::trace::{Metrics, Tracer};
use cqac_core::mechanisms::{
    greedy_fill, movement_window_payments, priority_order, CatPlus, FillPolicy, LoadModel,
    MovementWindowMode,
};
use cqac_core::model::{AuctionInstance, UserId};
use cqac_core::outcome::Outcome;
use cqac_core::units::{Load, Money};
use cqac_dsms::center::{DayRecord, DsmsCenter, Submission};
use cqac_dsms::cost::{auction_instance, effective_capacity, CostModel};
use cqac_dsms::engine::DsmsEngine;
use cqac_dsms::network::CqId;
use cqac_dsms::streams::{news_schema, quote_schema};
use cqac_dsms::types::{Schema, Tuple, TupleBatch};
use rand::RngExt;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Engine shape shared by the serving engine and every shadow engine.
#[derive(Clone, Copy)]
pub struct Shape {
    pub shards: usize,
    /// Hash-partition both streams on `symbol`.
    pub keyed: bool,
}

/// A center running CAT+, the paper's aggressive total-load mechanism.
pub fn new_center(shape: Shape, capacity: Load) -> DsmsCenter {
    let mut center =
        DsmsCenter::new(capacity, Box::new(CatPlus::default())).with_shards(shape.shards);
    if shape.keyed {
        center = center.with_shard_key("quotes", 0).with_shard_key("news", 0);
    }
    center.register_stream("quotes", quote_schema());
    center.register_stream("news", news_schema());
    center
}

fn new_engine(shape: Shape) -> DsmsEngine {
    let mut engine = DsmsEngine::new().with_shards(shape.shards);
    if shape.keyed {
        engine = engine.with_shard_key("quotes", 0).with_shard_key("news", 0);
    }
    engine.register_stream("quotes", quote_schema());
    engine.register_stream("news", news_schema());
    engine
}

pub fn submissions(
    u: &Universe,
    templates: &[Template],
    bids: &[Money],
    first_user: u32,
) -> Vec<Submission> {
    templates
        .iter()
        .zip(bids)
        .enumerate()
        .map(|(i, (t, &bid))| Submission {
            user: UserId(first_user + i as u32),
            bid,
            plan: t.plan(u),
        })
        .collect()
}

/// The live CQ of each submission, `None` when it was not admitted.
pub fn admitted_cqs(record: &DayRecord) -> Vec<Option<CqId>> {
    record.decisions.iter().map(|d| d.cq).collect()
}

/// One auction rebuilt step by step.
pub struct Decomposed {
    pub inst: AuctionInstance,
    pub outcome: Outcome,
    /// Each submission's index into the auction's bid list (`None` when
    /// static verification rejected it).
    pub auction_pos: Vec<Option<usize>>,
}

/// Steps 1–3 of `DsmsCenter::run_auction` (shadow build, calibration,
/// instance, CAT+), each timed as a span.
pub fn decomposed_auction(
    tr: &mut Tracer,
    day: u64,
    shape: Shape,
    subs: &[Submission],
    calibration: &[(String, Tuple)],
    capacity: Load,
) -> Decomposed {
    let mut shadow = new_engine(shape);
    let mut shadow_cqs = Vec::with_capacity(subs.len());
    for s in subs {
        let report = tr.span("network.verify_plan", day, || {
            shadow.network().verify_plan(&s.plan)
        });
        if report.has_errors() {
            shadow_cqs.push(None);
        } else {
            let cq = tr.span("network.add_query", day, || {
                shadow.add_query(s.plan.clone())
            });
            shadow_cqs.push(Some(cq.expect("verified plan is accepted")));
        }
    }
    tr.span("center.calibrate", day, || {
        shadow.push_batch(calibration.iter().cloned())
    });
    let mut bids = Vec::new();
    let mut auction_pos = Vec::with_capacity(subs.len());
    for (s, cq) in subs.iter().zip(&shadow_cqs) {
        auction_pos.push(cq.map(|cq| {
            bids.push((cq, s.user, s.bid));
            bids.len() - 1
        }));
    }
    let capacity = effective_capacity(capacity, shape.shards);
    let (inst, _) = tr.span("cost.auction_instance", day, || {
        auction_instance(&shadow, &bids, capacity, &CostModel::default())
    });
    let order = tr.span("mechanisms.priority_order", day, || {
        priority_order(&inst, LoadModel::Total)
    });
    let fill = tr.span("mechanisms.fill", day, || {
        greedy_fill(&inst, &order, FillPolicy::SkipOverloaded)
    });
    let payments = tr.span("mechanisms.payments", day, || {
        movement_window_payments(&inst, LoadModel::Total, &fill, MovementWindowMode::Snapshot)
    });
    let outcome = Outcome::new("CAT+", &inst, fill.winners(), payments);
    Decomposed {
        inst,
        outcome,
        auction_pos,
    }
}

/// Problems found in one day's decisions: the outcome must validate, every
/// payment must stay within its bid, and the center must have admitted and
/// charged exactly what the rebuilt pipeline computes.
pub fn check_day(subs: &[Submission], record: &DayRecord, rebuilt: &Decomposed) -> Vec<String> {
    let mut problems = Vec::new();
    if let Err(e) = rebuilt.outcome.validate(&rebuilt.inst) {
        problems.push(format!("day {}: outcome invalid: {e}", record.day));
    }
    if record.decisions.len() != subs.len() {
        problems.push(format!(
            "day {}: {} decisions for {} submissions",
            record.day,
            record.decisions.len(),
            subs.len()
        ));
        return problems;
    }
    for (i, d) in record.decisions.iter().enumerate() {
        if d.payment > subs[i].bid {
            problems.push(format!(
                "day {}: submission {i} pays {} above its bid {}",
                record.day, d.payment, subs[i].bid
            ));
        }
        let (admitted, payment) = match rebuilt.auction_pos[i] {
            Some(pos) => {
                let q = cqac_core::model::QueryId(pos as u32);
                (rebuilt.outcome.is_winner(q), rebuilt.outcome.payment(q))
            }
            None => (false, Money::ZERO),
        };
        if d.admitted != admitted || d.payment != payment {
            problems.push(format!(
                "day {}: submission {i} center (admitted {}, pays {}) vs pipeline (admitted {admitted}, pays {payment})",
                record.day, d.admitted, d.payment
            ));
        }
    }
    problems
}

/// Movement-window payments of the snapshot and the paper's naive
/// re-simulation must agree on `inst`.
pub fn check_naive(inst: &AuctionInstance) -> Option<String> {
    let order = priority_order(inst, LoadModel::Total);
    let fill = greedy_fill(inst, &order, FillPolicy::SkipOverloaded);
    let snapshot =
        movement_window_payments(inst, LoadModel::Total, &fill, MovementWindowMode::Snapshot);
    let naive = movement_window_payments(inst, LoadModel::Total, &fill, MovementWindowMode::Naive);
    (snapshot != naive).then(|| {
        let diff = snapshot.iter().zip(&naive).filter(|(a, b)| a != b).count();
        format!(
            "naive and snapshot movement-window payments differ for {diff} of {} queries",
            inst.num_queries()
        )
    })
}

/// A day's calibration sample: uniform symbols, quotes every 2 ms and news
/// every 20 ms from `t0`, merged in event-time order.
pub fn calibration(
    u: &Universe,
    seed: u64,
    purpose: u64,
    t0: u64,
    quotes: usize,
) -> Vec<(String, Tuple)> {
    let mut r = crate::data::rng(seed, purpose);
    let mut rows: Vec<(String, Tuple)> = Vec::with_capacity(quotes + quotes / 10);
    for i in 0..quotes as u64 {
        let sym = r.random_range(0..crate::data::SYMBOLS as u16);
        rows.push((
            "quotes".to_string(),
            u.quote_tuple(&crate::data::quote(&mut r, t0 + 2 * i, sym)),
        ));
    }
    for i in 0..(quotes / 10) as u64 {
        let sym = r.random_range(0..crate::data::SYMBOLS as u16);
        rows.push((
            "news".to_string(),
            u.news_tuple(&crate::data::news(&mut r, t0 + 20 * i, sym)),
        ));
    }
    rows.sort_by_key(|(_, t)| t.ts);
    rows
}

/// A data-free copy of the live network that replays each day's transition
/// (claim continuing CQs by plan signature, add new winners, retire the
/// rest) so its network mutations can be timed.
pub struct Mirror {
    engine: DsmsEngine,
    active: HashMap<String, Vec<CqId>>,
}

impl Mirror {
    pub fn new(shape: Shape) -> Self {
        Self {
            engine: new_engine(shape),
            active: HashMap::new(),
        }
    }

    pub fn transition(
        &mut self,
        tr: &mut Tracer,
        day: u64,
        subs: &[Submission],
        record: &DayRecord,
    ) {
        let open = tr.begin("center.transition", day);
        self.engine.begin_transition();
        let mut claimable = std::mem::take(&mut self.active);
        for d in record.decisions.iter().filter(|d| d.admitted) {
            let plan = &subs[d.submission].plan;
            let signature = plan.signature();
            let cq = match claimable.get_mut(&signature).and_then(Vec::pop) {
                Some(cq) => cq,
                None => tr
                    .span("mirror.add_query", day, || {
                        self.engine.add_query(plan.clone())
                    })
                    .expect("admitted plan is valid"),
            };
            self.active.entry(signature).or_default().push(cq);
        }
        for cq in claimable.into_values().flatten() {
            tr.span("network.remove_query", day, || self.engine.remove_query(cq));
        }
        self.engine.end_transition();
        tr.end(open);
    }
}

/// Nanoseconds per row of `TupleBatch::from_rows` over a copy of `rows`.
pub fn from_rows_ns_per_row(rows: &[Tuple], schema: Schema) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let schema = Arc::new(schema);
    let copy = rows.to_vec();
    let start = Instant::now();
    let batch = std::hint::black_box(TupleBatch::from_rows(schema, copy));
    let ns = start.elapsed().as_secs_f64() * 1e9;
    drop(batch);
    ns / rows.len() as f64
}

/// Per-layer readings of the auction steps and the day's transition, as
/// means per auction day. `counts` carries `mechanisms.winners` and
/// `cost.operators` (already per-day means).
pub fn day_layers(tr: &Tracer, counts: &Metrics, m: &mut Metrics) {
    let days = tr.count("mechanisms.payments").max(1) as f64;
    for (metric, span) in [
        ("mechanisms.priority_order_ms", "mechanisms.priority_order"),
        ("mechanisms.fill_ms", "mechanisms.fill"),
        ("mechanisms.payments_ms", "mechanisms.payments"),
        ("network.verify_plan_ms", "network.verify_plan"),
        ("network.add_query_ms", "network.add_query"),
        ("network.remove_query_ms", "network.remove_query"),
        ("center.calibrate_ms", "center.calibrate"),
        ("cost.auction_instance_ms", "cost.auction_instance"),
        ("center.transition_ms", "center.transition"),
    ] {
        m.put(metric, tr.total_ms(span) / days, "ms");
    }
    for name in ["mechanisms.winners", "cost.operators"] {
        m.put(name, counts.get(name).unwrap_or(0.0), "count");
    }
}

/// Tracing overhead (traced against untraced headline latency) and the
/// span count.
pub fn trace_overhead(untraced: &Metrics, traced: &Metrics, tr: &Tracer, m: &mut Metrics) {
    let plain = untraced.get("latency_p50_ms").unwrap_or(0.0);
    let with = traced.get("latency_p50_ms").unwrap_or(0.0);
    m.put("trace.spans", tr.spans().len() as f64, "count");
    m.put("trace.latency_p50_ms_untraced", plain, "ms");
    m.put("trace.latency_p50_ms_traced", with, "ms");
    m.put(
        "trace.overhead_ratio",
        if plain > 0.0 { with / plain } else { 0.0 },
        "ratio",
    );
}

/// Writes the traced pass's spans to `perfbench/out/`.
pub fn write_trace(args: &crate::Args, tr: &Tracer, problems: &mut Vec<String>) {
    let path = std::path::PathBuf::from(format!(
        "perfbench/out/trace_{}_seed{}.jsonl",
        args.workload, args.seed
    ));
    if let Err(e) = tr.write_jsonl(&path) {
        problems.push(format!("writing {}: {e}", path.display()));
    }
}

/// Per-layer readings of serving calls.
#[derive(Default)]
pub struct Serving {
    pub ops: OpTotals,
    /// Each process span minus the node busy time it covers (with shards,
    /// busy time sums over the workers).
    pub push_self_ms: f64,
    pub take_ms: f64,
    pub in_rows: u64,
    pub out_rows: u64,
    pub from_rows_ns: Vec<f64>,
}

/// Pushes each `(stream, rows)` through `DsmsCenter::process`, then takes
/// every live CQ's outputs. The outputs are returned so the caller can
/// check them after its clock stops.
pub fn push_and_take<const N: usize>(
    center: &mut DsmsCenter,
    cqs: &[Option<CqId>],
    calls: [(&str, Vec<Tuple>); N],
    tr: &mut Tracer,
    op: u64,
    layers: &mut Serving,
) -> Vec<Vec<Tuple>> {
    for (stream, rows) in calls {
        layers.in_rows += rows.len() as u64;
        let before = tr.enabled().then(|| NodeSnapshot::take(center.engine()));
        let open = tr.begin("center.process", op);
        center.process(stream, rows);
        let span_s = tr.end(open);
        if let Some(before) = before {
            let busy = layers
                .ops
                .add(&before, &NodeSnapshot::take(center.engine()));
            layers.push_self_ms += (span_s - busy.as_secs_f64()) * 1e3;
        }
    }
    let open = tr.begin("center.take_outputs", op);
    let outs: Vec<Vec<Tuple>> = cqs
        .iter()
        .map(|cq| cq.map(|cq| center.take_outputs(cq)).unwrap_or_default())
        .collect();
    layers.take_ms += tr.end(open) * 1e3;
    layers.out_rows += outs.iter().map(|o| o.len() as u64).sum::<u64>();
    outs
}

/// The fixed serving network of `serve_ticks` and `replay_bulk`, with its
/// day-0 bids and calibration sample.
pub struct ServingInputs {
    pub u: Universe,
    pub templates: Vec<Template>,
    pub subs: Vec<Submission>,
    pub calibration: Vec<(String, Tuple)>,
}

impl ServingInputs {
    pub fn new(seed: u64, cqs: usize, join_window: u64, agg_windows: (u64, u64, u64)) -> Self {
        let u = Universe::new();
        let templates = crate::data::serving_templates(cqs, join_window, agg_windows);
        let mut r = crate::data::rng(seed, 2);
        let bids: Vec<Money> = (0..cqs)
            .map(|_| Money::from_dollars(f64::from(r.random_range(1u32..=100))))
            .collect();
        let subs = submissions(&u, &templates, &bids, 0);
        let calibration = calibration(&u, seed, 3, 0, 2_000);
        Self {
            u,
            templates,
            subs,
            calibration,
        }
    }

    /// Capacity no bid competes for: the serving workloads admit every CQ.
    pub fn capacity() -> Load {
        Load::from_units(1e9)
    }

    /// Checks day 0 against the auction rebuilt from its public functions,
    /// replays its transition on a mirror (spans when traced), and returns
    /// the problems found with the day's winner and operator counts.
    pub fn check_day0(
        &self,
        tr: &mut Tracer,
        shape: Shape,
        record: &DayRecord,
    ) -> (Vec<String>, Metrics) {
        let rebuilt = decomposed_auction(
            tr,
            0,
            shape,
            &self.subs,
            &self.calibration,
            Self::capacity(),
        );
        let mut problems = check_day(&self.subs, record, &rebuilt);
        Mirror::new(shape).transition(tr, 0, &self.subs, record);
        if record.decisions.iter().any(|d| !d.admitted) {
            problems.push("day 0 did not admit every CQ".into());
        }
        let mut counts = Metrics::default();
        counts.put(
            "mechanisms.winners",
            rebuilt.outcome.winners.len() as f64,
            "count",
        );
        counts.put(
            "cost.operators",
            rebuilt.inst.num_operators() as f64,
            "count",
        );
        (problems, counts)
    }

    /// Compares each CQ's output digest with the reference's, requires that
    /// nothing was shed or quarantined, and runs the checker self-test.
    pub fn check_outputs(
        &self,
        center: &DsmsCenter,
        digests: &[Digest],
        sample_rows: &[Option<u64>],
        reference: &Reference,
    ) -> Vec<String> {
        let mut problems = Vec::new();
        for (i, (got, want)) in digests.iter().zip(&reference.cqs).enumerate() {
            if *got != want.digest {
                problems.push(format!(
                    "CQ {i} ({:?}): engine {} rows / {:#x}, reference {} rows / {:#x}",
                    self.templates[i], got.rows, got.sum, want.digest.rows, want.digest.sum
                ));
            }
        }
        if !center.engine().quarantine_events().is_empty() {
            problems.push("a CQ was quarantined".into());
        }
        if center
            .engine()
            .stream_stats()
            .values()
            .any(|s| s.rows_shed > 0)
        {
            problems.push("rows were shed".into());
        }
        problems.extend(crate::data::self_test(digests, sample_rows, reference));
        problems
    }
}
