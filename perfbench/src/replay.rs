//! `replay_bulk`: closed-loop catch-up after an outage, on two shards
//! keyed on `symbol`.
//!
//! Each call pushes one stream's whole period backlog through
//! `DsmsCenter::process` and drains every CQ's outputs before the next call
//! starts. Quote backlogs cycle through fixed sizes up to 200k rows — far
//! above the engine's 1024-row batch cap, so the oversize split runs on
//! every call — and symbols follow the Zipf hot-key generator of
//! `cqac-workload`, so one shard's keys run hot.

use crate::data::{self, Digest, News, Quote, Reference, Universe};
use crate::layers::{self, ExactCounts};
use crate::pipeline::{self, Serving, ServingInputs, Shape};
use crate::trace::{median, per_window, quantile, Metrics, Tracer};
use crate::{Args, Report};
use cqac_dsms::center::{DayRecord, DsmsCenter};
use cqac_dsms::network::CqId;
use cqac_dsms::streams::{news_schema, quote_schema};
use cqac_dsms::types::{work, Tuple};
use cqac_workload::{hot_key_rows, HotKeyParams};
use std::time::Instant;

const SHAPE: Shape = Shape {
    shards: 2,
    keyed: true,
};
const CQS: usize = 16;
const PERIOD_MS: u64 = 60_000;
/// Quote rows per period backlog, cycled; each period's news backlog is a
/// tenth of its quotes. One cycle is eight calls.
const BACKLOGS: [usize; 4] = [25_000, 50_000, 100_000, 200_000];
const CALLS_PER_CYCLE: usize = 2 * BACKLOGS.len();
const SETUPS: usize = 5;
/// Calls whose counts must repeat exactly.
const EXACT_CALLS: usize = 4;

/// One call's backlog: quotes on even calls, news on odd ones, spread
/// evenly over the period's event time with Zipf-skewed symbols.
enum Backlog {
    Quotes(Vec<Quote>),
    News(Vec<News>),
}

fn backlog(seed: u64, call: usize) -> Backlog {
    let period = (call / 2) as u64;
    let quotes = BACKLOGS[(call / 2) % BACKLOGS.len()];
    let rows = if call.is_multiple_of(2) {
        quotes
    } else {
        quotes / 10
    };
    let keys = hot_key_rows(&HotKeyParams {
        keys: data::SYMBOLS as u64,
        skew: 1.0,
        rows,
        seed: seed.wrapping_mul(31).wrapping_add(call as u64),
    });
    let mut r = data::rng(seed, 2_000_000 + call as u64);
    let t0 = period * PERIOD_MS;
    let ts = |i: usize| t0 + i as u64 * PERIOD_MS / rows as u64;
    let sym = |i: usize| (keys[i].key - 1) as u16;
    if call.is_multiple_of(2) {
        Backlog::Quotes(
            (0..rows)
                .map(|i| data::quote(&mut r, ts(i), sym(i)))
                .collect(),
        )
    } else {
        Backlog::News(
            (0..rows)
                .map(|i| data::news(&mut r, ts(i), sym(i)))
                .collect(),
        )
    }
}

impl Backlog {
    fn len(&self) -> usize {
        match self {
            Backlog::Quotes(q) => q.len(),
            Backlog::News(n) => n.len(),
        }
    }

    fn tuples(&self, u: &Universe) -> (&'static str, Vec<Tuple>) {
        match self {
            Backlog::Quotes(q) => ("quotes", u.quote_tuples(q)),
            Backlog::News(n) => ("news", u.news_tuples(n)),
        }
    }

    fn apply(&self, u: &Universe, reference: &mut Reference) {
        match self {
            Backlog::Quotes(q) => reference.quotes(u, q),
            Backlog::News(n) => reference.news(u, n),
        }
    }
}

/// The warm-up row pushed during set-up so the worker pool is spawned
/// before the first timed call.
fn warmup() -> Quote {
    Quote {
        ts: 0,
        sym: 0,
        price: 100.5,
        volume: 1,
    }
}

fn setup(
    inp: &ServingInputs,
    shape: Shape,
) -> (DsmsCenter, Vec<Option<CqId>>, DayRecord, Vec<Vec<Tuple>>) {
    let mut center = pipeline::new_center(shape, ServingInputs::capacity());
    let record = center
        .run_auction(&inp.subs, &inp.calibration)
        .expect("templates are valid plans");
    let cqs = pipeline::admitted_cqs(&record);
    center.process("quotes", vec![inp.u.quote_tuple(&warmup())]);
    let outs = cqs
        .iter()
        .map(|cq| cq.map(|cq| center.take_outputs(cq)).unwrap_or_default())
        .collect();
    (center, cqs, record, outs)
}

fn digest_all(digests: &mut [Digest], outs: &[Vec<Tuple>]) {
    for (d, out) in digests.iter_mut().zip(outs) {
        d.add_tuples(out);
    }
}

/// Per-call digests of one run of the call sequence (the last entry holds
/// the outputs `finish` releases).
fn per_call(outs: &[Vec<Tuple>]) -> Vec<Digest> {
    outs.iter()
        .map(|o| {
            let mut d = Digest::default();
            d.add_tuples(o);
            d
        })
        .collect()
}

fn finish_outputs(center: &mut DsmsCenter, cqs: &[Option<CqId>]) -> Vec<Vec<Tuple>> {
    center.engine_mut().finish();
    cqs.iter()
        .map(|cq| cq.map(|cq| center.take_outputs(cq)).unwrap_or_default())
        .collect()
}

struct Pass {
    setup_s: f64,
    latency_ms: Vec<f64>,
    /// Input rows of each call, aligned with `latency_ms`.
    call_rows: Vec<u64>,
    attempted: u64,
    problems: Vec<String>,
    layers: Serving,
    /// `(rows, push self ms)` of the smallest and the largest backlogs.
    self_small: (u64, f64),
    self_large: (u64, f64),
    exact: Option<ExactCounts>,
    day0: Metrics,
    tuples: u64,
    batches: u64,
    shards: (f64, f64),
    work: work::WorkSnapshot,
}

fn run_pass(args: &Args, seconds: f64, tr: &mut Tracer) -> Pass {
    let inp = ServingInputs::new(args.seed, CQS, 2_000, (1_000, 2_000, 500));
    let mut problems = Vec::new();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        built = Some(setup(&inp, SHAPE));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let (mut center, cqs, record, warm_outs) = built.expect("at least one setup");
    let (day0_problems, day0) = inp.check_day0(tr, SHAPE, &record);
    problems.extend(day0_problems);

    let mut reference = Reference::new(&inp.templates);
    reference.quotes(&inp.u, &[warmup()]);
    let mut digests = vec![Digest::default(); cqs.len()];
    let mut sample_rows: Vec<Option<u64>> = vec![None; cqs.len()];
    digest_all(&mut digests, &warm_outs);
    let mut calls: Vec<Vec<Digest>> = Vec::new();
    let mut layers = Serving::default();
    let (mut self_small, mut self_large) = ((0u64, 0.0), (0u64, 0.0));
    let mut latency_ms = Vec::new();
    let mut call_rows = Vec::new();
    let mut exact = None;
    let tuples0 = center.engine().tuples_processed();
    let batches0 = center.engine().batches_processed();
    work::reset();

    let start = Instant::now();
    let mut call = 0usize;
    while !call.is_multiple_of(CALLS_PER_CYCLE)
        || start.elapsed().as_secs_f64() < seconds
        || call == 0
    {
        let b = backlog(args.seed, call);
        let (stream, tuples) = b.tuples(&inp.u);
        if tr.enabled() && call < CALLS_PER_CYCLE {
            let schema = if stream == "quotes" {
                quote_schema()
            } else {
                news_schema()
            };
            layers
                .from_rows_ns
                .push(pipeline::from_rows_ns_per_row(&tuples, schema));
        }
        let n = tuples.len() as u64;
        let self_before = layers.push_self_ms;
        let open = tr.begin("call", call as u64);
        let t = Instant::now();
        let outs = pipeline::push_and_take(
            &mut center,
            &cqs,
            [(stream, tuples)],
            tr,
            call as u64,
            &mut layers,
        );
        let elapsed = t.elapsed().as_secs_f64();
        tr.end(open);
        let own = layers.push_self_ms - self_before;
        if stream == "quotes" && b.len() == BACKLOGS[0] {
            self_small = (self_small.0 + n, self_small.1 + own);
        }
        if stream == "quotes" && b.len() == BACKLOGS[BACKLOGS.len() - 1] {
            self_large = (self_large.0 + n, self_large.1 + own);
        }
        latency_ms.push(elapsed * 1e3);
        call_rows.push(n);
        digest_all(&mut digests, &outs);
        for (sample, out) in sample_rows.iter_mut().zip(&outs) {
            if sample.is_none() {
                *sample = out.first().map(data::tuple_hash);
            }
        }
        calls.push(per_call(&outs));
        b.apply(&inp.u, &mut reference);
        call += 1;
        if call == EXACT_CALLS {
            exact = Some(ExactCounts::new(
                &work::snapshot(),
                center.engine().tuples_processed() - tuples0,
                center.engine().batches_processed() - batches0,
            ));
        }
    }
    let work_total = work::snapshot();
    let tuples = center.engine().tuples_processed() - tuples0;
    let batches = center.engine().batches_processed() - batches0;
    let shards = layers::shard_readings(center.engine());

    let fin = finish_outputs(&mut center, &cqs);
    digest_all(&mut digests, &fin);
    calls.push(per_call(&fin));
    reference.finish(&inp.u);
    problems.extend(inp.check_outputs(&center, &digests, &sample_rows, &reference));
    problems.extend(single_shard_check(&inp, args.seed, &calls));
    if tr.enabled() {
        if let Some(first) = &exact {
            let replica = replay_prefix(&inp, args.seed);
            if replica != *first {
                problems.push(format!(
                    "exact counts differ between two runs: {} vs {}",
                    first.to_json(),
                    replica.to_json()
                ));
            }
        }
    }
    let attempted = latency_ms.len() as u64;
    Pass {
        setup_s: median(&setup_s),
        latency_ms,
        call_rows,
        attempted,
        problems,
        layers,
        self_small,
        self_large,
        exact,
        day0,
        tuples,
        batches,
        shards,
        work: work_total,
    }
}

/// The same call sequence on one shard, untimed: every call's outputs must
/// match the two-shard run's, CQ by CQ.
fn single_shard_check(inp: &ServingInputs, seed: u64, two_shards: &[Vec<Digest>]) -> Vec<String> {
    let shape = Shape {
        shards: 1,
        keyed: true,
    };
    let (mut center, cqs, _, _) = setup(inp, shape);
    let mut problems = Vec::new();
    let (last, calls) = two_shards.split_last().expect("finish entry");
    let mut compare = |call: String, got: Vec<Digest>, want: &[Digest]| {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            if g != w && problems.len() < 8 {
                problems.push(format!(
                    "{call} CQ {i}: 1 shard {} rows, 2 shards {} rows",
                    g.rows, w.rows
                ));
            }
        }
    };
    for (call, want) in calls.iter().enumerate() {
        let (stream, tuples) = backlog(seed, call).tuples(&inp.u);
        center.process(stream, tuples);
        let outs: Vec<Vec<Tuple>> = cqs
            .iter()
            .map(|cq| cq.map(|cq| center.take_outputs(cq)).unwrap_or_default())
            .collect();
        compare(format!("call {call}"), per_call(&outs), want);
    }
    compare(
        "finish".into(),
        per_call(&finish_outputs(&mut center, &cqs)),
        last,
    );
    problems
}

fn replay_prefix(inp: &ServingInputs, seed: u64) -> ExactCounts {
    let (mut center, cqs, _, _) = setup(inp, SHAPE);
    let tuples0 = center.engine().tuples_processed();
    let batches0 = center.engine().batches_processed();
    work::reset();
    let mut tr = Tracer::new(false);
    let mut layers = Serving::default();
    for call in 0..EXACT_CALLS {
        let (stream, tuples) = backlog(seed, call).tuples(&inp.u);
        pipeline::push_and_take(
            &mut center,
            &cqs,
            [(stream, tuples)],
            &mut tr,
            call as u64,
            &mut layers,
        );
    }
    ExactCounts::new(
        &work::snapshot(),
        center.engine().tuples_processed() - tuples0,
        center.engine().batches_processed() - batches0,
    )
}

fn e2e(pass: &Pass) -> Metrics {
    let mut m = Metrics::default();
    m.put("setup_s", pass.setup_s, "s");
    // Each cycle holds one call of every backlog size, so per-cycle figures
    // compare like with like; the run reports their medians.
    m.put(
        "latency_p50_ms",
        median(&per_window(&pass.latency_ms, CALLS_PER_CYCLE, 0.5)),
        "ms",
    );
    m.put(
        "latency_p90_ms",
        median(&per_window(&pass.latency_ms, CALLS_PER_CYCLE, 0.9)),
        "ms",
    );
    m.put("latency_samples", pass.latency_ms.len() as f64, "count");
    let per_cycle: Vec<f64> = pass
        .call_rows
        .chunks_exact(CALLS_PER_CYCLE)
        .zip(pass.latency_ms.chunks_exact(CALLS_PER_CYCLE))
        .map(|(rows, ms)| rows.iter().sum::<u64>() as f64 * 1e3 / ms.iter().sum::<f64>())
        .collect();
    m.put("rows_per_s", median(&per_cycle), "1/s");
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
    report.problems.extend(traced.problems.iter().cloned());
    let traced_e2e = e2e(&traced);

    let m = &mut report.layers;
    let calls = traced.attempted.max(1) as f64;
    m.put("loadgen.late_p90_ms", 0.0, "ms");
    m.put("loadgen.backlog_ticks_max", 0.0, "count");
    m.put(
        "e2e.latency_p99_ms",
        quantile(&traced.latency_ms, 0.99),
        "ms",
    );
    pipeline::day_layers(&tr, &traced.day0, m);
    let l = &traced.layers;
    m.put("types.from_rows_ns_per_row", median(&l.from_rows_ns), "ns");
    m.put("engine.push_self_ms", l.push_self_ms / calls, "ms");
    let per_row = |(rows, ms): (u64, f64)| {
        if rows == 0 {
            0.0
        } else {
            ms * 1e6 / rows as f64
        }
    };
    m.put(
        "engine.push_self_ns_per_row_small",
        per_row(traced.self_small),
        "ns",
    );
    m.put(
        "engine.push_self_ns_per_row_large",
        per_row(traced.self_large),
        "ns",
    );
    m.put(
        "engine.rows_per_batch",
        traced.tuples as f64 / traced.batches.max(1) as f64,
        "count",
    );
    m.put("engine.tuples_processed", traced.tuples as f64, "count");
    m.put("engine.batches_processed", traced.batches as f64, "count");
    m.put("engine.shard_rows_skew", traced.shards.0, "ratio");
    m.put("engine.shard_busy_ms", traced.shards.1, "ms");
    l.ops.report(m);
    m.put("center.take_outputs_ms", l.take_ms / calls, "ms");
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
