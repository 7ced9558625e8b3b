//! `auction_days`: consecutive CAT+ auction days, closed loop, one shard.
//!
//! About 2000 submissions per day (the paper's Table III query count) from
//! the stock-monitoring templates, with Zipf-skewed parameters so popular
//! plans share operators, and Zipf(100, 0.5) bids. A tenth of the
//! submissions churn each day. Capacity admits roughly half the demand. A
//! short serving slice runs between days so continuing CQs carry window
//! state through each transition.

use crate::data::{self, Agg, Template, Universe, THRESHOLDS};
use crate::layers::{self, ExactCounts};
use crate::pipeline::{self, Mirror, Serving, Shape};
use crate::trace::{median, quantile, Metrics, Tracer};
use crate::{Args, Report};
use cqac_core::units::{Load, Money};
use cqac_dsms::center::{DayRecord, DsmsCenter, Submission};
use cqac_dsms::network::CqId;
use cqac_dsms::streams::{quote_schema, NEWS_CATEGORIES};
use cqac_dsms::types::{work, Tuple};
use cqac_workload::Zipf;
use rand::rngs::StdRng;
use rand::RngExt;
use std::time::Instant;

const SHAPE: Shape = Shape {
    shards: 1,
    keyed: false,
};
const SUBMISSIONS: usize = 2_000;
/// Submissions replaced by new users each day.
const CHURN: usize = SUBMISSIONS / 10;
/// Capacity as a share of the day-0 total demand.
const CAPACITY_SHARE: f64 = 0.25;
const CALIBRATION_QUOTES: usize = 1_000;
/// Serving slice between days: ticks of 200 quotes and 25 news stories.
const SLICE_TICKS: u64 = 10;
const SLICE_QUOTES: usize = 200;
const SETUPS: usize = 5;
/// Days whose counts must repeat exactly.
const EXACT_DAYS: u64 = 3;
/// Submissions in the day small enough for the naive movement window.
const NAIVE_SUBMISSIONS: usize = 300;

/// One day's submissions and the seeded generator that churns them.
struct Book {
    u: Universe,
    seed: u64,
    entries: Vec<(Template, Money, u32)>,
    next_user: u32,
    zipf_th: Zipf,
    zipf_sym: Zipf,
    zipf_bid: Zipf,
}

impl Book {
    fn new(seed: u64) -> Self {
        let mut book = Self {
            u: Universe::new(),
            seed,
            entries: Vec::with_capacity(SUBMISSIONS),
            next_user: 0,
            zipf_th: Zipf::new(THRESHOLDS.len() as u64, 1.0),
            zipf_sym: Zipf::new(data::SYMBOLS as u64, 1.0),
            zipf_bid: Zipf::new(100, 0.5),
        };
        let mut r = data::rng(seed, 10_000);
        for _ in 0..SUBMISSIONS {
            let entry = book.draw(&mut r);
            book.entries.push(entry);
        }
        book
    }

    /// A new user's submission: template kind by weight, parameters and
    /// symbols Zipf-skewed (so popular plans share), bid Zipf(100, 0.5).
    fn draw(&mut self, r: &mut StdRng) -> (Template, Money, u32) {
        let th = THRESHOLDS[self.zipf_th.sample(r) as usize - 1];
        let sym = (self.zipf_sym.sample(r) - 1) as u16;
        let cat = r.random_range(0..NEWS_CATEGORIES.len() as u8);
        let agg = Agg::ALL[r.random_range(0..Agg::ALL.len())];
        let template = match r.random_range(0u32..100) {
            0..=14 => Template::PriceAbove { th },
            15..=49 => Template::Watch { th, sym },
            50..=59 => Template::NewsCat { cat },
            60..=64 => Template::Join {
                th,
                cat,
                window: [200, 500][r.random_range(0..2)],
            },
            65..=79 => Template::Tumble {
                th,
                agg,
                window: [1_000, 5_000][r.random_range(0..2)],
            },
            80..=89 => Template::Slide {
                th,
                agg,
                window: 2_000,
                slide: [500, 1_000][r.random_range(0..2)],
            },
            90..=94 => Template::Notional { th },
            _ => Template::Extremes {
                lo: 150.0 - th,
                hi: th,
            },
        };
        let bid = Money::from_dollars(self.zipf_bid.sample(r) as f64);
        let user = self.next_user;
        self.next_user += 1;
        (template, bid, user)
    }

    /// Replaces a tenth of the book with new users' submissions.
    fn churn(&mut self, day: u64) {
        let mut r = data::rng(self.seed, 10_000 + day);
        for _ in 0..CHURN {
            let at = r.random_range(0..self.entries.len());
            self.entries[at] = self.draw(&mut r);
        }
    }

    fn submissions(&self) -> Vec<Submission> {
        self.entries
            .iter()
            .map(|(t, bid, user)| Submission {
                user: cqac_core::model::UserId(*user),
                bid: *bid,
                plan: t.plan(&self.u),
            })
            .collect()
    }
}

fn calibration(book: &Book, day: u64) -> Vec<(String, Tuple)> {
    pipeline::calibration(&book.u, book.seed, 20_000 + day, 0, CALIBRATION_QUOTES)
}

/// Capacity for roughly half the demand: a share of the day-0 instance's
/// total operator load (an input property, computed before set-up).
fn capacity(book: &Book) -> Load {
    let mut tr = Tracer::new(false);
    let rebuilt = pipeline::decomposed_auction(
        &mut tr,
        0,
        SHAPE,
        &book.submissions(),
        &calibration(book, 0),
        Load::from_units(1e12),
    );
    Load::from_units(rebuilt.inst.total_demand().as_f64() * CAPACITY_SHARE)
}

/// The serving slice after `day`: consecutive 10 ms ticks.
fn slice(book: &Book, day: u64) -> Vec<(Vec<Tuple>, Vec<Tuple>)> {
    (0..SLICE_TICKS)
        .map(|k| {
            let tick = day * SLICE_TICKS + k;
            let mut r = data::rng(book.seed, 30_000_000 + tick);
            let ts = tick * 10;
            let quotes: Vec<_> = (0..SLICE_QUOTES)
                .map(|_| {
                    let sym = r.random_range(0..data::SYMBOLS as u16);
                    book.u.quote_tuple(&data::quote(&mut r, ts, sym))
                })
                .collect();
            let news: Vec<_> = (0..SLICE_QUOTES / 8)
                .map(|_| {
                    let sym = r.random_range(0..data::SYMBOLS as u16);
                    book.u.news_tuple(&data::news(&mut r, ts, sym))
                })
                .collect();
            (quotes, news)
        })
        .collect()
}

/// The center and the state the day loop carries.
struct Center {
    center: DsmsCenter,
    cqs: Vec<Option<CqId>>,
}

fn serve_slice(
    c: &mut Center,
    book: &Book,
    day: u64,
    tr: &mut Tracer,
    layers: &mut Serving,
) -> f64 {
    let ticks = slice(book, day);
    let start = Instant::now();
    for (k, (q, n)) in ticks.into_iter().enumerate() {
        let tick = day * SLICE_TICKS + k as u64;
        pipeline::push_and_take(
            &mut c.center,
            &c.cqs,
            [("quotes", q), ("news", n)],
            tr,
            tick,
            layers,
        );
    }
    start.elapsed().as_secs_f64()
}

/// What checking one day found, plus the counts the per-layer report needs.
struct DayCheck {
    problems: Vec<String>,
    winners: usize,
    operators: usize,
}

/// Rebuilds the day's auction from its public functions and compares.
fn check(
    tr: &mut Tracer,
    day: u64,
    subs: &[Submission],
    calib: &[(String, Tuple)],
    cap: Load,
    record: &DayRecord,
) -> DayCheck {
    let rebuilt = pipeline::decomposed_auction(tr, day, SHAPE, subs, calib, cap);
    DayCheck {
        problems: pipeline::check_day(subs, record, &rebuilt),
        winners: rebuilt.outcome.winners.len(),
        operators: rebuilt.inst.num_operators(),
    }
}

/// One auction day after day 0: churn, auction (the timed operation),
/// check, serving slice. Returns the auction's seconds and the slice's.
fn day_step(
    c: &mut Center,
    book: &mut Book,
    day: u64,
    cap: Load,
    tr: &mut Tracer,
    mirror: Option<&mut Mirror>,
    layers: &mut Serving,
) -> (f64, DayCheck, (u64, f64), DayRecord) {
    book.churn(day);
    let subs = book.submissions();
    let calib = calibration(book, day);
    let open = tr.begin("center.run_auction", day);
    let record = c
        .center
        .run_auction(&subs, &calib)
        .expect("templates are valid plans");
    let auction_s = tr.end(open);
    c.cqs = pipeline::admitted_cqs(&record);
    let checked = check(tr, day, &subs, &calib, cap, &record);
    if let Some(mirror) = mirror {
        mirror.transition(tr, day, &subs, &record);
    }
    let rows = SLICE_TICKS * (SLICE_QUOTES + SLICE_QUOTES / 8) as u64;
    let slice_s = serve_slice(c, book, day, tr, layers);
    (auction_s, checked, (rows, slice_s), record)
}

struct Pass {
    setup_s: f64,
    latency_ms: Vec<f64>,
    /// Serving-slice input rows per second, one entry per slice.
    slice_rates: Vec<f64>,
    problems: Vec<String>,
    layers: Serving,
    winners: Vec<f64>,
    operators: Vec<f64>,
    exact: Option<ExactCounts>,
    tuples: u64,
    batches: u64,
    work: work::WorkSnapshot,
    from_rows_ns: f64,
}

fn setup(book: &Book, cap: Load) -> (Center, DayRecord) {
    let mut center = pipeline::new_center(SHAPE, cap);
    let record = center
        .run_auction(&book.submissions(), &calibration(book, 0))
        .expect("templates are valid plans");
    let cqs = pipeline::admitted_cqs(&record);
    (Center { center, cqs }, record)
}

fn run_pass(args: &Args, seconds: f64, tr: &mut Tracer) -> Pass {
    let mut book = Book::new(args.seed);
    let cap = capacity(&book);
    let mut problems = Vec::new();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        built = Some(setup(&book, cap));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let (mut c, record0) = built.expect("at least one setup");
    let subs0 = book.submissions();
    let calib0 = calibration(&book, 0);
    let day0 = check(tr, 0, &subs0, &calib0, cap, &record0);
    problems.extend(day0.problems);
    let mut mirror = tr.enabled().then(|| Mirror::new(SHAPE));
    if let Some(m) = mirror.as_mut() {
        m.transition(tr, 0, &subs0, &record0);
    }
    let from_rows_ns = {
        let rows: Vec<Tuple> = calib0
            .iter()
            .filter(|(s, _)| s == "quotes")
            .map(|(_, t)| t.clone())
            .collect();
        pipeline::from_rows_ns_per_row(&rows, quote_schema())
    };
    problems.extend(naive_check(&subs0, &calib0, cap));
    let mut layers = Serving::default();
    let slice_rows = SLICE_TICKS * (SLICE_QUOTES + SLICE_QUOTES / 8) as u64;
    let first_slice_s = serve_slice(
        &mut c,
        &book,
        0,
        &mut Tracer::new(false),
        &mut Serving::default(),
    );
    let mut slice_rates = vec![slice_rows as f64 / first_slice_s];

    let (mut winners, mut operators) = (vec![day0.winners as f64], vec![day0.operators as f64]);
    let mut latency_ms = Vec::new();
    let mut exact = None;
    let mut last_record = record0;
    let tuples0 = c.center.engine().tuples_processed();
    let batches0 = c.center.engine().batches_processed();
    work::reset();
    let start = Instant::now();
    let mut day = 1u64;
    while start.elapsed().as_secs_f64() < seconds || day <= EXACT_DAYS {
        let (auction_s, checked, (rows, s), record) = day_step(
            &mut c,
            &mut book,
            day,
            cap,
            tr,
            mirror.as_mut(),
            &mut layers,
        );
        latency_ms.push(auction_s * 1e3);
        problems.extend(checked.problems);
        winners.push(checked.winners as f64);
        operators.push(checked.operators as f64);
        slice_rates.push(rows as f64 / s);
        last_record = record;
        if day == EXACT_DAYS {
            exact = Some(ExactCounts::new(
                &work::snapshot(),
                c.center.engine().tuples_processed() - tuples0,
                c.center.engine().batches_processed() - batches0,
            ));
        }
        day += 1;
    }
    let work_total = work::snapshot();
    let tuples = c.center.engine().tuples_processed() - tuples0;
    let batches = c.center.engine().batches_processed() - batches0;
    if !c.center.engine().quarantine_events().is_empty() {
        problems.push("a CQ was quarantined".into());
    }
    problems.extend(self_test(&book, &last_record, cap));
    if tr.enabled() {
        if let Some(first) = &exact {
            let replica = replay_prefix(args.seed, cap);
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
        latency_ms,
        slice_rates,
        problems,
        layers,
        winners,
        operators,
        exact,
        tuples,
        batches,
        work: work_total,
        from_rows_ns,
    }
}

/// The paper's naive movement window must price a small day exactly like
/// the snapshot form the center runs.
fn naive_check(subs: &[Submission], calib: &[(String, Tuple)], cap: Load) -> Option<String> {
    let small = &subs[..NAIVE_SUBMISSIONS];
    let cap = Load::from_units(cap.as_f64() * NAIVE_SUBMISSIONS as f64 / SUBMISSIONS as f64);
    let rebuilt =
        pipeline::decomposed_auction(&mut Tracer::new(false), 0, SHAPE, small, calib, cap);
    pipeline::check_naive(&rebuilt.inst)
}

/// The checker must reject a day whose payment was altered.
fn self_test(book: &Book, record: &DayRecord, cap: Load) -> Option<String> {
    let subs = book.submissions();
    let calib = calibration(book, u64::from(record.day));
    let mut corrupted = record.clone();
    let decision = corrupted
        .decisions
        .iter_mut()
        .find(|d| d.admitted && !d.payment.is_zero())?;
    decision.payment = decision.payment.saturating_sub(Money::from_micro(1));
    let rebuilt =
        pipeline::decomposed_auction(&mut Tracer::new(false), 0, SHAPE, &subs, &calib, cap);
    pipeline::check_day(&subs, &corrupted, &rebuilt)
        .is_empty()
        .then(|| "self-test: an altered payment passed the check".to_string())
}

/// Runs set-up and the first days again on a fresh center.
fn replay_prefix(seed: u64, cap: Load) -> ExactCounts {
    let mut book = Book::new(seed);
    let (mut c, _) = setup(&book, cap);
    serve_slice(
        &mut c,
        &book,
        0,
        &mut Tracer::new(false),
        &mut Serving::default(),
    );
    let tuples0 = c.center.engine().tuples_processed();
    let batches0 = c.center.engine().batches_processed();
    work::reset();
    let mut tr = Tracer::new(false);
    let mut layers = Serving::default();
    for day in 1..=EXACT_DAYS {
        day_step(&mut c, &mut book, day, cap, &mut tr, None, &mut layers);
    }
    ExactCounts::new(
        &work::snapshot(),
        c.center.engine().tuples_processed() - tuples0,
        c.center.engine().batches_processed() - batches0,
    )
}

fn e2e(pass: &Pass) -> Metrics {
    let mut m = Metrics::default();
    m.put("setup_s", pass.setup_s, "s");
    m.put("latency_p50_ms", median(&pass.latency_ms), "ms");
    m.put("latency_p90_ms", quantile(&pass.latency_ms, 0.9), "ms");
    m.put("latency_samples", pass.latency_ms.len() as f64, "count");
    m.put("rows_per_s", median(&pass.slice_rates), "1/s");
    m.put("admitted_per_day", median(&pass.winners), "count");
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
        attempted: plain.latency_ms.len() as u64,
        problems: plain.problems.clone(),
        e2e: e2e(&plain),
        ..Report::default()
    };
    if !args.trace {
        return report;
    }
    let mut tr = Tracer::new(true);
    let traced = run_pass(args, seconds, &mut tr);
    report.attempted += traced.latency_ms.len() as u64;
    report.problems.extend(traced.problems.iter().cloned());
    let traced_e2e = e2e(&traced);

    let m = &mut report.layers;
    let days = traced.latency_ms.len().max(1) as f64;
    m.put("loadgen.late_p90_ms", 0.0, "ms");
    m.put("loadgen.backlog_ticks_max", 0.0, "count");
    m.put(
        "e2e.latency_p99_ms",
        quantile(&traced.latency_ms, 0.99),
        "ms",
    );
    let mut counts = Metrics::default();
    counts.put("mechanisms.winners", median(&traced.winners), "count");
    counts.put("cost.operators", median(&traced.operators), "count");
    pipeline::day_layers(&tr, &counts, m);
    let l = &traced.layers;
    m.put("types.from_rows_ns_per_row", traced.from_rows_ns, "ns");
    m.put("engine.push_self_ms", l.push_self_ms / days, "ms");
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
    m.put("center.take_outputs_ms", l.take_ms / days, "ms");
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
