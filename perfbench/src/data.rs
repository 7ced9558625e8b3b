//! Seeded inputs (quote and news rows, CQ templates, bids) and the
//! reference: every template evaluated with plain loops over the generated
//! rows, so the engine's outputs can be checked without the engine.

use cqac_dsms::expr::{ArithOp, Expr};
use cqac_dsms::plan::{AggFunc, LogicalPlan};
use cqac_dsms::streams::NEWS_CATEGORIES;
use cqac_dsms::types::{Tuple, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Number of ticker symbols (`S00`..`S63`).
pub const SYMBOLS: usize = 64;
/// Price thresholds the filter templates choose from.
pub const THRESHOLDS: [f64; 9] = [60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0, 130.0, 140.0];

/// Seeds an RNG for one named purpose, so inputs of different parts of a
/// run never share a stream.
pub fn rng(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ purpose)
}

#[derive(Clone, Copy, Debug)]
pub struct Quote {
    pub ts: u64,
    pub sym: u16,
    pub price: f64,
    pub volume: i64,
}

#[derive(Clone, Copy, Debug)]
pub struct News {
    pub ts: u64,
    pub sym: u16,
    pub cat: u8,
    pub relevance: i64,
}

/// Interned symbol and category strings shared by every generated tuple.
pub struct Universe {
    pub syms: Vec<Arc<str>>,
    pub cats: Vec<Arc<str>>,
}

impl Universe {
    pub fn new() -> Self {
        Self {
            syms: (0..SYMBOLS)
                .map(|i| Arc::from(format!("S{i:02}")))
                .collect(),
            cats: NEWS_CATEGORIES.iter().map(|c| Arc::from(*c)).collect(),
        }
    }

    pub fn quote_tuple(&self, q: &Quote) -> Tuple {
        Tuple::new(
            q.ts,
            vec![
                Value::Str(self.syms[q.sym as usize].clone()),
                Value::Float(q.price),
                Value::Int(q.volume),
            ],
        )
    }

    pub fn news_tuple(&self, n: &News) -> Tuple {
        Tuple::new(
            n.ts,
            vec![
                Value::Str(self.syms[n.sym as usize].clone()),
                Value::Str(self.cats[n.cat as usize].clone()),
                Value::Int(n.relevance),
            ],
        )
    }

    pub fn quote_tuples(&self, rows: &[Quote]) -> Vec<Tuple> {
        rows.iter().map(|q| self.quote_tuple(q)).collect()
    }

    pub fn news_tuples(&self, rows: &[News]) -> Vec<Tuple> {
        rows.iter().map(|n| self.news_tuple(n)).collect()
    }
}

/// A quote with a uniform price in [50, 150) at cent precision.
pub fn quote(rng: &mut StdRng, ts: u64, sym: u16) -> Quote {
    Quote {
        ts,
        sym,
        price: f64::from(rng.random_range(5_000u32..15_000)) / 100.0,
        volume: rng.random_range(1i64..10_000),
    }
}

pub fn news(rng: &mut StdRng, ts: u64, sym: u16) -> News {
    News {
        ts,
        sym,
        cat: rng.random_range(0..NEWS_CATEGORIES.len()) as u8,
        relevance: rng.random_range(0i64..100),
    }
}

/// An aggregate template's function and the column it reads.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Agg {
    Count,
    SumVolume,
    AvgPrice,
    MaxPrice,
}

impl Agg {
    pub const ALL: [Agg; 4] = [Agg::Count, Agg::SumVolume, Agg::AvgPrice, Agg::MaxPrice];

    fn func_column(self) -> (AggFunc, usize) {
        match self {
            Agg::Count => (AggFunc::Count, 0),
            Agg::SumVolume => (AggFunc::Sum, 2),
            Agg::AvgPrice => (AggFunc::Avg, 1),
            Agg::MaxPrice => (AggFunc::Max, 1),
        }
    }
}

/// The stock-monitoring CQ templates.
#[derive(Clone, Debug, PartialEq)]
pub enum Template {
    /// Quotes priced above a threshold (the shared hot filter).
    PriceAbove { th: f64 },
    /// One symbol's quotes above a threshold.
    Watch { th: f64, sym: u16 },
    /// News stories of one category.
    NewsCat { cat: u8 },
    /// Quotes above a threshold joined with one news category on symbol.
    Join { th: f64, cat: u8, window: u64 },
    /// Per-symbol tumbling aggregate over quotes above a threshold.
    Tumble { th: f64, agg: Agg, window: u64 },
    /// Per-symbol sliding aggregate over quotes above a threshold.
    Slide {
        th: f64,
        agg: Agg,
        window: u64,
        slide: u64,
    },
    /// `(symbol, price × volume)` of quotes above a threshold.
    Notional { th: f64 },
    /// Quotes below `lo` united with quotes above `hi`.
    Extremes { lo: f64, hi: f64 },
}

fn price_above(th: f64) -> LogicalPlan {
    LogicalPlan::source("quotes").filter(Expr::col(1).gt(Expr::lit(Value::Float(th))))
}

fn news_cat(cat: u8) -> LogicalPlan {
    LogicalPlan::source("news")
        .filter(Expr::col(1).eq(Expr::lit(Value::str(NEWS_CATEGORIES[cat as usize]))))
}

impl Template {
    pub fn plan(&self, u: &Universe) -> LogicalPlan {
        match *self {
            Template::PriceAbove { th } => price_above(th),
            Template::Watch { th, sym } => price_above(th)
                .filter(Expr::col(0).eq(Expr::lit(Value::Str(u.syms[sym as usize].clone())))),
            Template::NewsCat { cat } => news_cat(cat),
            Template::Join { th, cat, window } => price_above(th).join(news_cat(cat), 0, 0, window),
            Template::Tumble { th, agg, window } => {
                let (func, col) = agg.func_column();
                price_above(th).aggregate(Some(0), func, col, window)
            }
            Template::Slide {
                th,
                agg,
                window,
                slide,
            } => {
                let (func, col) = agg.func_column();
                price_above(th).sliding_aggregate(Some(0), func, col, window, slide)
            }
            Template::Notional { th } => price_above(th).project(vec![
                ("symbol".to_string(), Expr::col(0)),
                (
                    "notional".to_string(),
                    Expr::Arith(ArithOp::Mul, Box::new(Expr::col(1)), Box::new(Expr::col(2))),
                ),
            ]),
            Template::Extremes { lo, hi } => LogicalPlan::source("quotes")
                .filter(Expr::col(1).lt(Expr::lit(Value::Float(lo))))
                .union(price_above(hi)),
        }
    }
}

/// A fixed serving network of `n` CQs, the same for every seed: seeds vary
/// the rows and bids, not the work per row, so run-to-run spread reflects
/// the center rather than a different network.
pub fn serving_templates(
    n: usize,
    join_window: u64,
    agg_windows: (u64, u64, u64),
) -> Vec<Template> {
    let (tumble, slide_window, slide) = agg_windows;
    let mut out = Vec::with_capacity(n);
    let mut i = 0usize;
    while out.len() < n {
        let th = THRESHOLDS[i % THRESHOLDS.len()];
        let sym = ((i * 7) % SYMBOLS) as u16;
        let cat = (i / 16 % NEWS_CATEGORIES.len()) as u8;
        let agg = Agg::ALL[(i / 5) % Agg::ALL.len()];
        // One slot cycle of 16: 2 filters, 5 watchers, 2 news filters,
        // 1 join, 2 tumbling, 2 sliding, 1 projection, 1 union.
        out.push(match i % 16 {
            0 | 8 => Template::PriceAbove { th },
            1 | 4 | 7 | 10 | 13 => Template::Watch { th: 100.0, sym },
            2 | 11 => Template::NewsCat { cat },
            3 => Template::Join {
                th: 120.0,
                cat,
                window: join_window,
            },
            5 | 12 => Template::Tumble {
                th: 80.0,
                agg,
                window: tumble,
            },
            6 | 14 => Template::Slide {
                th: 80.0,
                agg,
                window: slide_window,
                slide,
            },
            9 => Template::Notional { th: 130.0 },
            _ => Template::Extremes {
                lo: 55.0,
                hi: 145.0,
            },
        });
        i += 1;
    }
    out
}

/// An order-insensitive digest of a multiset of output rows.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    pub sum: u64,
}

impl Digest {
    fn add(&mut self, h: u64) {
        self.rows += 1;
        self.sum = self.sum.wrapping_add(h);
    }

    pub fn add_tuples(&mut self, rows: &[Tuple]) {
        for t in rows {
            self.add(tuple_hash(t));
        }
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Row hash over `(ts, values...)`; the reference feeds the same sequence.
struct RowHash(u64);

impl RowHash {
    fn new(ts: u64) -> Self {
        Self(mix(ts ^ 0x5151))
    }
    fn push(&mut self, v: u64) {
        self.0 = mix(self.0.rotate_left(17) ^ v);
    }
    fn int(&mut self, v: i64) {
        self.push(mix(v as u64 ^ 0x1111));
    }
    fn float(&mut self, v: f64) {
        self.push(mix(v.to_bits() ^ 0x2222));
    }
    fn str(&mut self, s: &str) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in s.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self.push(mix(h ^ 0x3333));
    }
    fn quote(&mut self, u: &Universe, q: &Quote) {
        self.str(&u.syms[q.sym as usize]);
        self.float(q.price);
        self.int(q.volume);
    }
    fn news(&mut self, u: &Universe, n: &News) {
        self.str(&u.syms[n.sym as usize]);
        self.str(&u.cats[n.cat as usize]);
        self.int(n.relevance);
    }
}

pub fn tuple_hash(t: &Tuple) -> u64 {
    let mut h = RowHash::new(t.ts);
    for v in &t.values {
        match v {
            Value::Bool(b) => h.push(mix(u64::from(*b) ^ 0x4444)),
            Value::Int(i) => h.int(*i),
            Value::Float(f) => h.float(*f),
            Value::Str(s) => h.str(s),
        }
    }
    h.0
}

#[derive(Clone, Copy, Default)]
struct Acc {
    count: u64,
    isum: i128,
    fsum: f64,
    fmax: f64,
}

enum State {
    Stateless,
    Join {
        left: HashMap<u16, VecDeque<Quote>>,
        right: HashMap<u16, VecDeque<News>>,
    },
    Agg {
        open: HashMap<(u64, u16), Acc>,
    },
}

/// One CQ evaluated with plain loops: the engine's documented semantics
/// (strict `>`/`<` filters, `|Δts| ≤ window` joins evicting below
/// `watermark − window` after each call, slide-aligned windows closing once
/// `start + window ≤ watermark`) applied row by row.
pub struct RefCq {
    template: Template,
    state: State,
    pub digest: Digest,
}

impl RefCq {
    pub fn new(template: Template) -> Self {
        let state = match template {
            Template::Join { .. } => State::Join {
                left: HashMap::new(),
                right: HashMap::new(),
            },
            Template::Tumble { .. } | Template::Slide { .. } => State::Agg {
                open: HashMap::new(),
            },
            _ => State::Stateless,
        };
        Self {
            template,
            state,
            digest: Digest::default(),
        }
    }

    pub fn on_quotes(&mut self, u: &Universe, rows: &[Quote]) {
        let digest = &mut self.digest;
        match (&self.template, &mut self.state) {
            (Template::PriceAbove { th }, _) => {
                for q in rows.iter().filter(|q| q.price > *th) {
                    let mut h = RowHash::new(q.ts);
                    h.quote(u, q);
                    digest.add(h.0);
                }
            }
            (Template::Watch { th, sym }, _) => {
                for q in rows.iter().filter(|q| q.price > *th && q.sym == *sym) {
                    let mut h = RowHash::new(q.ts);
                    h.quote(u, q);
                    digest.add(h.0);
                }
            }
            (Template::Notional { th }, _) => {
                for q in rows.iter().filter(|q| q.price > *th) {
                    let mut h = RowHash::new(q.ts);
                    h.str(&u.syms[q.sym as usize]);
                    h.float(q.price * q.volume as f64);
                    digest.add(h.0);
                }
            }
            (Template::Extremes { lo, hi }, _) => {
                for q in rows.iter().filter(|q| q.price < *lo || q.price > *hi) {
                    let mut h = RowHash::new(q.ts);
                    h.quote(u, q);
                    digest.add(h.0);
                }
            }
            (Template::Join { th, window, .. }, State::Join { left, right }) => {
                for q in rows.iter().filter(|q| q.price > *th) {
                    if let Some(partners) = right.get(&q.sym) {
                        for n in partners.iter().filter(|n| n.ts.abs_diff(q.ts) <= *window) {
                            digest.add(join_hash(u, q, n));
                        }
                    }
                    left.entry(q.sym).or_default().push_back(*q);
                }
            }
            (Template::Tumble { th, agg, window }, State::Agg { open }) => {
                absorb(open, rows, *th, *agg, *window, *window)
            }
            (
                Template::Slide {
                    th,
                    agg,
                    window,
                    slide,
                },
                State::Agg { open },
            ) => absorb(open, rows, *th, *agg, *window, *slide),
            _ => {}
        }
    }

    pub fn on_news(&mut self, u: &Universe, rows: &[News]) {
        let digest = &mut self.digest;
        match (&self.template, &mut self.state) {
            (Template::NewsCat { cat }, _) => {
                for n in rows.iter().filter(|n| n.cat == *cat) {
                    let mut h = RowHash::new(n.ts);
                    h.news(u, n);
                    digest.add(h.0);
                }
            }
            (Template::Join { cat, window, .. }, State::Join { left, right }) => {
                for n in rows.iter().filter(|n| n.cat == *cat) {
                    if let Some(partners) = left.get(&n.sym) {
                        for q in partners.iter().filter(|q| q.ts.abs_diff(n.ts) <= *window) {
                            digest.add(join_hash(u, q, n));
                        }
                    }
                    right.entry(n.sym).or_default().push_back(*n);
                }
            }
            _ => {}
        }
    }

    /// The end of one ingestion call: the engine watermark is `watermark`.
    pub fn on_watermark(&mut self, u: &Universe, watermark: u64) {
        match (&self.template, &mut self.state) {
            (Template::Join { window, .. }, State::Join { left, right }) => {
                let horizon = watermark.saturating_sub(*window);
                for q in left.values_mut() {
                    while q.front().is_some_and(|t| t.ts < horizon) {
                        q.pop_front();
                    }
                }
                for q in right.values_mut() {
                    while q.front().is_some_and(|t| t.ts < horizon) {
                        q.pop_front();
                    }
                }
            }
            (
                Template::Tumble { agg, window, .. } | Template::Slide { agg, window, .. },
                State::Agg { open },
            ) => close_windows(u, open, *agg, *window, watermark, &mut self.digest),
            _ => {}
        }
    }

    /// Force-closes every open window, like `DsmsEngine::finish`.
    pub fn finish(&mut self, u: &Universe) {
        self.on_watermark(u, u64::MAX);
    }
}

fn join_hash(u: &Universe, q: &Quote, n: &News) -> u64 {
    let mut h = RowHash::new(q.ts.max(n.ts));
    h.quote(u, q);
    h.news(u, n);
    h.0
}

fn absorb(
    open: &mut HashMap<(u64, u16), Acc>,
    rows: &[Quote],
    th: f64,
    agg: Agg,
    window: u64,
    slide: u64,
) {
    for q in rows.iter().filter(|q| q.price > th) {
        let mut start = q.ts - q.ts % slide;
        loop {
            let acc = open.entry((start, q.sym)).or_default();
            if acc.count == 0 {
                acc.fmax = q.price;
            }
            acc.count += 1;
            match agg {
                Agg::Count => {}
                Agg::SumVolume => acc.isum += i128::from(q.volume),
                Agg::AvgPrice => acc.fsum += q.price,
                Agg::MaxPrice => acc.fmax = acc.fmax.max(q.price),
            }
            match start.checked_sub(slide) {
                Some(prev) if prev + window > q.ts => start = prev,
                _ => break,
            }
        }
    }
}

fn close_windows(
    u: &Universe,
    open: &mut HashMap<(u64, u16), Acc>,
    agg: Agg,
    window: u64,
    watermark: u64,
    digest: &mut Digest,
) {
    open.retain(|&(start, sym), acc| {
        if start.saturating_add(window) > watermark {
            return true;
        }
        let end = start + window;
        let mut h = RowHash::new(end);
        h.int(end as i64);
        h.str(&u.syms[sym as usize]);
        match agg {
            Agg::Count => h.int(acc.count as i64),
            Agg::SumVolume => h.int(i64::try_from(acc.isum).unwrap_or(i64::MAX)),
            Agg::AvgPrice => h.float(acc.fsum / acc.count as f64),
            Agg::MaxPrice => h.float(acc.fmax),
        }
        digest.add(h.0);
        false
    });
}

/// The reference for a whole network: every CQ plus the global watermark.
pub struct Reference {
    pub cqs: Vec<RefCq>,
    watermark: u64,
}

impl Reference {
    pub fn new(templates: &[Template]) -> Self {
        Self {
            cqs: templates.iter().cloned().map(RefCq::new).collect(),
            watermark: 0,
        }
    }

    pub fn quotes(&mut self, u: &Universe, rows: &[Quote]) {
        if let Some(max) = rows.iter().map(|q| q.ts).max() {
            self.watermark = self.watermark.max(max);
        }
        for cq in &mut self.cqs {
            cq.on_quotes(u, rows);
            cq.on_watermark(u, self.watermark);
        }
    }

    pub fn news(&mut self, u: &Universe, rows: &[News]) {
        if let Some(max) = rows.iter().map(|n| n.ts).max() {
            self.watermark = self.watermark.max(max);
        }
        for cq in &mut self.cqs {
            cq.on_news(u, rows);
            cq.on_watermark(u, self.watermark);
        }
    }

    pub fn finish(&mut self, u: &Universe) {
        for cq in &mut self.cqs {
            cq.finish(u);
        }
    }
}

/// Checker self-test: dropping one real output row from a CQ whose digest
/// matched must make the check fail. Returns a problem when it does not.
pub fn self_test(
    digests: &[Digest],
    sample_rows: &[Option<u64>],
    reference: &Reference,
) -> Option<String> {
    let (i, row) = sample_rows
        .iter()
        .enumerate()
        .find_map(|(i, r)| r.map(|r| (i, r)))?;
    let mut corrupted = digests[i];
    corrupted.rows -= 1;
    corrupted.sum = corrupted.sum.wrapping_sub(row);
    (corrupted == reference.cqs[i].digest)
        .then(|| format!("self-test: CQ {i} with one output row dropped still passed the check"))
}
