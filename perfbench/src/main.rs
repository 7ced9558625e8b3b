//! The DSMS center's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_ticks --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Three workloads drive the center through public APIs only:
//!
//! * `serve_ticks` — open loop, one shard: 10 ms ticks of quotes and news
//!   through `DsmsCenter::process` on a 64-CQ admitted network, outputs
//!   taken every tick, over a fixed ladder of offered rates. Ticks stay far
//!   below the engine's 1024-row batch cap, so this loads the node loop,
//!   kernels, aggregate absorb, the join and egress, and bypasses the
//!   oversize-batch split, the worker pool and the mechanisms.
//! * `replay_bulk` — closed loop, two shards keyed on `symbol`: each call
//!   pushes one stream's whole period backlog (Zipf-skewed symbols, up to
//!   200k rows, far above the cap) and drains outputs, modelling catch-up
//!   after an outage. This loads ingest conversion, the oversize split,
//!   partitioning, morsels and stealing, grouped partials and the merge.
//! * `auction_days` — closed loop, one shard: consecutive CAT+ auction days
//!   over 2000 submissions with daily churn and a short serving slice in
//!   between, so network mutation (writes) dominates instead of reads.
//!
//! Every run checks its outputs (against a plain-loop reference, a 1-shard
//! replay, or the auction rebuilt from its public functions), exits non-zero
//! on any mismatch, and prints one JSON object as its last stdout line: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A traced run also writes its spans and exact counts under
//! `perfbench/out/`.

mod auction;
mod data;
mod layers;
mod pipeline;
mod replay;
mod serve;
mod trace;

use trace::Metrics;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// End-to-end metrics, measured with tracing off.
    pub e2e: Metrics,
    /// Per-layer metrics of the traced pass.
    pub layers: Metrics,
    /// Counts that must repeat exactly for a fixed seed (traced runs).
    pub exact: Option<layers::ExactCounts>,
}

const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("rows_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric, in report order. A layer a workload does not
/// run reads 0 (for example `loadgen.*` on the closed-loop workloads).
fn per_layer() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("loadgen.late_p90_ms", "ms"),
        ("loadgen.backlog_ticks_max", "count"),
        ("e2e.latency_p99_ms", "ms"),
        ("mechanisms.priority_order_ms", "ms"),
        ("mechanisms.fill_ms", "ms"),
        ("mechanisms.payments_ms", "ms"),
        ("mechanisms.winners", "count"),
        ("cost.operators", "count"),
        ("network.verify_plan_ms", "ms"),
        ("network.add_query_ms", "ms"),
        ("network.remove_query_ms", "ms"),
        ("center.calibrate_ms", "ms"),
        ("cost.auction_instance_ms", "ms"),
        ("center.transition_ms", "ms"),
        ("types.from_rows_ns_per_row", "ns"),
        ("engine.push_self_ms", "ms"),
        ("engine.push_self_ns_per_row_small", "ns"),
        ("engine.push_self_ns_per_row_large", "ns"),
        ("engine.rows_per_batch", "count"),
        ("engine.shard_rows_skew", "ratio"),
        ("engine.shard_busy_ms", "ms"),
        ("engine.tuples_processed", "count"),
        ("engine.batches_processed", "count"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for kind in cqac_dsms::ops::OPERATOR_KINDS {
        names.push((format!("ops.{kind}.busy_ms"), "ms"));
        names.push((format!("ops.{kind}.rows_in"), "count"));
        names.push((format!("ops.{kind}.selectivity"), "ratio"));
    }
    names.push(("center.take_outputs_ms".into(), "ms"));
    names.push(("egress.rows_per_input_row".into(), "ratio"));
    for (field, _, _) in layers::work_fields(&Default::default()) {
        names.push((format!("work.{field}"), "count"));
    }
    for (n, u) in [
        ("trace.spans", "count"),
        ("trace.latency_p50_ms_untraced", "ms"),
        ("trace.latency_p50_ms_traced", "ms"),
        ("trace.overhead_ratio", "ratio"),
    ] {
        names.push((n.into(), u));
    }
    names
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload serve_ticks|replay_bulk|auction_days --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let mut report = match args.workload.as_str() {
        "serve_ticks" => serve::run(&args),
        "replay_bulk" => replay::run(&args),
        "auction_days" => auction::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    report.e2e.put("peak_rss_mb", trace::peak_rss_mb(), "MiB");
    // A mismatch found by an output check is a failed operation too.
    report.failed = (report.failed + report.problems.len() as u64).min(report.attempted.max(1));

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("end-to-end:");
    report.e2e.print_table();
    if args.trace {
        println!("per-layer:");
        report.layers.print_table();
    }
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "operations attempted {} failed {} (failed_frac {failed_frac})",
        report.attempted, report.failed
    );
    for p in &report.problems {
        println!("CHECK FAILED: {p}");
    }
    if let Some(exact) = &report.exact {
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/exact_{}_seed{}.json",
            args.workload, args.seed
        ));
        if let Err(e) = std::fs::create_dir_all("perfbench/out")
            .and_then(|()| std::fs::write(&path, exact.to_json()))
        {
            report
                .problems
                .push(format!("writing {}: {e}", path.display()));
        }
    }
    let correct = report.problems.is_empty();
    let metrics = if args.trace {
        let names = per_layer();
        let names: Vec<(&str, &'static str)> =
            names.iter().map(|(n, u)| (n.as_str(), *u)).collect();
        report.layers.select(&names)
    } else {
        report.e2e.select(&END_TO_END)
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted.max(1),
        report.failed,
        metrics.to_json()
    );
    if !correct {
        std::process::exit(1);
    }
}
