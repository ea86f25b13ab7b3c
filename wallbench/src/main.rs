//! Wall-clock benchmark of the Mahi-Mahi node.
//!
//! ```text
//! wallbench --workload <tcp-steady|tcp-overload|sim-wan-crash> --seed <n>
//!           --seconds <s> --trace <0|1>
//! wallbench --curve --seed <n> --seconds <s>
//! ```
//!
//! A run checks the program's outputs and prints its figures as text, then
//! one JSON line: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run also records spans, scrapes the nodes' `/metrics`, replays its
//! captured blocks through every layer, and reports the per-layer ones.
//! `--curve` sweeps the TCP cluster over offered rates (no gates) so the
//! saturation knee shows. See README.md for why each workload exists.

mod capture;
mod ledger;
mod replay;
mod scrape;
mod sim;
mod stats;
mod tcp;
mod trace;
mod wire;

use capture::CommitSource;
use replay::ReplayInput;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::{peak_rss_mb, write_spans, Span, Tracer};

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("commit_p50_s", "s"),
    ("commit_p99_s", "s"),
    ("committed_tps", "tx/s"),
    ("delivered_frac", "fraction"),
    ("peak_rss_mb", "MB"),
    ("cpu_us_per_tx", "us"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// does not exercise reads 0 (see README.md).
const PER_LAYER: [(&str, &str); 35] = [
    ("types.block_encode_us", "us"),
    ("types.block_decode_us", "us"),
    ("types.wire_bytes_per_tx", "B"),
    ("crypto.block_verify_us", "us"),
    ("crypto.batch_verify_us_per_sig", "us"),
    ("crypto.tx_digest_us", "us"),
    ("core.admission_fps", "frames/s"),
    ("dag.insert_us", "us"),
    ("core.try_commit_us", "us"),
    ("core.skip_frac", "fraction"),
    ("core.exec_apply_us", "us"),
    ("core.exec_root_us", "us"),
    ("core.exec_apply_growth", "ratio"),
    ("core.exec_accounts", "count"),
    ("core.mempool_submit_us", "us"),
    ("core.mempool_payload_us", "us"),
    ("wal.append_us", "us"),
    ("wal.sync_ms", "ms"),
    ("transport.send_us", "us"),
    ("node.verified_p99_s", "s"),
    ("node.sequenced_p50_s", "s"),
    ("node.sequenced_p99_s", "s"),
    ("node.verify_peak_depth", "count"),
    ("node.mempool_peak_txs", "count"),
    ("node.rounds_per_s", "1/s"),
    ("client.admission_rtt_p50_s", "s"),
    ("client.admission_rtt_p99_s", "s"),
    ("client.gen_late_p99_ms", "ms"),
    ("client.full_frac", "fraction"),
    ("client.rate_limited_frac", "fraction"),
    ("client.duplicate_frac", "fraction"),
    ("client.no_commit_frac", "fraction"),
    ("sim.skip_frac", "fraction"),
    ("sim.net_bytes_per_tx", "B"),
    ("sim.rounds", "count"),
];

/// The workloads and their offered load (tx/s; the simulation's is fixed
/// in `sim`).
const WORKLOADS: [(&str, u64); 3] = [
    ("tcp-steady", 3_000),
    ("tcp-overload", 64_000),
    ("sim-wan-crash", 10_000),
];

/// Violations listed before the rest are only counted.
const VIOLATIONS_SHOWN: usize = 20;

/// The offered rates of `--curve`, tx/s.
const CURVE_RATES: [u64; 7] = [1_000, 2_000, 4_000, 8_000, 16_000, 32_000, 64_000];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
    curve: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| {
        argv.iter()
            .position(|arg| arg == name)
            .map(|at| {
                argv.get(at + 1)
                    .cloned()
                    .ok_or(format!("{name} needs a value"))
            })
            .transpose()
    };
    let number = |name: &str| -> Result<Option<u64>, String> {
        value(name)?
            .map(|raw| {
                raw.parse::<u64>()
                    .map_err(|_| format!("{name}: not a number: {raw}"))
            })
            .transpose()
    };
    let curve = argv.iter().any(|arg| arg == "--curve");
    let workload = value("--workload")?.unwrap_or_default();
    if !curve && !WORKLOADS.iter().any(|(name, _)| *name == workload) {
        return Err(format!("unknown or missing --workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: number("--seed")?.unwrap_or(1),
        seconds: number("--seconds")?.unwrap_or(10).max(1),
        traced: number("--trace")?.unwrap_or(0) == 1,
        curve,
    })
}

/// What a run reports: the check verdict, operation counts and metrics.
struct Report {
    violations: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

/// `values` to four decimals, space-separated.
fn figures(values: &[f64]) -> String {
    let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    shown.join(" ")
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("wallbench: {error}");
            std::process::exit(2);
        }
    };
    if args.curve {
        std::process::exit(curve(&args));
    }
    let rate = WORKLOADS
        .iter()
        .find(|(name, _)| *name == args.workload)
        .map_or(0, |&(_, rate)| rate);
    let tracer = Tracer::new(Instant::now());
    let mut spans = Vec::new();
    let report = if args.workload.starts_with("tcp") {
        tcp_workload(&args, rate, &tracer, &mut spans)
    } else {
        sim_workload(&args, &tracer, &mut spans)
    };
    let report = match report {
        Ok(report) => report,
        Err(error) => Report {
            violations: vec![error],
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
        },
    };
    if report.violations.is_empty() {
        record_overhead(&args, &report.metrics);
    }
    if args.traced {
        let path = out_dir().join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match write_spans(&path, &spans) {
            Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
            Err(error) => println!("spans: not written: {error}"),
        }
    }
    std::process::exit(emit(&args, report));
}

/// Prints the figures and the JSON line; returns the exit code.
fn emit(args: &Args, mut report: Report) -> i32 {
    let wanted: &[(&str, &str)] = if args.traced { &PER_LAYER } else { &END_TO_END };
    for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
        if let Some(value) = report.metrics.get(name) {
            if !value.is_finite() {
                report
                    .violations
                    .push(format!("{name} is not finite: {value}"));
            }
        }
    }
    for (name, _) in wanted {
        if !report.metrics.contains_key(name) && report.violations.is_empty() {
            report.violations.push(format!("{name} was not measured"));
        }
    }
    let correct = report.violations.is_empty();
    if correct {
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            if let Some(value) = report.metrics.get(name) {
                println!("  {name:<32} {value:>16.6} {unit}");
            }
        }
        println!("output checks: passed");
    } else {
        println!("output checks: FAILED");
        for violation in report.violations.iter().take(VIOLATIONS_SHOWN) {
            println!("  violation: {violation}");
        }
        if report.violations.len() > VIOLATIONS_SHOWN {
            println!(
                "  ... and {} more",
                report.violations.len() - VIOLATIONS_SHOWN
            );
        }
    }
    let metrics: Vec<String> = if correct {
        wanted
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    report.metrics[name]
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    if correct {
        0
    } else {
        1
    }
}

fn tcp_workload(
    args: &Args,
    rate: u64,
    tracer: &Tracer,
    spans: &mut Vec<Span>,
) -> Result<Report, String> {
    println!(
        "workload {}: {} validators over localhost TCP, {} client connections, open loop at {rate} tx/s \
         of {}-byte txs for {} s, seed {}",
        args.workload,
        tcp::VALIDATORS,
        tcp::CONNECTIONS,
        mahimahi_types::Transaction::BENCHMARK_SIZE,
        args.seconds,
        args.seed
    );
    let run = tcp::run(tcp::TcpPlan {
        rate_tps: rate,
        window: Duration::from_secs(args.seconds),
        seed: args.seed,
        traced: args.traced,
    })?;
    let summary = &run.summary;
    let late_p99_ms = ledger::lateness_p99_ms(&run.batches);
    println!(
        "sent {} txs in {} batches | committed in window {} | delivered {} | refused: full {} \
         rate-limited {} duplicate {} | lost: no commit {} no admission {} | drain {:.1} s",
        summary.sent,
        run.batches.len(),
        summary.committed_in_window,
        summary.delivered,
        summary.full,
        summary.rate_limited,
        summary.duplicate,
        summary.no_commit,
        summary.no_admission,
        run.drain_s
    );
    println!(
        "set-ups (cluster start to the first probe's Committed notice): {}",
        figures(&run.setups)
    );
    let supported = stats::supported_percentile(summary.latency_samples)
        .map_or("none".to_string(), |q| format!("p{}", q * 100.0));
    println!(
        "latency over {} accepted txs (highest supported percentile: {supported}) | unsliced \
         p50 {:.4} s p99 {:.4} s | generator lateness p99 {late_p99_ms:.3} ms",
        summary.latency_samples, summary.run_p50_s, summary.run_p99_s
    );
    for (name, values) in [("p50", &summary.slice_p50_s), ("p99", &summary.slice_p99_s)] {
        println!(
            "{name} over {} slices of {} txs (s): min {:.4} median {:.4} max {:.4}",
            values.len(),
            ledger::SLICE_TXS,
            values.iter().copied().fold(f64::INFINITY, f64::min),
            stats::median(values),
            values.iter().copied().fold(0.0, f64::max),
        );
    }
    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s", run.setup_s);
    metrics.insert("commit_p50_s", summary.p50_s);
    metrics.insert("commit_p99_s", summary.p99_s);
    metrics.insert("committed_tps", summary.committed_tps);
    metrics.insert("delivered_frac", summary.delivered_frac);
    metrics.insert("peak_rss_mb", peak_rss_mb());
    metrics.insert(
        "cpu_us_per_tx",
        run.window_cpu_s * 1e6 / summary.committed_in_window.max(1) as f64,
    );
    let mut violations = run.violations;
    if summary.committed_in_window == 0 {
        violations.push("nothing committed inside the window".into());
    }
    if args.traced && violations.is_empty() {
        spans.extend(run.spans.iter().cloned());
        let admission_s: Vec<(f64, u64)> = run
            .spans
            .iter()
            .filter(|span| span.name == "client.admission")
            .map(|span| (span.duration_s(), 1))
            .collect();
        metrics.insert(
            "client.admission_rtt_p50_s",
            stats::weighted_quantile(&admission_s, 0.5).unwrap_or(0.0),
        );
        metrics.insert(
            "client.admission_rtt_p99_s",
            stats::weighted_quantile(&admission_s, 0.99).unwrap_or(0.0),
        );
        metrics.insert("client.gen_late_p99_ms", late_p99_ms);
        metrics.insert("client.full_frac", summary.share(summary.full));
        metrics.insert(
            "client.rate_limited_frac",
            summary.share(summary.rate_limited),
        );
        metrics.insert("client.duplicate_frac", summary.share(summary.duplicate));
        metrics.insert("client.no_commit_frac", summary.share(summary.no_commit));
        if let Some((first, last)) = &run.scrapes {
            let elapsed = (last.at - first.at).as_secs_f64();
            metrics.insert(
                "node.verified_p99_s",
                last.quantile("mahimahi_stage_verified_seconds", 0.99),
            );
            metrics.insert(
                "node.sequenced_p50_s",
                last.quantile("mahimahi_stage_sequenced_seconds", 0.5),
            );
            metrics.insert(
                "node.sequenced_p99_s",
                last.quantile("mahimahi_stage_sequenced_seconds", 0.99),
            );
            metrics.insert(
                "node.verify_peak_depth",
                last.max("mahimahi_verify_peak_depth"),
            );
            metrics.insert(
                "node.mempool_peak_txs",
                last.max("mahimahi_mempool_peak_occupancy"),
            );
            metrics.insert(
                "node.rounds_per_s",
                (last.mean("mahimahi_round") - first.mean("mahimahi_round")) / elapsed.max(1e-9),
            );
        }
        for name in ["sim.skip_frac", "sim.net_bytes_per_tx", "sim.rounds"] {
            metrics.insert(name, 0.0);
        }
        let capture = run.capture.ok_or("traced run captured nothing")?;
        let committee_seed = tcp::workload_committee_seed(args.seed);
        let input = ReplayInput {
            setup: mahimahi_types::TestCommittee::new(tcp::VALIDATORS, committee_seed),
            options: mahimahi_core::CommitterOptions::default(),
            dag: capture.prefix,
            rounds: capture.rounds,
            commits: CommitSource::Ids {
                setup: mahimahi_types::TestCommittee::new(tcp::VALIDATORS, committee_seed),
                payloads: wire::Payloads::new(args.seed),
                commits: capture.commits,
            },
            wire_bytes: capture.wire_bytes,
            wire_txs: capture.wire_txs,
        };
        match replay_layers(&input, tracer, spans) {
            Ok(layers) => metrics.extend(layers),
            Err(error) => violations.push(error),
        }
    }
    Ok(Report {
        violations,
        attempted: summary.sent,
        failed: summary.failed(),
        metrics,
    })
}

fn sim_workload(args: &Args, tracer: &Tracer, spans: &mut Vec<Span>) -> Result<Report, String> {
    println!(
        "workload {}: simulated n={} with {} crashed, aws_wan latency, MM-5 with 2 leaders, \
         ~10k tx/s offered, {} repetitions, seed {}",
        args.workload,
        sim::NODES,
        sim::CRASHED,
        sim::repetitions(args.seconds),
        args.seed
    );
    let run = sim::run(args.seed, args.seconds, args.traced, tracer);
    println!(
        "wall per repetition median {:.3} s | committed {} of {} offered",
        stats::median(&run.wall_s),
        run.committed,
        run.offered
    );
    println!("per-repetition p99 s: {}", figures(&run.rep_p99_s));
    println!("per-repetition wall s: {}", figures(&run.wall_s));
    println!(
        "per-repetition CPU us per committed tx: {}",
        figures(&run.rep_cpu_us_per_tx)
    );
    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s", run.setup_s);
    metrics.insert("commit_p50_s", run.p50_s);
    metrics.insert("commit_p99_s", run.p99_s);
    metrics.insert("committed_tps", run.committed_tps);
    metrics.insert(
        "delivered_frac",
        run.committed as f64 / run.offered.max(1) as f64,
    );
    metrics.insert("peak_rss_mb", peak_rss_mb());
    metrics.insert("cpu_us_per_tx", stats::median(&run.rep_cpu_us_per_tx));
    let mut violations = run.violations;
    if args.traced && violations.is_empty() {
        spans.extend(run.spans.iter().cloned());
        metrics.extend(run.layers.iter().copied());
        // Not modeled by the simulator: no verify queue, no client
        // connections, no generator clock.
        for name in [
            "node.verify_peak_depth",
            "client.admission_rtt_p50_s",
            "client.admission_rtt_p99_s",
            "client.gen_late_p99_ms",
            "client.full_frac",
            "client.rate_limited_frac",
            "client.duplicate_frac",
            "client.no_commit_frac",
        ] {
            metrics.insert(name, 0.0);
        }
        let input = run
            .replay
            .as_ref()
            .ok_or("traced run built no replay input")?;
        match replay_layers(input, tracer, spans) {
            Ok(layers) => metrics.extend(layers),
            Err(error) => violations.push(error),
        }
    }
    Ok(Report {
        violations,
        attempted: run.offered,
        failed: 0,
        metrics,
    })
}

/// The per-layer replay, with its WAL in a directory of its own under
/// `out/` that is removed afterwards.
fn replay_layers(
    input: &ReplayInput,
    tracer: &Tracer,
    spans: &mut Vec<Span>,
) -> Result<Vec<(&'static str, f64)>, String> {
    let dir = out_dir().join(format!("replay-{}", std::process::id()));
    let replayed = replay::replay(input, tracer, spans, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    replayed
}

/// Untraced runs record their end-to-end figures; traced runs print the
/// difference to the last untraced run of the same workload — the
/// tracing overhead.
fn record_overhead(args: &Args, metrics: &BTreeMap<&'static str, f64>) {
    let path = out_dir().join(format!("e2e-{}.txt", args.workload));
    if !args.traced {
        let lines: Vec<String> = metrics.iter().map(|(k, v)| format!("{k} {v}")).collect();
        let _ = std::fs::create_dir_all(out_dir());
        let _ = std::fs::write(&path, lines.join("\n"));
        return;
    }
    let Ok(previous) = std::fs::read_to_string(&path) else {
        println!(
            "tracing overhead: no untraced run of {} recorded yet",
            args.workload
        );
        return;
    };
    println!(
        "tracing overhead (traced minus last untraced run of {}):",
        args.workload
    );
    for line in previous.lines() {
        let Some((name, value)) = line.split_once(' ') else {
            continue;
        };
        if let (Ok(untraced), Some(traced)) = (value.parse::<f64>(), metrics.get(name)) {
            println!(
                "  {name:<32} {:>+16.6} ({untraced:.6} → {traced:.6})",
                traced - untraced
            );
        }
    }
}

/// `--curve`: the TCP cluster over a ladder of offered rates.
fn curve(args: &Args) -> i32 {
    println!("offered_tps committed_tps commit_p50_s commit_p99_s delivered_frac refused_full gen_late_p99_ms");
    let mut failures = 0;
    for rate in CURVE_RATES {
        let plan = tcp::TcpPlan {
            rate_tps: rate,
            window: Duration::from_secs(args.seconds),
            seed: args.seed,
            traced: false,
        };
        match tcp::run(plan) {
            Ok(run) => {
                let s = &run.summary;
                println!(
                    "{rate} {:.1} {:.4} {:.4} {:.4} {} {:.3}{}",
                    s.committed_tps,
                    s.p50_s,
                    s.p99_s,
                    s.delivered_frac,
                    s.full,
                    ledger::lateness_p99_ms(&run.batches),
                    if run.violations.is_empty() {
                        ""
                    } else {
                        "  (output checks FAILED)"
                    }
                );
                failures += usize::from(!run.violations.is_empty());
            }
            Err(error) => {
                println!("{rate} error: {error}");
                failures += 1;
            }
        }
    }
    i32::from(failures > 0)
}
