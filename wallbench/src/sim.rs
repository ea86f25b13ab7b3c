//! The `sim-wan-crash` workload: the deterministic `Simulation` with
//! n = 10, the last three validators crashed, `aws_wan()` latency and
//! Mahi-Mahi-5 with two leaders per round, at 10k tx/s offered.
//!
//! One thread, modeled crypto, no codec, sockets or transport. A run
//! simulates a fixed number of repetitions — one per
//! [`WALL_SECONDS_PER_REPETITION`] of the run's `--seconds` — each a fixed
//! virtual duration with its own seed derived from the run's, and reports
//! means over the repetitions (of CPU time, the median). The work is fixed
//! by the arguments, never by the host's speed, so the virtual-time
//! figures of a seed are exact and a change that does not alter the
//! protocol leaves them unchanged.

use crate::capture::CommitSource;
use crate::replay::ReplayInput;
use crate::stats::{mean, median};
use crate::trace::{cpu_seconds, Span, Tracer};
use crate::wire::{splitmix64, tx_id, Payloads};
use mahimahi_core::{CommitDecision, CommitSequencer, Committer, CommitterOptions};
use mahimahi_dag::{BlockSpec, DagBuilder};
use mahimahi_net::time;
use mahimahi_sim::{LatencyChoice, ProtocolChoice, SimConfig, SimOutcome, Simulation};
use mahimahi_telemetry::Stage;
use mahimahi_types::{Block, TestCommittee};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

pub const NODES: usize = 10;
pub const CRASHED: usize = 3;
/// Offered load per honest validator: 7 × 1 429 ≈ 10k tx/s in total.
const RATE_PER_HONEST: u64 = 1_429;
/// Virtual duration of one repetition.
const VIRTUAL_SECONDS: u64 = 10;
/// Seconds of the run's `--seconds` per repetition. One repetition takes
/// 1.5–2.2 s of wall time on a 2-core x86 host, so a run ends inside its
/// `--seconds`.
const WALL_SECONDS_PER_REPETITION: f64 = 2.5;
/// Repetitions run however short the run.
const MIN_REPETITIONS: usize = 3;
/// `Simulation::new` calls timed for `setup_s`.
const SETUP_REPEATS: usize = 101;
/// Shape of the synthetic DAG the per-layer replay works on.
const REPLAY_ROUNDS: u64 = 48;
const REPLAY_TXS_PER_BLOCK: u64 = 200;

fn options() -> CommitterOptions {
    CommitterOptions {
        wave_length: 5,
        leaders_per_round: 2,
    }
}

/// The configuration of repetition `repetition` of a run seeded `seed`.
pub fn config(seed: u64, repetition: usize) -> SimConfig {
    let mut state = seed ^ (repetition as u64).wrapping_mul(0x9e37_79b9);
    SimConfig {
        protocol: ProtocolChoice::MahiMahi5 { leaders: 2 },
        committee_size: NODES,
        duration: time::from_secs(VIRTUAL_SECONDS),
        txs_per_second_per_validator: RATE_PER_HONEST,
        latency: LatencyChoice::aws_wan(),
        seed: splitmix64(&mut state),
        ..SimConfig::default()
    }
    .with_crashed(CRASHED)
}

/// Everything a simulation run measured.
pub struct SimRun {
    pub setup_s: f64,
    /// Each repetition's p99, in order.
    pub rep_p99_s: Vec<f64>,
    pub p50_s: f64,
    pub p99_s: f64,
    pub committed_tps: f64,
    pub committed: u64,
    pub offered: u64,
    /// Process CPU time per committed transaction of each repetition.
    pub rep_cpu_us_per_tx: Vec<f64>,
    pub wall_s: Vec<f64>,
    pub violations: Vec<String>,
    pub layers: Vec<(&'static str, f64)>,
    pub spans: Vec<Span>,
    pub replay: Option<ReplayInput>,
}

/// Repetitions of a run asked to measure for `seconds`.
pub fn repetitions(seconds: u64) -> usize {
    ((seconds as f64 / WALL_SECONDS_PER_REPETITION).round() as usize).max(MIN_REPETITIONS)
}

pub fn run(seed: u64, seconds: u64, traced: bool, tracer: &Tracer) -> SimRun {
    let mut spans = Vec::new();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for repeat in 0..SETUP_REPEATS {
        let started = Instant::now();
        let simulation = Simulation::new(config(seed, repeat));
        setups.push(started.elapsed().as_secs_f64());
        drop(simulation);
    }
    let mut outcomes = Vec::new();
    let mut wall_s = Vec::new();
    let mut rep_cpu_s = Vec::new();
    for repetition in 0..repetitions(seconds) {
        let rep_cpu_start = cpu_seconds();
        let begun = Instant::now();
        let simulation = Simulation::new(config(seed, repetition));
        let built = Instant::now();
        let outcome = simulation.run_full();
        let ended = Instant::now();
        if traced {
            let root = tracer.record(
                &mut spans,
                "sim.repetition",
                repetition as u64,
                0,
                begun,
                ended,
            );
            tracer.record(&mut spans, "sim.new", repetition as u64, root, begun, built);
            tracer.record(&mut spans, "sim.run", repetition as u64, root, built, ended);
        }
        wall_s.push((ended - begun).as_secs_f64());
        rep_cpu_s.push(cpu_seconds() - rep_cpu_start);
        outcomes.push(outcome);
    }
    let violations = outcomes
        .iter()
        .enumerate()
        .flat_map(|(r, o)| check(r, o))
        .collect();
    let reports: Vec<_> = outcomes.iter().map(|outcome| &outcome.report).collect();
    let quantile = |q: f64| {
        mean(
            &reports
                .iter()
                .map(|report| report.latency.snapshot().quantile_s(q))
                .collect::<Vec<_>>(),
        )
    };
    let committed: u64 = reports.iter().map(|r| r.committed_transactions).sum();
    let offered: u64 = reports
        .iter()
        .map(|r| (r.offered_load_tps as f64 * r.duration_s) as u64)
        .sum();
    let layers = if traced {
        layers(&outcomes)
    } else {
        Vec::new()
    };
    SimRun {
        setup_s: median(&setups),
        rep_p99_s: reports
            .iter()
            .map(|r| r.latency.snapshot().quantile_s(0.99))
            .collect(),
        p50_s: quantile(0.5),
        p99_s: quantile(0.99),
        committed_tps: mean(&reports.iter().map(|r| r.throughput_tps).collect::<Vec<_>>()),
        committed,
        offered,
        rep_cpu_us_per_tx: rep_cpu_s
            .iter()
            .zip(&reports)
            .map(|(cpu_s, report)| cpu_s * 1e6 / report.committed_transactions.max(1) as f64)
            .collect(),
        wall_s,
        violations,
        layers,
        spans,
        replay: traced.then(|| replay_input(seed)),
    }
}

/// The output checks of one repetition.
fn check(repetition: usize, outcome: &SimOutcome) -> Vec<String> {
    let mut violations = Vec::new();
    let honest: Vec<usize> = (0..NODES - CRASHED).collect();
    if outcome.report.committed_transactions == 0 {
        violations.push(format!("repetition {repetition}: nothing committed"));
    }
    for &a in &honest {
        for &b in honest.iter().filter(|&&b| b > a) {
            let (left, right) = (&outcome.logs[a], &outcome.logs[b]);
            let common = left.len().min(right.len());
            if left[..common] != right[..common] {
                violations.push(format!(
                    "repetition {repetition}: validators {a} and {b} disagree on their commit logs"
                ));
            }
            if left.len() == right.len() && outcome.state_roots[a] != outcome.state_roots[b] {
                violations.push(format!(
                    "repetition {repetition}: validators {a} and {b} end with different state roots"
                ));
            }
        }
    }
    let mut roots = BTreeMap::new();
    for &validator in &honest {
        for checkpoint in &outcome.checkpoints[validator] {
            let root = roots
                .entry(checkpoint.position())
                .or_insert_with(|| checkpoint.state_root());
            if *root != checkpoint.state_root() {
                violations.push(format!(
                    "repetition {repetition}: checkpoint roots differ at position {}",
                    checkpoint.position()
                ));
            }
        }
    }
    for (validator, ledger) in outcome.ingress.iter().enumerate() {
        for violation in ledger.violations() {
            violations.push(format!(
                "repetition {repetition}: validator {validator}: {violation}"
            ));
        }
    }
    for &validator in &honest {
        for violation in outcome.tx_integrity[validator].violations() {
            violations.push(format!(
                "repetition {repetition}: validator {validator}: {violation}"
            ));
        }
    }
    violations
}

/// The simulator's own per-layer figures, in virtual time.
fn layers(outcomes: &[SimOutcome]) -> Vec<(&'static str, f64)> {
    let reports: Vec<_> = outcomes.iter().map(|outcome| &outcome.report).collect();
    let sum =
        |f: &dyn Fn(&mahimahi_sim::SimReport) -> f64| reports.iter().map(|r| f(r)).sum::<f64>();
    let count = reports.len() as f64;
    let committed = sum(&|r| r.committed_transactions as f64).max(1.0);
    let slots = sum(&|r| (r.committed_slots + r.skipped_slots) as f64).max(1.0);
    let stage = |stage: Stage, q: f64| {
        median(
            &reports
                .iter()
                .map(|r| r.stages.stage(stage).quantile_s(q))
                .collect::<Vec<_>>(),
        )
    };
    let peak_pool = outcomes
        .iter()
        .flat_map(|outcome| outcome.tx_integrity.iter())
        .map(|report| report.peak_occupancy_txs)
        .max()
        .unwrap_or(0);
    vec![
        ("sim.skip_frac", sum(&|r| r.skipped_slots as f64) / slots),
        (
            "sim.net_bytes_per_tx",
            sum(&|r| r.network_bytes as f64) / committed,
        ),
        ("sim.rounds", sum(&|r| r.highest_round as f64) / count),
        ("node.verified_p99_s", stage(Stage::Verified, 0.99)),
        ("node.sequenced_p50_s", stage(Stage::Sequenced, 0.5)),
        ("node.sequenced_p99_s", stage(Stage::Sequenced, 0.99)),
        ("node.mempool_peak_txs", peak_pool as f64),
        (
            "node.rounds_per_s",
            sum(&|r| r.highest_round as f64 / r.duration_s) / count,
        ),
    ]
}

/// A DAG of the workload's shape — ten authorities, the last three
/// silent — with 512-byte transactions, for the per-layer replay (the
/// simulator models crypto and keeps its blocks to itself).
fn replay_input(seed: u64) -> ReplayInput {
    let setup = TestCommittee::new(NODES, seed);
    let payloads = Payloads::new(seed);
    let producers: Vec<u32> = (0..(NODES - CRASHED) as u32).collect();
    let mut builder = DagBuilder::new(setup.clone());
    let mut next = 0u64;
    for _ in 0..REPLAY_ROUNDS {
        let specs = producers
            .iter()
            .map(|&author| {
                let txs = (next..next + REPLAY_TXS_PER_BLOCK).map(|seq| payloads.tx(tx_id(0, seq)));
                next += REPLAY_TXS_PER_BLOCK;
                BlockSpec::new(author).with_transactions(txs.collect())
            })
            .collect();
        builder.add_round(specs);
    }
    let store = builder.into_store();
    let mut dag: Vec<Arc<Block>> = store.iter().filter(|b| b.round() > 0).cloned().collect();
    dag.sort_by_key(|block| (block.round(), block.author()));
    let rounds: Vec<Vec<Arc<Block>>> = dag
        .chunk_by(|a, b| a.round() == b.round())
        .map(<[Arc<Block>]>::to_vec)
        .take(crate::capture::SAMPLED_ROUNDS)
        .collect();
    let mut sequencer = CommitSequencer::new(Committer::new(setup.committee().clone(), options()));
    let sub_dags = sequencer
        .try_commit(&store)
        .into_iter()
        .filter_map(|decision| match decision {
            CommitDecision::Commit(sub_dag) => Some(sub_dag),
            CommitDecision::Skip(..) => None,
        })
        .collect();
    let wire_bytes = dag.iter().map(|block| block.serialized_size() as u64).sum();
    let wire_txs = dag
        .iter()
        .map(|block| block.transactions().len() as u64)
        .sum();
    ReplayInput {
        setup,
        options: options(),
        dag,
        rounds,
        commits: CommitSource::SubDags(sub_dags),
        wire_bytes,
        wire_txs,
    }
}
