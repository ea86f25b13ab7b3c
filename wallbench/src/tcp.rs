//! The TCP workloads: a 4-validator `LocalCluster` on localhost, driven
//! open-loop by two wire clients (to validators 0 and 1), one generator
//! thread each.
//!
//! Each generator sends one batch every 5 ms on a fixed schedule, whatever
//! the cluster answers, and reads the receipts coming back on the same
//! connection in between. A checker thread consumes all four validators'
//! commit streams, so the harness never holds sub-DAGs the nodes have
//! dropped, and checks them as they arrive:
//!
//! - every committed transaction was sent, arrives intact and is
//!   committed once;
//! - the validators' commit sequences agree on their common prefix;
//!
//! and after the drain:
//!
//! - every batch got exactly one `Admission` receipt;
//! - every committed transaction was accepted, and every transaction of a
//!   batch with a `Committed` notice is in validator 0's commit stream.

use crate::capture::Capture;
use crate::ledger::{summarize, BatchRecord, Summary, SLICE_TXS};
use crate::scrape::Scrape;
use crate::stats::median;
use crate::trace::{cpu_seconds, Span, Tracer};
use crate::wire::{split_id, splitmix64, tx_id, Conn, Payloads};
use crossbeam::channel::Receiver;
use mahimahi_core::CommittedSubDag;
use mahimahi_node::LocalCluster;
use mahimahi_types::TxReceipt;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Validators in the cluster.
pub const VALIDATORS: usize = 4;
/// Client connections (and generator threads), to validators `0..CONNECTIONS`.
pub const CONNECTIONS: usize = 2;
/// The id space of the set-up probe transactions.
const PROBE: usize = CONNECTIONS;
/// Open-loop batch period.
const BATCH_INTERVAL_US: u64 = 5_000;
/// Cluster start-ups per run, each with its own committee; `setup_s` is
/// their median and the last one carries the workload.
const SETUP_REPEATS: usize = 9;
/// Longest wait for outstanding receipts after the window closes.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);
/// Longest wait for validator 0's commit stream to reach the others'.
const CATCH_UP_LIMIT: Duration = Duration::from_secs(10);

/// One TCP run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct TcpPlan {
    /// Offered load over both connections, tx/s.
    pub rate_tps: u64,
    pub window: Duration,
    pub seed: u64,
    pub traced: bool,
}

/// Everything a TCP run measured.
pub struct TcpRun {
    pub summary: Summary,
    /// Seconds from the end of the window to the last receipt awaited.
    pub drain_s: f64,
    pub setup_s: f64,
    /// Every set-up's duration, in order.
    pub setups: Vec<f64>,
    /// Process CPU seconds spent inside the submission window.
    pub window_cpu_s: f64,
    /// Batches sent, with lateness and admission round trips.
    pub batches: Vec<BatchRecord>,
    pub violations: Vec<String>,
    /// Traced runs only.
    pub spans: Vec<Span>,
    pub capture: Option<Capture>,
    pub scrapes: Option<(Scrape, Scrape)>,
}

/// A grow-on-demand bitset over transaction sequence numbers.
#[derive(Default, Clone)]
struct Bits(Vec<u64>);

impl Bits {
    /// Sets bit `index`, returning whether it was already set.
    fn set(&mut self, index: u64) -> bool {
        let word = (index / 64) as usize;
        if word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        let mask = 1u64 << (index % 64);
        let was = self.0[word] & mask != 0;
        self.0[word] |= mask;
        was
    }

    fn get(&self, index: u64) -> bool {
        self.0
            .get((index / 64) as usize)
            .is_some_and(|word| word & (1 << (index % 64)) != 0)
    }

    /// Indexes set here but not in `other`.
    fn missing_from(&self, other: &Bits) -> u64 {
        self.0
            .iter()
            .enumerate()
            .map(|(i, word)| (word & !other.0.get(i).copied().unwrap_or(0)).count_ones() as u64)
            .sum()
    }
}

/// Probe spacing during set-up.
const PROBE_INTERVAL: Duration = Duration::from_millis(2);

/// A started cluster with its client connections.
struct Started {
    cluster: LocalCluster,
    conns: Vec<Conn>,
    /// Cluster start to the first probe's `Committed` notice.
    setup_s: f64,
    /// Probe transactions sent, and which of them were accepted.
    probes: u64,
    accepted_probes: Bits,
}

/// Starts a cluster, connects the clients and sends a one-transaction
/// probe batch every [`PROBE_INTERVAL`] until the first `Committed`
/// notice arrives — so set-up ends with the earliest commit the cluster
/// can make, not with whichever wave one probe happened to land in.
/// Then waits until every probe is answered and committed, so no probe
/// receipt leaks into the workload.
fn start_cluster(
    plan: &TcpPlan,
    committee_seed: u64,
    payloads: &Payloads,
) -> Result<Started, String> {
    let started = Instant::now();
    let cluster = if plan.traced {
        LocalCluster::start_observed(VALIDATORS, committee_seed)
    } else {
        LocalCluster::start(VALIDATORS, committee_seed)
    }
    .map_err(|e| format!("cluster start: {e}"))?;
    let mut conns = (0..CONNECTIONS)
        .map(|validator| Conn::connect(cluster.address(validator)))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("client connect: {e}"))?;
    let deadline = started + Duration::from_secs(60);
    let mut probes = 0u64;
    let mut admitted = 0u64;
    let mut accepted_probes = Bits::default();
    let mut awaiting: Vec<u64> = Vec::new();
    let mut first_commit: Option<Instant> = None;
    let mut next_probe = Instant::now();
    loop {
        let now = Instant::now();
        if now >= deadline {
            return Err("set-up probes not committed within 60 s".into());
        }
        if first_commit.is_none() && now >= next_probe {
            conns[0]
                .send(vec![payloads.tx(tx_id(PROBE, probes))])
                .map_err(|e| format!("probe send: {e}"))?;
            probes += 1;
            next_probe += PROBE_INTERVAL;
        }
        let until = if first_commit.is_none() {
            next_probe
        } else {
            now + Duration::from_millis(20)
        };
        conns[0]
            .poll(until, |receipt, at| match receipt {
                TxReceipt::Admission { tag, verdicts } => {
                    if verdicts.first().is_some_and(|v| v.is_accepted()) {
                        accepted_probes.set(admitted);
                        awaiting.push(tag);
                    }
                    admitted += 1;
                }
                TxReceipt::Committed { tags } => {
                    awaiting.retain(|tag| !tags.contains(tag));
                    first_commit.get_or_insert(at);
                }
            })
            .map_err(|e| format!("probe receipt: {e}"))?;
        if first_commit.is_some() && admitted == probes && awaiting.is_empty() {
            break;
        }
    }
    let setup_s = first_commit.map_or(0.0, |at| (at - started).as_secs_f64());
    Ok(Started {
        cluster,
        conns,
        setup_s,
        probes,
        accepted_probes,
    })
}

/// The committee seed of set-up `repeat` of a run seeded `seed`. Set-ups
/// differ in their committee, and so in their leader schedule.
fn committee_seed(seed: u64, repeat: usize) -> u64 {
    let mut state = seed ^ ((repeat as u64) << 32);
    splitmix64(&mut state)
}

/// The committee seed of the cluster that carries the workload.
pub fn workload_committee_seed(seed: u64) -> u64 {
    committee_seed(seed, SETUP_REPEATS - 1)
}

/// Runs one TCP workload.
pub fn run(plan: TcpPlan) -> Result<TcpRun, String> {
    let payloads = Payloads::new(plan.seed);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut live = None;
    for repeat in 0..SETUP_REPEATS {
        let started = start_cluster(&plan, committee_seed(plan.seed, repeat), &payloads)?;
        setups.push(started.setup_s);
        if repeat + 1 == SETUP_REPEATS {
            live = Some(started);
        } else {
            drop(started.conns);
            started.cluster.stop();
        }
    }
    let Started {
        cluster,
        conns,
        probes,
        accepted_probes,
        ..
    } = live.expect("at least one set-up");

    let sent: Arc<Vec<AtomicU64>> = Arc::new((0..=PROBE).map(|_| AtomicU64::new(0)).collect());
    sent[PROBE].store(probes, Ordering::SeqCst);
    let stop = Arc::new(AtomicBool::new(false));
    let start = Instant::now() + Duration::from_millis(20);
    let tracer = Arc::new(Tracer::new(start));
    let checker = {
        let receivers: Vec<_> = (0..VALIDATORS)
            .map(|i| cluster.commits(i).clone())
            .collect();
        let state = Checker::new(payloads.clone(), Arc::clone(&sent), plan.traced, plan.seed);
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("commit-checker".into())
            .spawn(move || state.run(receivers, &stop))
            .expect("spawn checker")
    };
    let per_conn = plan.rate_tps / CONNECTIONS as u64;
    let generators: Vec<_> = conns
        .into_iter()
        .enumerate()
        .map(|(index, conn)| {
            let generator = Generator {
                index,
                rate_tps: per_conn + u64::from(index == 0) * (plan.rate_tps % CONNECTIONS as u64),
                start,
                window: plan.window,
                payloads: payloads.clone(),
                sent: Arc::clone(&sent),
                tracer: plan.traced.then(|| Arc::clone(&tracer)),
            };
            std::thread::Builder::new()
                .name(format!("generator-{index}"))
                .spawn(move || generator.run(conn))
                .expect("spawn generator")
        })
        .collect();

    let scrape_all = || Scrape::cluster(&cluster, VALIDATORS);
    std::thread::sleep(start.saturating_duration_since(Instant::now()));
    let cpu_start = cpu_seconds();
    let first_scrape = plan.traced.then(scrape_all).transpose()?;
    std::thread::sleep((start + plan.window).saturating_duration_since(Instant::now()));
    let window_cpu_s = cpu_seconds() - cpu_start;
    let last_scrape = plan.traced.then(scrape_all).transpose()?;

    let mut batches = Vec::new();
    let mut spans = Vec::new();
    let mut violations = Vec::new();
    let mut accepted = vec![Bits::default(); PROBE + 1];
    accepted[PROBE] = accepted_probes;
    let mut observed_until_us = plan.window.as_micros() as u64;
    let mut first_ids = Vec::new();
    for (index, handle) in generators.into_iter().enumerate() {
        let outcome = handle
            .join()
            .map_err(|_| "generator panicked".to_string())?;
        observed_until_us = observed_until_us.max(outcome.drained_us);
        violations.extend(outcome.violations);
        spans.extend(outcome.spans);
        accepted[index] = outcome.accepted;
        first_ids.push(outcome.first_seq);
        batches.push(outcome.batches);
    }
    stop.store(true, Ordering::SeqCst);
    let checked = checker.join().map_err(|_| "checker panicked".to_string())?;
    cluster.stop();
    violations.extend(checked.violations);

    // Cross-checks between what the clients were told and what the
    // validators committed.
    for (conn, committed) in checked.committed.iter().enumerate() {
        let stray = committed.missing_from(&accepted[conn]);
        if stray > 0 {
            violations.push(format!(
                "{stray} committed txs of connection {conn} were never accepted"
            ));
        }
    }
    for (conn, records) in batches.iter().enumerate() {
        let mut unsequenced = 0u64;
        for (record, &first) in records.iter().zip(&first_ids[conn]) {
            if record.committed_us.is_some() {
                unsequenced += (first..first + u64::from(record.count))
                    .filter(|&seq| accepted[conn].get(seq) && !checked.committed[conn].get(seq))
                    .count() as u64;
            }
        }
        if unsequenced > 0 {
            violations.push(format!(
                "{unsequenced} txs of connection {conn} have a Committed notice but are not in validator 0's commit stream"
            ));
        }
    }
    let batches: Vec<BatchRecord> = batches.into_iter().flatten().collect();
    let summary = summarize(
        &batches,
        plan.window.as_micros() as u64,
        observed_until_us,
        SLICE_TXS,
    );
    Ok(TcpRun {
        summary,
        drain_s: observed_until_us.saturating_sub(plan.window.as_micros() as u64) as f64 / 1e6,
        setup_s: median(&setups),
        setups,
        window_cpu_s,
        batches,
        violations,
        spans,
        capture: checked.capture,
        scrapes: first_scrape.zip(last_scrape),
    })
}

/// One open-loop client: a connection plus its schedule.
struct Generator {
    index: usize,
    rate_tps: u64,
    start: Instant,
    window: Duration,
    payloads: Payloads,
    sent: Arc<Vec<AtomicU64>>,
    tracer: Option<Arc<Tracer>>,
}

/// What a generator hands back after its drain.
struct GeneratorOutcome {
    batches: Vec<BatchRecord>,
    /// First sequence number of each batch, index-parallel to `batches`.
    first_seq: Vec<u64>,
    accepted: Bits,
    violations: Vec<String>,
    spans: Vec<Span>,
    drained_us: u64,
}

/// Receipt bookkeeping of one connection.
struct Receipts {
    start: Instant,
    batches: Vec<BatchRecord>,
    first_seq: Vec<u64>,
    /// Index of the next batch waiting for its `Admission` receipt.
    next_admission: usize,
    /// Batches with accepted transactions, by tag, awaiting `Committed`.
    awaiting_commit: HashMap<u64, Vec<usize>>,
    accepted: Bits,
    violations: Vec<String>,
}

impl Receipts {
    fn micros(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.start).as_micros() as u64
    }

    fn violation(&mut self, message: String) {
        if self.violations.len() < VIOLATION_SAMPLES {
            self.violations.push(message);
        }
    }

    fn on_receipt(&mut self, receipt: TxReceipt, at: Instant) {
        let at_us = self.micros(at);
        match receipt {
            TxReceipt::Admission { tag, verdicts } => {
                let index = self.next_admission;
                let Some(batch) = self.batches.get_mut(index) else {
                    self.violation(format!(
                        "Admission receipt (tag {tag}) with no batch outstanding"
                    ));
                    return;
                };
                self.next_admission += 1;
                let count = batch.count as usize;
                batch.admit(at_us, &verdicts);
                let accepted = batch.accepted;
                if verdicts.len() != count {
                    self.violation(format!(
                        "Admission receipt with {} verdicts for a batch of {count}",
                        verdicts.len()
                    ));
                }
                let first = self.first_seq[index];
                for (offset, verdict) in verdicts.iter().enumerate() {
                    if verdict.is_accepted() {
                        self.accepted.set(first + offset as u64);
                    }
                }
                if accepted > 0 {
                    self.awaiting_commit.entry(tag).or_default().push(index);
                }
            }
            TxReceipt::Committed { tags } => {
                for tag in tags {
                    match self.awaiting_commit.remove(&tag) {
                        Some(indexes) => {
                            for index in indexes {
                                self.batches[index].committed_us = Some(at_us);
                            }
                        }
                        None => self.violation(format!(
                            "Committed notice for unknown or settled tag {tag}"
                        )),
                    }
                }
            }
        }
    }

    /// Every batch admitted and every accepted one committed.
    fn settled(&self) -> bool {
        self.next_admission == self.batches.len() && self.awaiting_commit.is_empty()
    }
}

impl Generator {
    /// Transactions due in batch `k`: exact-rate accounting, so after `t`
    /// seconds `⌊t × rate⌋` transactions have been scheduled.
    fn due_count(&self, k: u64) -> u64 {
        let due = |k: u64| k * BATCH_INTERVAL_US * self.rate_tps / 1_000_000;
        due(k + 1) - due(k)
    }

    fn run(self, mut conn: Conn) -> GeneratorOutcome {
        let mut receipts = Receipts {
            start: self.start,
            batches: Vec::new(),
            first_seq: Vec::new(),
            next_admission: 0,
            awaiting_commit: HashMap::new(),
            accepted: Bits::default(),
            violations: Vec::new(),
        };
        let mut spans = Vec::new();
        let end = self.start + self.window;
        let mut next_seq = 0u64;
        let mut k = 0u64;
        let mut failed = false;
        loop {
            let due = self.start + Duration::from_micros(k * BATCH_INTERVAL_US);
            if due >= end {
                break;
            }
            if let Err(error) = conn.poll(due, |r, at| receipts.on_receipt(r, at)) {
                receipts
                    .violations
                    .push(format!("connection {}: {error}", self.index));
                failed = true;
                break;
            }
            let count = self.due_count(k);
            k += 1;
            if count == 0 {
                continue;
            }
            let first = next_seq;
            next_seq += count;
            // Published before the write: a validator can only commit what
            // it has received.
            self.sent[self.index].store(next_seq, Ordering::SeqCst);
            let batch: Vec<_> = (first..next_seq)
                .map(|seq| self.payloads.tx(tx_id(self.index, seq)))
                .collect();
            let send_start = Instant::now();
            if let Err(error) = conn.send(batch) {
                receipts
                    .violations
                    .push(format!("connection {}: {error}", self.index));
                failed = true;
                break;
            }
            if let Some(tracer) = &self.tracer {
                let trace = batch_trace(self.index, receipts.batches.len());
                tracer.record(
                    &mut spans,
                    "client.send",
                    trace,
                    0,
                    send_start,
                    Instant::now(),
                );
            }
            receipts.batches.push(BatchRecord {
                due_us: receipts.micros(due),
                sent_us: receipts.micros(send_start),
                count: count as u32,
                ..BatchRecord::default()
            });
            receipts.first_seq.push(first);
        }
        let drain_deadline = Instant::now() + DRAIN_LIMIT;
        while !failed && !receipts.settled() && Instant::now() < drain_deadline {
            let until = (Instant::now() + Duration::from_millis(20)).min(drain_deadline);
            if let Err(error) = conn.poll(until, |r, at| receipts.on_receipt(r, at)) {
                receipts
                    .violations
                    .push(format!("connection {}: {error}", self.index));
                break;
            }
        }
        let drained_us = receipts.micros(Instant::now());
        if receipts.next_admission != receipts.batches.len() {
            receipts.violations.push(format!(
                "connection {}: {} of {} batches got no Admission receipt",
                self.index,
                receipts.batches.len() - receipts.next_admission,
                receipts.batches.len()
            ));
        }
        if let Some(tracer) = &self.tracer {
            batch_spans(tracer, self.index, &receipts.batches, &mut spans);
        }
        GeneratorOutcome {
            batches: receipts.batches,
            first_seq: receipts.first_seq,
            accepted: receipts.accepted,
            violations: receipts.violations,
            spans,
            drained_us,
        }
    }
}

/// The trace id shared by every span of one batch.
fn batch_trace(conn: usize, index: usize) -> u64 {
    ((conn as u64) << 32) | index as u64
}

/// Adds each batch's root span (schedule → commit notice) and its
/// admission and commit-wait children, re-parenting the send span.
fn batch_spans(tracer: &Tracer, conn: usize, batches: &[BatchRecord], spans: &mut Vec<Span>) {
    let mut roots = HashMap::with_capacity(batches.len());
    for (index, batch) in batches.iter().enumerate() {
        let trace = batch_trace(conn, index);
        let end = batch
            .committed_us
            .or(batch.admitted_us)
            .unwrap_or(batch.sent_us);
        let root = tracer.record_us(spans, "client.batch", trace, 0, batch.due_us, end);
        roots.insert(trace, root);
        if batch.sent_us > batch.due_us {
            tracer.record_us(
                spans,
                "client.late",
                trace,
                root,
                batch.due_us,
                batch.sent_us,
            );
        }
        if let Some(admitted) = batch.admitted_us {
            tracer.record_us(
                spans,
                "client.admission",
                trace,
                root,
                batch.sent_us,
                admitted,
            );
            if let Some(committed) = batch.committed_us {
                tracer.record_us(
                    spans,
                    "client.commit_wait",
                    trace,
                    root,
                    admitted,
                    committed,
                );
            }
        }
    }
    for span in spans.iter_mut().filter(|span| span.name == "client.send") {
        span.parent = roots.get(&span.trace).copied().unwrap_or(0);
    }
}

/// The commit-stream consumer.
struct Checker {
    payloads: Payloads,
    sent: Arc<Vec<AtomicU64>>,
    /// Committed sequence numbers per id space, from validator 0.
    committed: Vec<Bits>,
    /// Per commit position: a digest of the sub-DAG and how many
    /// validators delivered it so far. Dropped once all have.
    positions: BTreeMap<u64, (u64, usize)>,
    last_position: Vec<Option<u64>>,
    violations: Vec<String>,
    capture: Option<Capture>,
}

/// What the checker hands back.
struct Checked {
    committed: Vec<Bits>,
    violations: Vec<String>,
    capture: Option<Capture>,
}

/// Violations reported per kind before the checker stops listing them.
const VIOLATION_SAMPLES: usize = 8;

impl Checker {
    fn new(payloads: Payloads, sent: Arc<Vec<AtomicU64>>, traced: bool, seed: u64) -> Self {
        Checker {
            payloads,
            sent,
            committed: vec![Bits::default(); PROBE + 1],
            positions: BTreeMap::new(),
            last_position: vec![None; VALIDATORS],
            violations: Vec::new(),
            capture: traced.then(|| Capture::new(VALIDATORS, seed)),
        }
    }

    fn violation(&mut self, message: String) {
        if self.violations.len() < VIOLATION_SAMPLES {
            self.violations.push(message);
        }
    }

    fn run(mut self, receivers: Vec<Receiver<CommittedSubDag>>, stop: &AtomicBool) -> Checked {
        let mut stop_seen: Option<(Instant, u64)> = None;
        loop {
            let mut progressed = false;
            for (validator, receiver) in receivers.iter().enumerate() {
                while let Ok(sub_dag) = receiver.try_recv() {
                    self.observe(validator, &sub_dag);
                    progressed = true;
                }
            }
            if stop_seen.is_none() && stop.load(Ordering::SeqCst) {
                let target = self
                    .last_position
                    .iter()
                    .flatten()
                    .copied()
                    .max()
                    .unwrap_or(0);
                stop_seen = Some((Instant::now(), target));
            }
            if let Some((since, target)) = stop_seen {
                if self.last_position[0].is_some_and(|p| p >= target) {
                    break;
                }
                if since.elapsed() > CATCH_UP_LIMIT {
                    self.violation(format!(
                        "validator 0 did not reach commit position {target} within {CATCH_UP_LIMIT:?}"
                    ));
                    break;
                }
            }
            if !progressed {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Checked {
            committed: self.committed,
            violations: self.violations,
            capture: self.capture,
        }
    }

    fn observe(&mut self, validator: usize, sub_dag: &CommittedSubDag) {
        let digest = sub_dag
            .blocks
            .iter()
            .fold(sub_dag.leader.digest.prefix_u64(), |acc, block| {
                acc.rotate_left(7) ^ block.digest().prefix_u64()
            });
        let entry = self
            .positions
            .entry(sub_dag.position)
            .or_insert((digest, 0));
        entry.1 += 1;
        let (agreed, seen) = *entry;
        if agreed != digest {
            self.violation(format!(
                "validator {validator} committed a different sub-DAG at position {}",
                sub_dag.position
            ));
        }
        if seen == VALIDATORS {
            self.positions.remove(&sub_dag.position);
        }
        if self.last_position[validator].is_some_and(|last| last >= sub_dag.position) {
            self.violation(format!(
                "validator {validator} went back to commit position {}",
                sub_dag.position
            ));
        }
        self.last_position[validator] = Some(sub_dag.position);
        if validator != 0 {
            return;
        }
        for transaction in sub_dag.transactions() {
            let id = transaction.benchmark_id().unwrap_or(u64::MAX);
            let (conn, seq) = split_id(id);
            if conn > PROBE || seq >= self.sent[conn].load(Ordering::SeqCst) {
                self.violation(format!("committed tx {id:#x} was never sent"));
                continue;
            }
            if !self.payloads.is_intact(transaction) {
                self.violation(format!(
                    "committed tx {id:#x} differs from the payload sent"
                ));
            }
            if self.committed[conn].set(seq) {
                self.violation(format!("tx {id:#x} committed twice"));
            }
        }
        if let Some(capture) = &mut self.capture {
            capture.observe(sub_dag);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mahimahi_types::TxVerdict::{Accepted, Full};

    fn receipts(counts: &[u32]) -> Receipts {
        let start = Instant::now();
        let mut first = 0;
        let mut receipts = Receipts {
            start,
            batches: Vec::new(),
            first_seq: Vec::new(),
            next_admission: 0,
            awaiting_commit: HashMap::new(),
            accepted: Bits::default(),
            violations: Vec::new(),
        };
        for &count in counts {
            receipts.batches.push(BatchRecord {
                count,
                ..BatchRecord::default()
            });
            receipts.first_seq.push(first);
            first += u64::from(count);
        }
        receipts
    }

    #[test]
    fn admissions_match_batches_in_order_and_shared_tags_commit_together() {
        let mut r = receipts(&[2, 1, 1]);
        let now = Instant::now();
        // Batches 0 and 1 reached the engine in one step: same tag.
        r.on_receipt(
            TxReceipt::Admission {
                tag: 7,
                verdicts: vec![Accepted, Full],
            },
            now,
        );
        r.on_receipt(
            TxReceipt::Admission {
                tag: 7,
                verdicts: vec![Accepted],
            },
            now,
        );
        r.on_receipt(
            TxReceipt::Admission {
                tag: 9,
                verdicts: vec![Full],
            },
            now,
        );
        assert!(r.accepted.get(0) && !r.accepted.get(1) && r.accepted.get(2) && !r.accepted.get(3));
        assert!(!r.settled());
        r.on_receipt(TxReceipt::Committed { tags: vec![7] }, now);
        assert!(r.batches[0].committed_us.is_some() && r.batches[1].committed_us.is_some());
        // The fully refused batch awaits no commit notice.
        assert!(r.settled());
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn stray_receipts_are_violations() {
        let mut r = receipts(&[1]);
        let now = Instant::now();
        r.on_receipt(TxReceipt::Committed { tags: vec![3] }, now);
        r.on_receipt(
            TxReceipt::Admission {
                tag: 4,
                verdicts: vec![Accepted, Accepted],
            },
            now,
        );
        r.on_receipt(
            TxReceipt::Admission {
                tag: 5,
                verdicts: vec![Accepted],
            },
            now,
        );
        r.on_receipt(TxReceipt::Committed { tags: vec![4, 4] }, now);
        assert_eq!(r.violations.len(), 4, "{:?}", r.violations);
    }

    #[test]
    fn the_schedule_sends_exactly_the_rate() {
        let generator = Generator {
            index: 0,
            rate_tps: 1_501,
            start: Instant::now(),
            window: Duration::from_secs(1),
            payloads: Payloads::new(1),
            sent: Arc::new(Vec::new()),
            tracer: None,
        };
        // 200 batch periods of 5 ms are one second.
        let total: u64 = (0..200).map(|k| generator.due_count(k)).sum();
        assert_eq!(total, 1_501);
    }

    #[test]
    fn bitsets_report_what_the_other_lacks() {
        let (mut a, mut b) = (Bits::default(), Bits::default());
        assert!(!a.set(3) && a.set(3));
        a.set(200);
        b.set(3);
        assert_eq!(a.missing_from(&b), 1);
        assert_eq!(b.missing_from(&a), 0);
    }
}
