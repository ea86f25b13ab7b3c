//! The traced run's per-layer replay: after the workload, its captured
//! blocks and commits go through each crate's public functions one layer
//! at a time, every call timed as a span. Nothing inside the node is
//! instrumented; these are the layers' costs on this run's data.

use crate::capture::CommitSource;
use crate::trace::{mean_us, Span, Tracer};
use mahimahi_core::{
    AdmissionConfig, AdmissionPipeline, BalanceLedger, CommitDecision, CommitSequencer, Committer,
    CommitterOptions, ExecutionState, Mempool, MempoolConfig, WalRecord,
};
use mahimahi_crypto::schnorr;
use mahimahi_dag::BlockStore;
use mahimahi_transport::Transport;
use mahimahi_types::{Block, Decode, Encode, Envelope, TestCommittee, Transaction};
use mahimahi_wal::FileWal;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sub-DAGs timed one by one at the start of each tenth of the commit
/// sequence; the rest of each tenth is applied merged, untimed.
const TIMED_PER_TENTH: usize = 16;
/// Transactions pushed through the mempool replay.
const MEMPOOL_TXS: usize = 20_000;
/// Transactions hashed by the digest replay.
const DIGEST_TXS: usize = 20_000;
/// WAL appends (each followed by an fsync).
const WAL_RECORDS: usize = 48;
/// GC depth of the replayed commit rule (the node's default).
const GC_DEPTH: u64 = 128;

/// What the replay works on.
pub struct ReplayInput {
    pub setup: TestCommittee,
    pub options: CommitterOptions,
    /// A causally complete DAG prefix, parents before children.
    pub dag: Vec<Arc<Block>>,
    /// Complete rounds sampled across the run.
    pub rounds: Vec<Vec<Arc<Block>>>,
    pub commits: CommitSource,
    /// Encoded bytes and transactions of every committed block.
    pub wire_bytes: u64,
    pub wire_txs: u64,
}

/// Runs every layer's replay, returning `(metric, value)` pairs.
pub fn replay(
    input: &ReplayInput,
    tracer: &Tracer,
    spans: &mut Vec<Span>,
    wal_dir: &Path,
) -> Result<Vec<(&'static str, f64)>, String> {
    let committee = input.setup.committee().clone();
    let blocks: Vec<Arc<Block>> = input.rounds.iter().flatten().cloned().collect();
    if blocks.is_empty() || input.dag.is_empty() || input.commits.len() == 0 {
        return Err("nothing captured to replay".into());
    }
    let mut out = Vec::new();
    let id = |block: &Block| block.digest().prefix_u64();

    // types: the block codec.
    let root = tracer.record(spans, "replay.types", 0, 0, Instant::now(), Instant::now());
    let mut frames = Vec::with_capacity(blocks.len());
    for block in &blocks {
        let bytes = tracer.time(spans, "types.block_encode", id(block), root, || {
            block.to_bytes_vec()
        });
        let decoded = tracer.time(spans, "types.block_decode", id(block), root, || {
            Block::from_bytes_exact(&bytes)
        });
        if decoded.as_ref().map(|d| d.digest()) != Ok(block.digest()) {
            return Err("a captured block does not survive its codec".into());
        }
        frames.push((
            block.author().as_usize(),
            Envelope::Block(Arc::clone(block)).to_bytes_vec(),
        ));
    }
    out.push((
        "types.block_encode_us",
        mean_us(spans, "types.block_encode"),
    ));
    out.push((
        "types.block_decode_us",
        mean_us(spans, "types.block_decode"),
    ));
    out.push((
        "types.wire_bytes_per_tx",
        input.wire_bytes as f64 / input.wire_txs.max(1) as f64,
    ));

    // crypto: block verification, one batch per round, transaction digests.
    let root = tracer.record(spans, "replay.crypto", 0, 0, Instant::now(), Instant::now());
    for block in &blocks {
        let verdict = tracer.time(spans, "crypto.block_verify", id(block), root, || {
            block.verify(&committee)
        });
        if verdict.is_err() {
            return Err(format!(
                "captured block {} fails verification",
                block.reference()
            ));
        }
    }
    let mut signatures = 0usize;
    let mut batch_s = 0.0;
    for (index, round) in input.rounds.iter().enumerate() {
        let preimages: Vec<Vec<u8>> = round.iter().map(|block| block.signed_bytes()).collect();
        let items: Vec<(&[u8], _, _)> = round
            .iter()
            .zip(&preimages)
            .map(|(block, bytes)| {
                let key = committee
                    .public_key(block.author())
                    .expect("committee member");
                (bytes.as_slice(), *key, *block.signature())
            })
            .collect();
        let started = Instant::now();
        let verdict = schnorr::batch_verify(&items);
        let ended = Instant::now();
        tracer.record(
            spans,
            "crypto.batch_verify",
            index as u64,
            root,
            started,
            ended,
        );
        if verdict.is_err() {
            return Err("a captured round fails batch verification".into());
        }
        signatures += items.len();
        batch_s += (ended - started).as_secs_f64();
    }
    out.push((
        "crypto.block_verify_us",
        mean_us(spans, "crypto.block_verify"),
    ));
    out.push((
        "crypto.batch_verify_us_per_sig",
        batch_s * 1e6 / signatures.max(1) as f64,
    ));
    let transactions = input.commits.transactions(DIGEST_TXS.max(MEMPOOL_TXS));
    let started = Instant::now();
    let digests: Vec<_> = transactions
        .iter()
        .take(DIGEST_TXS)
        .map(Transaction::digest)
        .collect();
    let ended = Instant::now();
    tracer.record(spans, "crypto.tx_digests", 0, root, started, ended);
    out.push((
        "crypto.tx_digest_us",
        (ended - started).as_secs_f64() * 1e6 / digests.len().max(1) as f64,
    ));

    // core admission: the node's 2-worker verify stage over the frames.
    let root = tracer.record(
        spans,
        "replay.admission",
        0,
        0,
        Instant::now(),
        Instant::now(),
    );
    let mut pipeline = AdmissionPipeline::new(
        AdmissionConfig {
            verify_workers: 2,
            queue_bound: 1024,
        },
        committee.clone(),
    );
    let started = Instant::now();
    let mut released = 0usize;
    for (from, frame) in frames.iter().cloned() {
        while !pipeline.has_capacity() {
            released += pipeline.drain_ready().len();
        }
        pipeline.submit_frame(from, frame);
    }
    released += pipeline.flush().len();
    let ended = Instant::now();
    tracer.record(spans, "core.admission", 0, root, started, ended);
    if released != frames.len() || pipeline.rejected() > 0 {
        return Err(format!(
            "admission replay released {released} of {} frames ({} rejected)",
            frames.len(),
            pipeline.rejected()
        ));
    }
    drop(pipeline);
    out.push((
        "core.admission_fps",
        frames.len() as f64 / (ended - started).as_secs_f64(),
    ));

    // dag and the commit rule, over the causally complete prefix.
    let root = tracer.record(spans, "replay.dag", 0, 0, Instant::now(), Instant::now());
    let size = committee.size();
    let mut store = BlockStore::new(size, committee.quorum_threshold());
    for block in input.dag.iter().filter(|block| block.round() > 0) {
        let inserted = tracer.time(spans, "dag.insert", id(block), root, || {
            store.insert(Arc::clone(block))
        });
        inserted.map_err(|e| format!("dag replay: {e:?}"))?;
    }
    if store.pending_count() > 0 {
        return Err(format!(
            "dag replay left {} blocks pending",
            store.pending_count()
        ));
    }
    out.push(("dag.insert_us", mean_us(spans, "dag.insert")));
    let mut by_round: BTreeMap<u64, Vec<Arc<Block>>> = BTreeMap::new();
    for block in input.dag.iter().filter(|block| block.round() > 0) {
        by_round
            .entry(block.round())
            .or_default()
            .push(Arc::clone(block));
    }
    let mut store = BlockStore::new(size, committee.quorum_threshold());
    let mut sequencer = CommitSequencer::new(Committer::new(committee.clone(), input.options))
        .with_gc_depth(GC_DEPTH);
    let (mut commits, mut skips) = (0u64, 0u64);
    for (round, blocks) in by_round {
        for block in blocks {
            store
                .insert(block)
                .map_err(|e| format!("commit replay: {e:?}"))?;
        }
        let decisions = tracer.time(spans, "core.try_commit", round, root, || {
            sequencer.try_commit(&store)
        });
        for decision in decisions {
            match decision {
                CommitDecision::Commit(_) => commits += 1,
                CommitDecision::Skip(..) => skips += 1,
            }
        }
    }
    if commits == 0 {
        return Err("commit-rule replay committed nothing".into());
    }
    out.push(("core.try_commit_us", mean_us(spans, "core.try_commit")));
    out.push(("core.skip_frac", skips as f64 / (commits + skips) as f64));

    // core execution: the whole commit sequence through a fresh ledger.
    out.extend(replay_execution(&input.commits, tracer, spans));

    // core mempool: submit the run's transactions, drain block payloads.
    let root = tracer.record(
        spans,
        "replay.mempool",
        0,
        0,
        Instant::now(),
        Instant::now(),
    );
    let mut mempool = Mempool::new(MempoolConfig {
        max_block_txs: 1_000,
        ..MempoolConfig::default()
    });
    let pool_txs: Vec<Transaction> = transactions.into_iter().take(MEMPOOL_TXS).collect();
    let submitted = pool_txs.len();
    let started = Instant::now();
    for (index, transaction) in pool_txs.into_iter().enumerate() {
        let _ = mempool.submit(transaction, index as u64, 1 << 31, index as u64);
    }
    let ended = Instant::now();
    tracer.record(spans, "core.mempool_submit", 0, root, started, ended);
    out.push((
        "core.mempool_submit_us",
        (ended - started).as_secs_f64() * 1e6 / submitted.max(1) as f64,
    ));
    let mut drained = 0usize;
    let mut payload = 0u64;
    while !mempool.is_empty() {
        let (txs, _) = tracer.time(spans, "core.mempool_payload", payload, root, || {
            mempool.next_payload()
        });
        drained += txs.len();
        payload += 1;
    }
    if drained != submitted {
        return Err(format!(
            "mempool replay drained {drained} of {submitted} txs"
        ));
    }
    out.push((
        "core.mempool_payload_us",
        mean_us(spans, "core.mempool_payload"),
    ));

    // wal: a file-backed log in `wal_dir`.
    let root = tracer.record(spans, "replay.wal", 0, 0, Instant::now(), Instant::now());
    std::fs::create_dir_all(wal_dir).map_err(|e| format!("wal dir: {e}"))?;
    let path = wal_dir.join("replay.wal");
    let _ = std::fs::remove_file(&path);
    let mut wal = FileWal::open_path(&path).map_err(|e| format!("wal open: {e:?}"))?;
    for block in blocks.iter().take(WAL_RECORDS) {
        let record = WalRecord::Block(Arc::clone(block)).to_bytes_vec();
        tracer
            .time(spans, "wal.append", id(block), root, || wal.append(&record))
            .map_err(|e| format!("wal append: {e:?}"))?;
        tracer
            .time(spans, "wal.sync", id(block), root, || wal.sync())
            .map_err(|e| format!("wal sync: {e:?}"))?;
    }
    drop(wal);
    let _ = std::fs::remove_file(&path);
    out.push(("wal.append_us", mean_us(spans, "wal.append")));
    out.push(("wal.sync_ms", mean_us(spans, "wal.sync") / 1e3));

    // transport: frame send → receive over a localhost pair.
    let root = tracer.record(
        spans,
        "replay.transport",
        0,
        0,
        Instant::now(),
        Instant::now(),
    );
    let sender = Transport::bind(0, "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let receiver = Transport::bind(1, "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    sender.connect(1, receiver.local_addr());
    let round_trip = |frame: Vec<u8>| {
        sender.send(1, frame);
        receiver.incoming().recv_timeout(Duration::from_secs(10))
    };
    round_trip(frames[0].1.clone()).map_err(|_| "transport warm-up frame lost".to_string())?;
    for (index, (_, frame)) in frames.iter().enumerate() {
        let frame = frame.clone();
        tracer
            .time(spans, "transport.send", index as u64, root, || {
                round_trip(frame)
            })
            .map_err(|_| "transport replay lost a frame".to_string())?;
    }
    sender.shutdown();
    receiver.shutdown();
    out.push(("transport.send_us", mean_us(spans, "transport.send")));
    Ok(out)
}

/// Applies the commit sequence to a fresh `BalanceLedger`: the first
/// [`TIMED_PER_TENTH`] commits of every tenth one by one (apply timed,
/// then `state_root` timed alone), the rest of the tenth merged.
fn replay_execution(
    commits: &CommitSource,
    tracer: &Tracer,
    spans: &mut Vec<Span>,
) -> Vec<(&'static str, f64)> {
    let root = tracer.record(
        spans,
        "replay.execution",
        0,
        0,
        Instant::now(),
        Instant::now(),
    );
    let total = commits.len();
    let mut ledger = BalanceLedger::new();
    let mut tenth_means = Vec::with_capacity(10);
    for tenth in 0..10 {
        let (from, to) = (tenth * total / 10, (tenth + 1) * total / 10);
        let timed_to = (from + TIMED_PER_TENTH).min(to);
        let mut apply_s = 0.0;
        for index in from..timed_to {
            let sub_dag = commits.sub_dag(index..index + 1);
            let trace = index as u64;
            let started = Instant::now();
            ledger.apply(&sub_dag);
            let applied = Instant::now();
            tracer.record(spans, "core.exec_apply", trace, root, started, applied);
            apply_s += (applied - started).as_secs_f64();
            tracer.time(spans, "core.exec_root", trace, root, || ledger.state_root());
        }
        if timed_to > from {
            tenth_means.push(apply_s / (timed_to - from) as f64);
        }
        if to > timed_to {
            ledger.apply(&commits.sub_dag(timed_to..to));
        }
    }
    let growth = match (tenth_means.first(), tenth_means.last()) {
        (Some(&first), Some(&last)) if first > 0.0 => last / first,
        _ => 1.0,
    };
    vec![
        ("core.exec_apply_us", mean_us(spans, "core.exec_apply")),
        ("core.exec_root_us", mean_us(spans, "core.exec_root")),
        ("core.exec_apply_growth", growth),
        ("core.exec_accounts", ledger.accounts() as f64),
    ]
}
