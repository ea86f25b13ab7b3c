//! What a traced run keeps of the commit stream for the after-run replay:
//!
//! - the blocks of the first [`PREFIX_COMMITS`] sub-DAGs — a causally
//!   complete DAG from genesis, for the DAG-insert and commit-rule replays;
//! - a seeded reservoir of [`SAMPLED_ROUNDS`] complete rounds, for the
//!   codec, crypto, admission, WAL and transport replays;
//! - the whole commit sequence as `(author, round, tx id runs)`, from which
//!   the execution replay rebuilds every sub-DAG without holding payloads.

use crate::wire::{splitmix64, Payloads};
use mahimahi_core::CommittedSubDag;
use mahimahi_types::{AuthorityIndex, Block, BlockBuilder, Round, TestCommittee, Transaction};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Sub-DAGs whose blocks form the replayed DAG prefix.
pub const PREFIX_COMMITS: usize = 300;
/// Complete rounds kept for the per-block replays.
pub const SAMPLED_ROUNDS: usize = 24;
/// Rounds below the highest seen that may still complete.
const ROUND_HORIZON: Round = 64;

/// A committed block reduced to what execution reads.
#[derive(Debug, Clone)]
pub struct ExecBlock {
    pub author: u32,
    pub round: Round,
    /// Transaction ids as `(first, length)` runs of consecutive ids.
    pub runs: Vec<(u64, u32)>,
}

/// The traced run's capture of validator 0's commit stream.
pub struct Capture {
    committee_size: usize,
    pub prefix: Vec<Arc<Block>>,
    prefix_commits: usize,
    in_progress: BTreeMap<Round, Vec<Arc<Block>>>,
    pub rounds: Vec<Vec<Arc<Block>>>,
    rounds_offered: u64,
    rng: u64,
    pub commits: Vec<Vec<ExecBlock>>,
    pub wire_bytes: u64,
    pub wire_txs: u64,
}

impl Capture {
    pub fn new(committee_size: usize, seed: u64) -> Self {
        Capture {
            committee_size,
            prefix: Vec::new(),
            prefix_commits: 0,
            in_progress: BTreeMap::new(),
            rounds: Vec::new(),
            rounds_offered: 0,
            rng: seed ^ 0x5eed_ca97,
            commits: Vec::new(),
            wire_bytes: 0,
            wire_txs: 0,
        }
    }

    pub fn observe(&mut self, sub_dag: &CommittedSubDag) {
        if self.prefix_commits < PREFIX_COMMITS {
            self.prefix_commits += 1;
            self.prefix.extend(sub_dag.blocks.iter().cloned());
        }
        let mut exec = Vec::with_capacity(sub_dag.blocks.len());
        for block in &sub_dag.blocks {
            self.wire_bytes += block.serialized_size() as u64;
            self.wire_txs += block.transactions().len() as u64;
            exec.push(ExecBlock {
                author: block.author().0,
                round: block.round(),
                runs: id_runs(block.transactions()),
            });
            self.collect_round(block);
        }
        self.commits.push(exec);
    }

    /// Groups blocks by round; a round is offered to the reservoir once
    /// every validator's block of it has been committed.
    fn collect_round(&mut self, block: &Arc<Block>) {
        let round = block.round();
        let blocks = self.in_progress.entry(round).or_default();
        blocks.push(Arc::clone(block));
        if blocks.len() == self.committee_size {
            let complete = self.in_progress.remove(&round).expect("present");
            self.offer(complete);
        }
        let horizon = round.saturating_sub(ROUND_HORIZON);
        self.in_progress = self.in_progress.split_off(&horizon);
    }

    /// Reservoir sampling (Algorithm R) over complete rounds.
    fn offer(&mut self, round: Vec<Arc<Block>>) {
        self.rounds_offered += 1;
        if self.rounds.len() < SAMPLED_ROUNDS {
            self.rounds.push(round);
            return;
        }
        let slot = splitmix64(&mut self.rng) % self.rounds_offered;
        if let Some(kept) = self.rounds.get_mut(slot as usize) {
            *kept = round;
        }
    }
}

/// Run-length encodes the benchmark ids of `transactions`.
fn id_runs(transactions: &[Transaction]) -> Vec<(u64, u32)> {
    let mut runs: Vec<(u64, u32)> = Vec::new();
    for id in transactions.iter().filter_map(Transaction::benchmark_id) {
        match runs.last_mut() {
            Some((first, length)) if *first + u64::from(*length) == id => *length += 1,
            _ => runs.push((id, 1)),
        }
    }
    runs
}

/// Where the execution replay gets its commit sequence.
pub enum CommitSource {
    /// Reduced blocks, rebuilt with the run's payloads and signed with the
    /// run's committee (execution reads only authors and transactions).
    Ids {
        setup: TestCommittee,
        payloads: Payloads,
        commits: Vec<Vec<ExecBlock>>,
    },
    /// Sub-DAGs held in full.
    SubDags(Vec<CommittedSubDag>),
}

impl CommitSource {
    pub fn len(&self) -> usize {
        match self {
            CommitSource::Ids { commits, .. } => commits.len(),
            CommitSource::SubDags(sub_dags) => sub_dags.len(),
        }
    }

    /// The blocks of commits `range`, concatenated, as one sub-DAG at the
    /// position of the first. Applying it leaves execution state exactly
    /// where applying the commits one by one would.
    pub fn sub_dag(&self, range: std::ops::Range<usize>) -> CommittedSubDag {
        let position = range.start as u64;
        let blocks: Vec<Arc<Block>> = match self {
            CommitSource::Ids {
                setup,
                payloads,
                commits,
            } => commits[range]
                .iter()
                .flatten()
                .map(|exec| {
                    let transactions = exec
                        .runs
                        .iter()
                        .flat_map(|&(first, length)| first..first + u64::from(length))
                        .map(|id| payloads.tx(id));
                    BlockBuilder::new(AuthorityIndex(exec.author), exec.round)
                        .transactions(transactions)
                        .build(setup)
                        .into_arc()
                })
                .collect(),
            CommitSource::SubDags(sub_dags) => sub_dags[range]
                .iter()
                .flat_map(|sub_dag| sub_dag.blocks.iter().cloned())
                .collect(),
        };
        let leader = blocks
            .last()
            .map(|block| block.reference())
            .unwrap_or_else(|| Block::genesis(AuthorityIndex(0)).reference());
        CommittedSubDag {
            position,
            leader,
            blocks,
        }
    }

    /// Up to `limit` transactions from the front of the sequence.
    pub fn transactions(&self, limit: usize) -> Vec<Transaction> {
        let mut out = Vec::with_capacity(limit);
        let mut index = 0;
        while out.len() < limit && index < self.len() {
            let sub_dag = self.sub_dag(index..index + 1);
            out.extend(sub_dag.transactions().take(limit - out.len()).cloned());
            index += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_runs_compress_consecutive_ids() {
        let payloads = Payloads::new(1);
        let txs: Vec<_> = [5, 6, 7, 9, 10, 3]
            .iter()
            .map(|&id| payloads.tx(id))
            .collect();
        assert_eq!(id_runs(&txs), vec![(5, 3), (9, 2), (3, 1)]);
    }

    #[test]
    fn rebuilt_commits_carry_the_same_transactions() {
        let setup = TestCommittee::new(4, 3);
        let payloads = Payloads::new(3);
        let commits = vec![
            vec![ExecBlock {
                author: 1,
                round: 2,
                runs: vec![(10, 2)],
            }],
            vec![ExecBlock {
                author: 2,
                round: 2,
                runs: vec![(40, 1)],
            }],
        ];
        let source = CommitSource::Ids {
            setup,
            payloads: payloads.clone(),
            commits,
        };
        let merged = source.sub_dag(0..2);
        let ids: Vec<_> = merged
            .transactions()
            .filter_map(Transaction::benchmark_id)
            .collect();
        assert_eq!(ids, vec![10, 11, 40]);
        assert_eq!(merged.blocks[1].author(), AuthorityIndex(2));
        assert_eq!(source.transactions(2).len(), 2);
    }
}
