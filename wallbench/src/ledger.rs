//! Per-batch accounting of a TCP run and the end-to-end figures derived
//! from it.
//!
//! The harness keeps one [`BatchRecord`] per submitted batch — never one
//! timestamp per transaction — so its own memory stays small next to the
//! cluster's. All times are microseconds after the start of the
//! submission window.

use crate::stats::{trimmed_mean, weighted_quantile};
use mahimahi_types::TxVerdict;

/// Accepted transactions per latency slice: the fewest that leave ten
/// beyond a slice's p99, so every slice supports the percentile it
/// reports.
pub const SLICE_TXS: u64 = 1_000;

/// What happened to one submitted batch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchRecord {
    /// When the open-loop schedule wanted the batch sent. Latency is
    /// measured from here, so a stalled generator's lateness counts.
    pub due_us: u64,
    /// When the write of the batch began.
    pub sent_us: u64,
    /// Transactions in the batch.
    pub count: u32,
    /// Arrival of the batch's `Admission` receipt.
    pub admitted_us: Option<u64>,
    /// Arrival of the `Committed` notice covering the batch's tag.
    pub committed_us: Option<u64>,
    /// Admission verdict counts.
    pub accepted: u32,
    pub full: u32,
    pub rate_limited: u32,
    pub duplicate: u32,
}

impl BatchRecord {
    /// Folds an `Admission` receipt's verdicts into the record.
    pub fn admit(&mut self, at_us: u64, verdicts: &[TxVerdict]) {
        self.admitted_us = Some(at_us);
        for verdict in verdicts {
            match verdict {
                TxVerdict::Accepted => self.accepted += 1,
                TxVerdict::Full => self.full += 1,
                TxVerdict::RateLimited => self.rate_limited += 1,
                TxVerdict::Duplicate => self.duplicate += 1,
            }
        }
    }

    /// Accepted transactions that never got a commit notice.
    fn uncommitted(&self) -> u64 {
        if self.committed_us.is_some() {
            0
        } else {
            u64::from(self.accepted)
        }
    }
}

/// End-to-end figures of one TCP run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    /// Transactions actually written to a socket.
    pub sent: u64,
    /// Transactions whose `Committed` notice arrived inside the window.
    pub committed_in_window: u64,
    /// Transactions with a `Committed` notice by the end of the drain.
    pub delivered: u64,
    /// `committed_in_window` ÷ window.
    pub committed_tps: f64,
    /// `delivered` ÷ `sent`.
    pub delivered_frac: f64,
    /// Transactions refused at admission, by verdict.
    pub full: u64,
    pub rate_limited: u64,
    pub duplicate: u64,
    /// Accepted transactions without a `Committed` notice by the end of
    /// the drain.
    pub no_commit: u64,
    /// Transactions of batches that never got an `Admission` receipt.
    pub no_admission: u64,
    /// Tx-weighted commit latency over accepted transactions, from the
    /// scheduled send time; one never committed is censored at the end of
    /// the drain. The accepted transactions are cut, in order of
    /// scheduled send time, into slices of a fixed number of
    /// transactions, and these are the means of the slices' percentiles
    /// without the fastest and slowest tenth of the slices: an average of
    /// the percentile over the run, steadier than one percentile over the
    /// whole window, whose tail is set by a handful of stalls.
    pub p50_s: f64,
    pub p99_s: f64,
    /// Each slice's p50 and p99, in schedule order.
    pub slice_p50_s: Vec<f64>,
    pub slice_p99_s: Vec<f64>,
    /// The same percentiles over the whole window, unsliced.
    pub run_p50_s: f64,
    pub run_p99_s: f64,
    /// Accepted transactions behind the latency percentiles.
    pub latency_samples: u64,
}

impl Summary {
    /// Transactions that were accepted but lost, or never answered: the
    /// run's failed operations. Admission refusals (`Full`,
    /// `RateLimited`, `Duplicate`) are answers, not failures; they lower
    /// `delivered_frac`.
    pub fn failed(&self) -> u64 {
        self.no_commit + self.no_admission
    }

    /// `part` as a share of the transactions sent.
    pub fn share(&self, part: u64) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            part as f64 / self.sent as f64
        }
    }
}

/// Summarizes a run's batches. `window_us` is the length of the
/// submission window; `observed_until_us` is the end of the drain, where
/// the latency of an accepted but uncommitted transaction is censored.
/// Latency slices close once they hold `slice_txs` accepted transactions;
/// a shorter remainder joins the last slice.
pub fn summarize(
    batches: &[BatchRecord],
    window_us: u64,
    observed_until_us: u64,
    slice_txs: u64,
) -> Summary {
    let mut summary = Summary::default();
    let mut scheduled: Vec<&BatchRecord> = batches.iter().collect();
    scheduled.sort_by_key(|batch| batch.due_us);
    let mut sliced: Vec<Vec<(f64, u64)>> = Vec::new();
    let mut open: (Vec<(f64, u64)>, u64) = (Vec::new(), 0);
    let mut latencies = Vec::with_capacity(batches.len());
    for batch in scheduled {
        let count = u64::from(batch.count);
        summary.sent += count;
        if batch.admitted_us.is_none() {
            summary.no_admission += count;
            continue;
        }
        summary.full += u64::from(batch.full);
        summary.rate_limited += u64::from(batch.rate_limited);
        summary.duplicate += u64::from(batch.duplicate);
        summary.no_commit += batch.uncommitted();
        let accepted = u64::from(batch.accepted);
        if accepted == 0 {
            continue;
        }
        let end_us = match batch.committed_us {
            Some(at) => {
                summary.delivered += accepted;
                if at <= window_us {
                    summary.committed_in_window += accepted;
                }
                at
            }
            None => observed_until_us,
        };
        let sample = (end_us.saturating_sub(batch.due_us) as f64 / 1e6, accepted);
        open.0.push(sample);
        open.1 += accepted;
        if open.1 >= slice_txs {
            sliced.push(std::mem::take(&mut open.0));
            open.1 = 0;
        }
        latencies.push(sample);
    }
    match sliced.last_mut() {
        Some(last) => last.append(&mut open.0),
        None if !open.0.is_empty() => sliced.push(open.0),
        None => {}
    }
    summary.latency_samples = latencies.iter().map(|&(_, weight)| weight).sum();
    summary.run_p50_s = weighted_quantile(&latencies, 0.50).unwrap_or(0.0);
    summary.run_p99_s = weighted_quantile(&latencies, 0.99).unwrap_or(0.0);
    let per_slice = |q: f64| -> Vec<f64> {
        sliced
            .iter()
            .filter_map(|samples| weighted_quantile(samples, q))
            .collect()
    };
    summary.slice_p50_s = per_slice(0.50);
    summary.slice_p99_s = per_slice(0.99);
    summary.p50_s = trimmed_mean(&summary.slice_p50_s);
    summary.p99_s = trimmed_mean(&summary.slice_p99_s);
    summary.committed_tps = summary.committed_in_window as f64 / (window_us as f64 / 1e6);
    summary.delivered_frac = summary.share(summary.delivered);
    summary
}

/// The 99th percentile of the generator's lateness (write start minus
/// scheduled time) over batches, in milliseconds.
pub fn lateness_p99_ms(batches: &[BatchRecord]) -> f64 {
    let late: Vec<(f64, u64)> = batches
        .iter()
        .map(|batch| (batch.sent_us.saturating_sub(batch.due_us) as f64 / 1e3, 1))
        .collect();
    weighted_quantile(&late, 0.99).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(
        due_ms: u64,
        count: u32,
        verdicts: &[TxVerdict],
        committed_ms: Option<u64>,
    ) -> BatchRecord {
        let mut record = BatchRecord {
            due_us: due_ms * 1_000,
            sent_us: due_ms * 1_000,
            count,
            ..BatchRecord::default()
        };
        record.admit(due_ms * 1_000 + 500, verdicts);
        record.committed_us = committed_ms.map(|ms| ms * 1_000);
        record
    }

    const OK: TxVerdict = TxVerdict::Accepted;

    #[test]
    fn commits_after_the_window_are_delivered_but_not_throughput() {
        // A 1 s window; the second batch commits during the drain.
        let batches = [
            batch(0, 2, &[OK, OK], Some(400)),
            batch(900, 3, &[OK, OK, OK], Some(1_300)),
        ];
        let summary = summarize(&batches, 1_000_000, 2_000_000, 1_000);
        assert_eq!(summary.sent, 5);
        assert_eq!(summary.committed_in_window, 2);
        assert_eq!(summary.delivered, 5);
        assert_eq!(summary.committed_tps, 2.0);
        assert_eq!(summary.delivered_frac, 1.0);
        assert_eq!(summary.failed(), 0);
    }

    #[test]
    fn a_commit_exactly_at_the_window_end_counts() {
        let batches = [batch(0, 1, &[OK], Some(1_000))];
        let summary = summarize(&batches, 1_000_000, 1_000_000, 1_000);
        assert_eq!(summary.committed_in_window, 1);
    }

    #[test]
    fn refusals_and_losses_are_split_by_cause() {
        use TxVerdict::{Duplicate, Full, RateLimited};
        let mut unanswered = batch(30, 4, &[], None);
        unanswered.admitted_us = None;
        let batches = [
            batch(0, 4, &[OK, OK, Full, Full], Some(500)),
            batch(10, 2, &[RateLimited, Duplicate], None),
            batch(20, 3, &[OK, OK, OK], None),
            unanswered,
        ];
        let summary = summarize(&batches, 1_000_000, 2_000_000, 1_000);
        assert_eq!(summary.sent, 13);
        assert_eq!(summary.full, 2);
        assert_eq!(summary.rate_limited, 1);
        assert_eq!(summary.duplicate, 1);
        assert_eq!(summary.no_commit, 3);
        assert_eq!(summary.no_admission, 4);
        assert_eq!(summary.failed(), 7);
        assert_eq!(summary.delivered, 2);
        assert!((summary.delivered_frac - 2.0 / 13.0).abs() < 1e-12);
        // Failures are counted against what was sent, so the causes and
        // the delivered share add up to one.
        let parts = summary.full
            + summary.rate_limited
            + summary.duplicate
            + summary.no_commit
            + summary.no_admission
            + summary.delivered;
        assert_eq!(parts, summary.sent);
    }

    #[test]
    fn latency_runs_from_the_scheduled_time_and_weights_by_transactions() {
        // The generator was 200 ms late sending the big batch: its latency
        // includes the stall.
        let mut late = batch(100, 8, &[OK; 8], Some(600));
        late.sent_us = 300_000;
        let batches = [
            batch(0, 1, &[OK], Some(50)),
            late,
            batch(200, 1, &[OK], Some(260)),
        ];
        let summary = summarize(&batches, 1_000_000, 1_000_000, 1_000);
        assert_eq!(summary.latency_samples, 10);
        assert!((summary.p50_s - 0.5).abs() < 1e-12);
        assert!((summary.p99_s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn uncommitted_accepted_transactions_are_censored_at_the_drain_end() {
        let batches = [batch(0, 1, &[OK], Some(100)), batch(0, 99, &[OK; 99], None)];
        let summary = summarize(&batches, 1_000_000, 3_000_000, 1_000);
        assert!((summary.p50_s - 3.0).abs() < 1e-12);
        assert_eq!(summary.no_commit, 99);
    }

    #[test]
    fn sliced_percentiles_average_the_slices() {
        // Three slices of at least 10 txs (too few to trim); a stall makes
        // the middle one slow. It weighs as one slice of three in the
        // sliced p50, but carries the unsliced one because it holds most
        // of the txs.
        let batches = [
            batch(100, 10, &[OK; 10], Some(200)),
            batch(1_100, 30, &[OK; 30], Some(3_100)),
            batch(2_100, 10, &[OK; 10], Some(2_250)),
        ];
        let summary = summarize(&batches, 3_000_000, 3_100_000, 10);
        assert!((summary.p50_s - (0.1 + 2.0 + 0.15) / 3.0).abs() < 1e-12);
        assert_eq!(summary.slice_p50_s.len(), 3);
        assert!((summary.run_p50_s - 2.0).abs() < 1e-12);
        assert_eq!(summary.latency_samples, 50);
    }

    #[test]
    fn a_full_slice_supports_its_p99() {
        assert_eq!(crate::stats::supported_percentile(SLICE_TXS), Some(0.99));
        assert_eq!(crate::stats::supported_percentile(SLICE_TXS - 1), Some(0.9));
    }

    #[test]
    fn slices_follow_the_schedule_and_absorb_a_short_remainder() {
        // Two connections' batches arrive unsorted; slices of 4 txs cut
        // the schedule at 20 ms, and the last 2 txs join the second slice.
        let batches = [
            batch(0, 2, &[OK, OK], Some(100)),
            batch(20, 2, &[OK, OK], Some(520)),
            batch(10, 2, &[OK, OK], Some(110)),
            batch(30, 2, &[OK, OK], Some(530)),
            batch(40, 2, &[OK, OK], Some(540)),
        ];
        let summary = summarize(&batches, 1_000_000, 1_000_000, 4);
        assert_eq!(summary.slice_p50_s, vec![0.1, 0.5]);
        assert_eq!(summary.slice_p99_s, vec![0.1, 0.5]);
    }
}
