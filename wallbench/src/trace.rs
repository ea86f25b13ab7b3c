//! In-memory spans for the traced run, plus the process figures every run
//! reports (peak resident memory, CPU time).
//!
//! A span has a name, a start, an end and a parent. Spans of one batch
//! share the batch id as their `trace`; spans of one replayed item share
//! its block or commit id. They stay in memory until the run ends and are
//! then written as JSON lines.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One timed interval, in microseconds after the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The id shared by every span of one batch or replayed item.
    pub trace: u64,
    /// This span's own id (unique within the run, never 0).
    pub id: u64,
    /// The enclosing span's id, 0 for a root.
    pub parent: u64,
    pub start_us: u64,
    pub end_us: u64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_us.saturating_sub(self.start_us) as f64 / 1e6
    }
}

/// Collects spans against one epoch. Cheap to share: ids come from an
/// atomic, and each thread keeps its own buffer.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            next_id: AtomicU64::new(1),
        }
    }

    /// Microseconds from the epoch to `at` (0 before the epoch).
    pub fn micros(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Records a finished span into `spans`, returning its id.
    pub fn record(
        &self,
        spans: &mut Vec<Span>,
        name: &'static str,
        trace: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        self.record_us(
            spans,
            name,
            trace,
            parent,
            self.micros(start),
            self.micros(end),
        )
    }

    /// Records a finished span given in microseconds after the epoch.
    pub fn record_us(
        &self,
        spans: &mut Vec<Span>,
        name: &'static str,
        trace: u64,
        parent: u64,
        start_us: u64,
        end_us: u64,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        spans.push(Span {
            name,
            trace,
            id,
            parent,
            start_us,
            end_us,
        });
        id
    }

    /// Times `work` as a span and returns its result.
    pub fn time<T>(
        &self,
        spans: &mut Vec<Span>,
        name: &'static str,
        trace: u64,
        parent: u64,
        work: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let result = work();
        self.record(spans, name, trace, parent, start, Instant::now());
        result
    }
}

/// Mean duration in microseconds of the spans named `name` (0 if none).
pub fn mean_us(spans: &[Span], name: &str) -> f64 {
    let (sum, count) = spans
        .iter()
        .filter(|span| span.name == name)
        .fold((0.0, 0u64), |(sum, count), span| {
            (sum + span.duration_s() * 1e6, count + 1)
        });
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// Writes `spans` as JSON lines to `path`.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"trace\":{},\"id\":{},\"parent\":{},\"start_us\":{},\"end_us\":{}}}",
            span.name, span.trace, span.id, span.parent, span.start_us, span.end_us
        )?;
    }
    out.flush()
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// User plus system CPU time of this process so far, in seconds.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesized command name; utime and stime are
    // the 14th and 15th fields of the whole line, in clock ticks.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |index: usize| {
        fields
            .get(index)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / CLOCK_TICKS_PER_SECOND
}

/// `sysconf(_SC_CLK_TCK)` on Linux.
const CLOCK_TICKS_PER_SECOND: f64 = 100.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_figures_are_readable() {
        assert!(peak_rss_mb() > 0.0);
        let mut spin = 0u64;
        let started = Instant::now();
        while started.elapsed().as_millis() < 50 {
            spin = spin.wrapping_add(1);
        }
        assert!(spin > 0 && cpu_seconds() > 0.0);
    }

    #[test]
    fn spans_carry_parents_and_means() {
        let tracer = Tracer::new(Instant::now());
        let mut spans = Vec::new();
        tracer.time(&mut spans, "root", 9, 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let parent = spans[0].id;
        tracer.record(
            &mut spans,
            "child",
            9,
            parent,
            Instant::now(),
            Instant::now(),
        );
        assert_eq!(spans[1].parent, parent);
        assert_eq!(spans[1].trace, 9);
        assert_ne!(spans[1].id, parent);
        assert!(mean_us(&spans, "root") >= 2_000.0);
        assert_eq!(mean_us(&spans, "missing"), 0.0);
    }
}
