//! Write-ahead log substrate.
//!
//! Section 4 of the Mahi-Mahi paper: *"To ensure data persistence and crash
//! recovery, we implemented a Write-Ahead Log (WAL) tailored to the unique
//! requirements of our consensus protocol."* A validator appends every block
//! it creates or receives before acting on it; after a crash it replays the
//! log to rebuild its DAG and resume from its last round.
//!
//! The format is a flat sequence of CRC-framed records:
//!
//! ```text
//! ┌────────────┬───────────┬───────────┬─────────────┐
//! │ magic  u32 │ len   u32 │ crc32 u32 │ payload ... │
//! └────────────┴───────────┴───────────┴─────────────┘
//! ```
//!
//! Recovery scans from the start and stops at the first invalid frame — a
//! torn write at the tail (the common crash case) truncates back to the last
//! durable record and never corrupts the prefix (property-tested).
//!
//! Two storage backends are provided: [`FileWal`] (real files, used by the
//! networked node) and [`MemWal`] (in-memory, used by simulations and
//! crash-injection tests).

pub mod crc32;

use parking_lot::Mutex;
use std::error::Error as StdError;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crc32::crc32;

const MAGIC: u32 = 0x4d41_4849; // "MAHI"
const HEADER_BYTES: usize = 12;

/// Maximum payload accepted per record (64 MiB), mirroring the codec limit.
pub const MAX_RECORD_BYTES: usize = 64 * 1024 * 1024;

/// Errors from WAL operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum WalError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// The payload exceeds [`MAX_RECORD_BYTES`].
    RecordTooLarge(usize),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(error) => write!(f, "wal i/o error: {error}"),
            WalError::RecordTooLarge(size) => {
                write!(
                    f,
                    "record of {size} bytes exceeds the {MAX_RECORD_BYTES} limit"
                )
            }
        }
    }
}

impl StdError for WalError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            WalError::Io(error) => Some(error),
            WalError::RecordTooLarge(_) => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(error: std::io::Error) -> Self {
        WalError::Io(error)
    }
}

/// Abstract append-only byte storage for the log.
///
/// Implementations must support truncation (used once, at open, to discard a
/// torn tail) and positional reads (used by recovery).
pub trait Storage: Send {
    /// Appends bytes at the end of the storage.
    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError>;
    /// Reads up to `buf.len()` bytes at `offset`; returns bytes read.
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize, WalError>;
    /// Current length in bytes.
    fn len(&mut self) -> Result<u64, WalError>;
    /// Whether the storage is empty.
    fn is_empty(&mut self) -> Result<bool, WalError> {
        Ok(self.len()? == 0)
    }
    /// Discards everything at and after `offset`.
    fn truncate(&mut self, offset: u64) -> Result<(), WalError>;
    /// Forces durability of previous appends.
    fn sync(&mut self) -> Result<(), WalError>;
}

/// File-backed storage.
#[derive(Debug)]
pub struct FileStorage {
    file: File,
    /// The file's path when known (opened via [`FileWal::open_path`]);
    /// enables the crash-atomic [`FileWal::rewrite_atomic`].
    path: Option<PathBuf>,
}

/// Forces the directory entry for `path` to disk, so a freshly created or
/// renamed file cannot vanish from its directory after a crash.
fn sync_parent_dir(path: &Path) -> Result<(), WalError> {
    let parent = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    };
    File::open(parent)?.sync_all()?;
    Ok(())
}

impl Storage for FileStorage {
    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        self.file.seek(SeekFrom::End(0))?;
        self.file.write_all(bytes)?;
        Ok(())
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize, WalError> {
        self.file.seek(SeekFrom::Start(offset))?;
        let mut read = 0;
        while read < buf.len() {
            match self.file.read(&mut buf[read..])? {
                0 => break,
                n => read += n,
            }
        }
        Ok(read)
    }

    fn len(&mut self) -> Result<u64, WalError> {
        Ok(self.file.metadata()?.len())
    }

    fn truncate(&mut self, offset: u64) -> Result<(), WalError> {
        // `sync_all`, not `sync_data`: the shrunk length is metadata, and a
        // recovery truncation that is not itself durable would let a
        // second crash resurrect the torn bytes it discarded.
        self.file.set_len(offset)?;
        self.file.sync_all()?;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), WalError> {
        self.file.sync_data()?;
        Ok(())
    }
}

/// In-memory storage; clones share the same buffer so tests can inspect or
/// corrupt a log while a writer holds it.
#[derive(Debug, Clone, Default)]
pub struct MemStorage {
    buffer: Arc<Mutex<Vec<u8>>>,
    /// Count of [`Storage::sync`] calls, shared across clones — lets
    /// crash-consistency tests assert that recovery actions were made
    /// durable, not merely performed.
    syncs: Arc<AtomicU64>,
}

impl MemStorage {
    /// Creates empty shared storage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies out the raw bytes (test inspection).
    pub fn snapshot(&self) -> Vec<u8> {
        self.buffer.lock().clone()
    }

    /// Overwrites the raw bytes (test corruption injection).
    pub fn replace(&self, bytes: Vec<u8>) {
        *self.buffer.lock() = bytes;
    }

    /// Number of [`Storage::sync`] calls observed so far.
    pub fn sync_count(&self) -> u64 {
        self.syncs.load(Ordering::SeqCst)
    }
}

impl Storage for MemStorage {
    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        self.buffer.lock().extend_from_slice(bytes);
        Ok(())
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize, WalError> {
        let buffer = self.buffer.lock();
        let start = (offset as usize).min(buffer.len());
        let end = (start + buf.len()).min(buffer.len());
        buf[..end - start].copy_from_slice(&buffer[start..end]);
        Ok(end - start)
    }

    fn len(&mut self) -> Result<u64, WalError> {
        Ok(self.buffer.lock().len() as u64)
    }

    fn truncate(&mut self, offset: u64) -> Result<(), WalError> {
        self.buffer.lock().truncate(offset as usize);
        Ok(())
    }

    fn sync(&mut self) -> Result<(), WalError> {
        self.syncs.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }
}

/// A write-ahead log over some [`Storage`].
///
/// # Example
///
/// ```
/// use mahimahi_wal::{MemWal, MemStorage};
///
/// let mut wal = MemWal::open(MemStorage::new())?;
/// wal.append(b"block one")?;
/// wal.append(b"block two")?;
/// let records = wal.records()?;
/// assert_eq!(records.len(), 2);
/// assert_eq!(records[1].payload, b"block two");
/// # Ok::<(), mahimahi_wal::WalError>(())
/// ```
#[derive(Debug)]
pub struct Wal<S: Storage> {
    storage: S,
    /// End offset of the last valid record (the append position).
    tail: u64,
}

/// File-backed WAL.
pub type FileWal = Wal<FileStorage>;
/// In-memory WAL.
pub type MemWal = Wal<MemStorage>;

/// A record recovered from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Byte offset of the record's header in the log.
    pub offset: u64,
    /// The record payload.
    pub payload: Vec<u8>,
}

impl FileWal {
    /// Opens (creating if missing) a file-backed log at `path`, scanning it
    /// and truncating any torn tail.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn open_path<P: AsRef<Path>>(path: P) -> Result<Self, WalError> {
        let path = path.as_ref();
        let existed = path.exists();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        if !existed {
            // A crash right after creation must not lose the directory
            // entry — the log's existence is part of the durability
            // contract from the first append onward.
            sync_parent_dir(path)?;
        }
        Wal::open(FileStorage {
            file,
            path: Some(path.to_path_buf()),
        })
    }

    /// Atomically replaces the log's contents with `payloads` (compaction).
    ///
    /// The surviving records are written to a sibling temporary file,
    /// fsynced, renamed over the log, and the parent directory is fsynced —
    /// so a crash at any point leaves either the complete old log or the
    /// complete new one, never a mix. Requires the log to have been opened
    /// through [`FileWal::open_path`].
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; fails if the log was opened without a path.
    pub fn rewrite_atomic(&mut self, payloads: &[Vec<u8>]) -> Result<(), WalError> {
        let path = self
            .storage
            .path
            .clone()
            .ok_or_else(|| WalError::Io(std::io::Error::other("wal path unknown")))?;
        for payload in payloads {
            if payload.len() > MAX_RECORD_BYTES {
                return Err(WalError::RecordTooLarge(payload.len()));
            }
        }
        let mut temp_path = path.clone().into_os_string();
        temp_path.push(".compact");
        let temp_path = PathBuf::from(temp_path);
        let mut temp = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&temp_path)?;
        let mut tail = 0u64;
        for payload in payloads {
            let frame = frame_record(payload);
            temp.write_all(&frame)?;
            tail += frame.len() as u64;
        }
        temp.sync_all()?;
        std::fs::rename(&temp_path, &path)?;
        sync_parent_dir(&path)?;
        self.storage.file = temp;
        self.tail = tail;
        Ok(())
    }
}

impl<S: Storage> Wal<S> {
    /// Opens a log over `storage`, validating existing contents and
    /// truncating everything after the last valid record.
    ///
    /// The truncation is synced before the log is handed out: recovery's
    /// discard of a torn tail must itself be durable, or a second crash
    /// could resurrect bytes that appends after reopen assume are gone.
    pub fn open(mut storage: S) -> Result<Self, WalError> {
        let tail = scan_valid_prefix(&mut storage)?.last().map_or(0, |record| {
            record.offset + HEADER_BYTES as u64 + record.payload.len() as u64
        });
        if storage.len()? > tail {
            storage.truncate(tail)?;
            storage.sync()?;
        }
        Ok(Wal { storage, tail })
    }

    /// Appends a record and returns its offset.
    ///
    /// The record is *framed* immediately but only durable after
    /// [`Wal::sync`].
    ///
    /// # Errors
    ///
    /// Fails if the payload exceeds [`MAX_RECORD_BYTES`] or on I/O error.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, WalError> {
        if payload.len() > MAX_RECORD_BYTES {
            return Err(WalError::RecordTooLarge(payload.len()));
        }
        let offset = self.tail;
        let frame = frame_record(payload);
        self.storage.append(&frame)?;
        self.tail += frame.len() as u64;
        Ok(offset)
    }

    /// Forces durability of all appended records.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.storage.sync()
    }

    /// Reads back every valid record from the start of the log.
    pub fn records(&mut self) -> Result<Vec<Record>, WalError> {
        scan_valid_prefix(&mut self.storage)
    }

    /// The append position (end of the last valid record).
    pub fn tail(&self) -> u64 {
        self.tail
    }

    /// Consumes the log, returning the underlying storage.
    pub fn into_storage(self) -> S {
        self.storage
    }
}

/// Builds the on-disk frame for one payload: header (magic, length, CRC)
/// followed by the payload bytes.
fn frame_record(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER_BYTES + payload.len());
    frame.extend_from_slice(&MAGIC.to_le_bytes());
    frame.extend_from_slice(
        &u32::try_from(payload.len())
            .expect("payload length checked against MAX_RECORD_BYTES")
            .to_le_bytes(),
    );
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Scans storage from the start, returning every record up to (excluding)
/// the first invalid frame.
fn scan_valid_prefix<S: Storage>(storage: &mut S) -> Result<Vec<Record>, WalError> {
    let total = storage.len()?;
    let mut records = Vec::new();
    let mut offset = 0u64;
    let mut header = [0u8; HEADER_BYTES];
    loop {
        if offset + HEADER_BYTES as u64 > total {
            break;
        }
        if storage.read_at(offset, &mut header)? < HEADER_BYTES {
            break;
        }
        let magic = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        let len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
        let expected_crc = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        if magic != MAGIC || len > MAX_RECORD_BYTES {
            break;
        }
        if offset + (HEADER_BYTES + len) as u64 > total {
            break;
        }
        let mut payload = vec![0u8; len];
        if storage.read_at(offset + HEADER_BYTES as u64, &mut payload)? < len {
            break;
        }
        if crc32(&payload) != expected_crc {
            break;
        }
        records.push(Record { offset, payload });
        offset += (HEADER_BYTES + len) as u64;
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mem_wal() -> (MemWal, MemStorage) {
        let storage = MemStorage::new();
        let wal = Wal::open(storage.clone()).unwrap();
        (wal, storage)
    }

    #[test]
    fn append_and_read_back() {
        let (mut wal, _) = mem_wal();
        wal.append(b"one").unwrap();
        wal.append(b"two").unwrap();
        wal.append(b"").unwrap();
        let records = wal.records().unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].payload, b"one");
        assert_eq!(records[1].payload, b"two");
        assert_eq!(records[2].payload, b"");
    }

    #[test]
    fn offsets_are_monotonic_and_stable() {
        let (mut wal, _) = mem_wal();
        let first = wal.append(b"aaaa").unwrap();
        let second = wal.append(b"bb").unwrap();
        assert_eq!(first, 0);
        assert_eq!(second, HEADER_BYTES as u64 + 4);
        let records = wal.records().unwrap();
        assert_eq!(records[0].offset, first);
        assert_eq!(records[1].offset, second);
    }

    #[test]
    fn reopen_preserves_records_and_appends_continue() {
        let (mut wal, storage) = mem_wal();
        wal.append(b"before").unwrap();
        drop(wal);
        let mut reopened = Wal::open(storage).unwrap();
        assert_eq!(reopened.records().unwrap().len(), 1);
        reopened.append(b"after").unwrap();
        let records = reopened.records().unwrap();
        assert_eq!(records[1].payload, b"after");
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let (mut wal, storage) = mem_wal();
        wal.append(b"durable").unwrap();
        wal.append(b"torn-record-payload").unwrap();
        // Simulate a crash mid-write of the second record.
        let mut bytes = storage.snapshot();
        bytes.truncate(bytes.len() - 5);
        storage.replace(bytes);
        let syncs_before = storage.sync_count();
        let mut reopened = Wal::open(storage.clone()).unwrap();
        let records = reopened.records().unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].payload, b"durable");
        // The truncation itself was synced: a crash immediately after
        // recovery must not resurrect the discarded tail.
        assert!(
            storage.sync_count() > syncs_before,
            "recovery truncation must be made durable"
        );
        // The torn bytes were discarded; new appends start clean.
        reopened.append(b"fresh").unwrap();
        assert_eq!(reopened.records().unwrap().len(), 2);
        drop(reopened);
        // Reopen-after-recovery: a second open sees exactly the recovered
        // prefix plus the new append, and truncates nothing further.
        let syncs_before = storage.sync_count();
        let mut second = Wal::open(storage.clone()).unwrap();
        let records = second.records().unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].payload, b"fresh");
        assert_eq!(
            storage.sync_count(),
            syncs_before,
            "a clean log needs no recovery truncation (and no sync)"
        );
    }

    #[test]
    fn corrupt_crc_stops_scan() {
        let (mut wal, storage) = mem_wal();
        wal.append(b"good").unwrap();
        wal.append(b"bad!").unwrap();
        let mut bytes = storage.snapshot();
        let len = bytes.len();
        bytes[len - 1] ^= 0xff; // flip a payload bit of the second record
        storage.replace(bytes);
        let mut reopened = Wal::open(storage).unwrap();
        assert_eq!(reopened.records().unwrap().len(), 1);
    }

    #[test]
    fn corrupt_magic_stops_scan() {
        let (mut wal, storage) = mem_wal();
        wal.append(b"good").unwrap();
        wal.append(b"hidden").unwrap();
        let mut bytes = storage.snapshot();
        let second_offset = HEADER_BYTES + 4;
        bytes[second_offset] ^= 0xff;
        storage.replace(bytes);
        let mut reopened = Wal::open(storage).unwrap();
        assert_eq!(reopened.records().unwrap().len(), 1);
    }

    #[test]
    fn oversized_record_rejected() {
        let (mut wal, _) = mem_wal();
        let result = wal.append(&vec![0u8; MAX_RECORD_BYTES + 1]);
        assert!(matches!(result, Err(WalError::RecordTooLarge(_))));
    }

    #[test]
    fn empty_log_recovers_empty() {
        let (mut wal, _) = mem_wal();
        assert!(wal.records().unwrap().is_empty());
        assert_eq!(wal.tail(), 0);
    }

    #[test]
    fn file_backed_wal_round_trip() {
        let dir = std::env::temp_dir().join(format!("mahimahi-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.wal");
        {
            let mut wal = FileWal::open_path(&path).unwrap();
            wal.append(b"persisted").unwrap();
            wal.sync().unwrap();
        }
        {
            let mut wal = FileWal::open_path(&path).unwrap();
            let records = wal.records().unwrap();
            assert_eq!(records.len(), 1);
            assert_eq!(records[0].payload, b"persisted");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_rewrite_atomic_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("mahimahi-wal-compact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("compact.wal");
        {
            let mut wal = FileWal::open_path(&path).unwrap();
            for i in 0..8u8 {
                wal.append(&[i; 16]).unwrap();
            }
            wal.sync().unwrap();
            wal.rewrite_atomic(&[vec![6; 16], vec![7; 16]]).unwrap();
            // The handle stays usable after the rename.
            wal.append(b"appended-after-compaction").unwrap();
            wal.sync().unwrap();
        }
        // No temporary file left behind, and the compacted log reopens.
        assert!(!dir.join("compact.wal.compact").exists());
        let mut reopened = FileWal::open_path(&path).unwrap();
        let records = reopened.records().unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].payload, vec![6; 16]);
        assert_eq!(records[1].payload, vec![7; 16]);
        assert_eq!(records[2].payload, b"appended-after-compaction");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn errors_display() {
        let io = WalError::from(std::io::Error::other("x"));
        assert!(io.to_string().contains("i/o"));
        assert!(WalError::RecordTooLarge(1).to_string().contains("limit"));
    }

    proptest! {
        /// Crash-consistency: truncating the log at ANY byte boundary leaves
        /// a prefix of fully-written records intact.
        #[test]
        fn prop_arbitrary_truncation_preserves_prefix(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..64), 1..8),
            cut_fraction in 0.0f64..1.0,
        ) {
            let storage = MemStorage::new();
            let mut wal = Wal::open(storage.clone()).unwrap();
            let mut ends = Vec::new();
            for payload in &payloads {
                wal.append(payload).unwrap();
                ends.push(wal.tail());
            }
            let total = storage.snapshot().len();
            let cut = (total as f64 * cut_fraction) as usize;
            let mut bytes = storage.snapshot();
            bytes.truncate(cut);
            storage.replace(bytes);

            let mut reopened = Wal::open(storage.clone()).unwrap();
            let records = reopened.records().unwrap();
            // Every surviving record must be an exact prefix.
            let expected = ends.iter().take_while(|&&end| end <= cut as u64).count();
            prop_assert_eq!(records.len(), expected);
            for (record, payload) in records.iter().zip(&payloads) {
                prop_assert_eq!(&record.payload, payload);
            }
            // If a tail was discarded, the truncation was synced, and a
            // second open (a crash right after recovery) sees the
            // identical prefix with nothing left to truncate.
            if cut as u64 > ends.get(expected.wrapping_sub(1)).copied().unwrap_or(0) {
                prop_assert!(storage.sync_count() > 0);
            }
            drop(reopened);
            let syncs_after_first = storage.sync_count();
            let mut again = Wal::open(storage.clone()).unwrap();
            prop_assert_eq!(again.records().unwrap().len(), expected);
            prop_assert_eq!(storage.sync_count(), syncs_after_first);
        }

        /// Recovery never panics on arbitrary garbage.
        #[test]
        fn prop_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            let storage = MemStorage::new();
            storage.replace(bytes);
            let mut wal = Wal::open(storage).unwrap();
            let _ = wal.records().unwrap();
        }
    }
}
