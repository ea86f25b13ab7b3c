//! The client side of the validator's transaction-ingress protocol, and
//! the seeded transaction payloads the load generator sends.
//!
//! A connection speaks exactly what `mahimahi_node::TxClient` speaks — a
//! hello frame carrying [`CLIENT_PEER`], then length-prefixed
//! [`Envelope::TxBatch`] frames up and [`Envelope::TxReceipt`] frames down
//! — but reads into its own buffer, so a poll that ends between two reads
//! never loses the framing.

use mahimahi_node::CLIENT_PEER;
use mahimahi_types::{Decode, Encode, Envelope, Transaction, TxReceipt};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Bits of a transaction id below the connection index.
const SEQUENCE_BITS: u32 = 40;

/// The id of the `sequence`-th transaction sent on connection `conn`.
pub fn tx_id(conn: usize, sequence: u64) -> u64 {
    ((conn as u64) << SEQUENCE_BITS) | sequence
}

/// Splits a transaction id into `(connection, sequence)`.
pub fn split_id(id: u64) -> (usize, u64) {
    (
        (id >> SEQUENCE_BITS) as usize,
        id & ((1 << SEQUENCE_BITS) - 1),
    )
}

/// The seeded 512-byte payload template: bytes 0..8 carry the id
/// (`Transaction::benchmark_id` reads them back), the rest is a
/// pseudo-random stream of the seed, so transactions differ across seeds
/// and every committed payload can be checked byte for byte.
#[derive(Clone)]
pub struct Payloads {
    template: Vec<u8>,
}

impl Payloads {
    pub fn new(seed: u64) -> Self {
        let mut template = vec![0u8; Transaction::BENCHMARK_SIZE];
        let mut state = seed;
        for chunk in template[8..].chunks_mut(8) {
            let word = splitmix64(&mut state).to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
        Payloads { template }
    }

    /// The transaction with id `id`.
    pub fn tx(&self, id: u64) -> Transaction {
        let mut payload = self.template.clone();
        payload[..8].copy_from_slice(&id.to_le_bytes());
        Transaction::new(payload)
    }

    /// Whether `transaction` is exactly what [`Self::tx`] produced for its
    /// id.
    pub fn is_intact(&self, transaction: &Transaction) -> bool {
        let bytes = transaction.as_bytes();
        bytes.len() == self.template.len() && bytes[8..] == self.template[8..]
    }
}

/// One step of the SplitMix64 generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A client connection to one validator.
pub struct Conn {
    stream: TcpStream,
    buffer: Vec<u8>,
}

impl Conn {
    /// Dials `addr` and sends the client hello.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        write_frame(&mut stream, &CLIENT_PEER.to_le_bytes())?;
        Ok(Conn {
            stream,
            buffer: Vec::with_capacity(64 * 1024),
        })
    }

    /// Sends one batch as an `Envelope::TxBatch` frame.
    pub fn send(&mut self, batch: Vec<Transaction>) -> std::io::Result<()> {
        write_frame(&mut self.stream, &Envelope::TxBatch(batch).to_bytes_vec())
    }

    /// Reads receipts until `until`, calling `on_receipt` with each one and
    /// the instant it was read.
    pub fn poll(
        &mut self,
        until: Instant,
        mut on_receipt: impl FnMut(TxReceipt, Instant),
    ) -> std::io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            self.parse(&mut on_receipt)?;
            let now = Instant::now();
            let Some(remaining) = until.checked_duration_since(now).filter(|d| !d.is_zero()) else {
                return Ok(());
            };
            self.stream
                .set_read_timeout(Some(remaining.max(Duration::from_micros(100))))?;
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "validator closed the client connection",
                    ))
                }
                Ok(read) => self.buffer.extend_from_slice(&chunk[..read]),
                Err(error)
                    if matches!(
                        error.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(error) => return Err(error),
            }
        }
    }

    /// Decodes every complete frame in the buffer.
    fn parse(&mut self, on_receipt: &mut impl FnMut(TxReceipt, Instant)) -> std::io::Result<()> {
        let now = Instant::now();
        let mut at = 0;
        while self.buffer.len() - at >= 4 {
            let length = u32::from_le_bytes(self.buffer[at..at + 4].try_into().expect("4 bytes"));
            let end = at + 4 + length as usize;
            if self.buffer.len() < end {
                break;
            }
            match Envelope::from_bytes_exact(&self.buffer[at + 4..end]) {
                Ok(Envelope::TxReceipt(receipt)) => on_receipt(receipt, now),
                other => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("unexpected frame from validator: {other:?}"),
                    ))
                }
            }
            at = end;
        }
        self.buffer.drain(..at);
        Ok(())
    }
}

/// Writes one length-prefixed frame.
fn write_frame(stream: &mut TcpStream, frame: &[u8]) -> std::io::Result<()> {
    let mut bytes = Vec::with_capacity(frame.len() + 4);
    bytes.extend_from_slice(&(frame.len() as u32).to_le_bytes());
    bytes.extend_from_slice(frame);
    stream.write_all(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_through_the_payload() {
        let payloads = Payloads::new(7);
        let id = tx_id(1, 12_345);
        let transaction = payloads.tx(id);
        assert_eq!(transaction.len(), Transaction::BENCHMARK_SIZE);
        assert_eq!(transaction.benchmark_id(), Some(id));
        assert_eq!(split_id(id), (1, 12_345));
        assert!(payloads.is_intact(&transaction));
        assert!(!Payloads::new(8).is_intact(&transaction));
    }

    #[test]
    fn partial_frames_stay_buffered_across_polls() {
        // A fake validator that writes one receipt frame in two pieces with
        // a pause between them: the first poll ends mid-frame, the second
        // completes it.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut socket, _) = listener.accept().unwrap();
            let mut hello = [0u8; 8];
            socket.read_exact(&mut hello).unwrap();
            let receipt =
                Envelope::TxReceipt(TxReceipt::Committed { tags: vec![5] }).to_bytes_vec();
            let mut frame = (receipt.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&receipt);
            socket.write_all(&frame[..3]).unwrap();
            std::thread::sleep(Duration::from_millis(150));
            socket.write_all(&frame[3..]).unwrap();
            std::thread::sleep(Duration::from_millis(1_000));
        });
        let mut conn = Conn::connect(addr).unwrap();
        let mut seen = Vec::new();
        conn.poll(Instant::now() + Duration::from_millis(50), |r, _| {
            seen.push(r)
        })
        .unwrap();
        assert!(seen.is_empty());
        conn.poll(Instant::now() + Duration::from_millis(400), |r, _| {
            seen.push(r)
        })
        .unwrap();
        assert_eq!(seen, vec![TxReceipt::Committed { tags: vec![5] }]);
        server.join().unwrap();
    }
}
