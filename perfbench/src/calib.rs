//! A fixed reference computation that measures how fast the host runs right now.
//!
//! An untraced timed pass runs one slice of it after every scenario, outside the
//! pass's own time, so slices and scenarios share the same moments of host
//! load. A slice does two kinds of work the simulator does: random reads and
//! writes over a table larger than the last-level cache, and hash-map updates
//! mixed with a chain of floating-point operations. It allocates nothing, so
//! the program's heap state cannot change its time, and its code is the
//! benchmark's own, so a change to the program cannot change it either.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Host time one slice is taken to need on the reference host; normalized
/// times are expressed on that host.
pub const REFERENCE_SLICE: Duration = Duration::from_millis(1);

/// Entries of the random-access table (32 MiB).
const TABLE_LEN: usize = 4 << 20;
/// Keys of the hash map.
const KEYS: u64 = 4096;

pub struct Calibration {
    table: Vec<u64>,
    /// Fixed hash keys, so every run hashes alike.
    counts: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    state: u64,
}

impl Calibration {
    pub fn new() -> Calibration {
        let table = (0..TABLE_LEN as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        Calibration {
            table,
            counts: (0..KEYS).map(|k| (k, 0)).collect(),
            state: 0x1234_5678_9ABC_DEF1,
        }
    }

    /// xorshift64: the same sequence in every run.
    fn next(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }

    /// Runs one slice and returns its host time.
    pub fn slice(&mut self) -> Duration {
        let start = Instant::now();
        let mut acc = 0u64;
        for _ in 0..30_000 {
            let i = (self.next() % TABLE_LEN as u64) as usize;
            acc = acc.wrapping_add(self.table[i]);
            self.table[i] = acc;
        }
        let mut chain = 1.0f64;
        for _ in 0..27_000 {
            let key = self.next() % KEYS;
            *self.counts.entry(key).or_insert(0) += 1;
            chain = chain * 1.000_000_1 + (key as f64).sqrt();
        }
        black_box((acc, chain));
        start.elapsed()
    }
}
