//! Private per-core L1 cache model and software-assisted coherence policy.
//!
//! Table 5 of the paper configures each NDP core with a private 16 KB, 2-way,
//! 64 B-line L1 data cache with a 4-cycle hit latency and 23/47 pJ per hit/miss.
//! The baseline NDP system has no hardware coherence: the programmer (or OS) marks
//! data as thread-private, shared read-only, or shared read-write, and shared
//! read-write data is never cached ([`DataClass`]).

use syncron_sim::stats::Counter;
use syncron_sim::time::{Freq, Time};
use syncron_sim::Addr;

/// Software-assisted coherence data classification (Section 2.1 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum DataClass {
    /// Thread-private data; cacheable in the owning core's L1.
    #[default]
    Private,
    /// Shared data that is only read during parallel execution; cacheable everywhere.
    SharedReadOnly,
    /// Shared read-write data; **uncacheable** under software-assisted coherence, every
    /// access goes to memory.
    SharedReadWrite,
}

impl DataClass {
    /// Whether this class of data may live in a private L1 cache.
    pub fn cacheable(self) -> bool {
        !matches!(self, DataClass::SharedReadWrite)
    }
}

/// Configuration of an L1 cache.
///
/// `ways` and `line_bytes` must be at least 1: [`CacheConfig::sets`] divides by
/// both (`NdpConfig::validate` in `syncron-system` rejects a zero in either).
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (number of ways per set).
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Latency of a hit.
    pub hit_latency: Time,
    /// Energy of a hit, in picojoules.
    pub hit_pj: f64,
    /// Energy of a miss (tag probe + fill), in picojoules.
    pub miss_pj: f64,
}

impl CacheConfig {
    /// The NDP-core L1 configuration from Table 5: 16 KB, 2-way, 64 B lines, 4-cycle
    /// hit at 2.5 GHz, 23/47 pJ per hit/miss.
    pub fn ndp_l1() -> Self {
        CacheConfig {
            size_bytes: 16 * 1024,
            ways: 2,
            line_bytes: 64,
            hit_latency: Freq::ghz(2.5).cycles_to_ps(4),
            hit_pj: 23.0,
            miss_pj: 47.0,
        }
    }

    /// A larger L1 configuration used for the CPU-socket baseline of Table 1
    /// (32 KB, 8-way, typical server L1).
    pub fn cpu_l1() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            ways: 8,
            line_bytes: 64,
            hit_latency: Freq::ghz(2.5).cycles_to_ps(4),
            hit_pj: 30.0,
            miss_pj: 60.0,
        }
    }

    /// Number of sets implied by the configuration.
    pub fn sets(&self) -> usize {
        (self.size_bytes / self.line_bytes / self.ways).max(1)
    }
}

/// Result of a cache access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled (possibly evicting another line).
    Miss,
}

impl CacheOutcome {
    /// Returns `true` for [`CacheOutcome::Hit`].
    pub fn is_hit(self) -> bool {
        matches!(self, CacheOutcome::Hit)
    }
}

/// Counters maintained by an [`L1Cache`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Number of hits.
    pub hits: Counter,
    /// Number of misses.
    pub misses: Counter,
    /// Number of evictions caused by fills.
    pub evictions: Counter,
    /// Number of lines invalidated externally.
    pub invalidations: Counter,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits.get() + self.misses.get()
    }

    /// Hit ratio in `[0, 1]`, or 0 if no accesses were made.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.hits.get() as f64 / total as f64
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Way {
    tag: u64,
    valid: bool,
    lru: u64,
}

/// A set-associative, write-allocate, LRU L1 cache model.
///
/// The model tracks presence only (tags), not data contents: functional data lives in
/// the workload structures, the cache decides hit/miss latency and energy.
///
/// The ways live in one flat array indexed `set * ways + way`, allocated on the
/// first [`L1Cache::access`]. A 4096-core machine builds 4096 caches, most of
/// which see few or no accesses, so an untouched cache costs no heap at all.
///
/// # Example
///
/// ```
/// use syncron_mem::cache::{CacheConfig, L1Cache};
/// use syncron_sim::Addr;
///
/// let mut l1 = L1Cache::new(CacheConfig::ndp_l1());
/// assert!(!l1.access(Addr(0x100), false).is_hit());
/// assert!(l1.access(Addr(0x104), true).is_hit()); // same 64-byte line
/// ```
#[derive(Clone, Debug)]
pub struct L1Cache {
    config: CacheConfig,
    sets: usize,
    /// `sets * config.ways` ways once the cache has been accessed; empty before.
    ways: Vec<Way>,
    stats: CacheStats,
    tick: u64,
}

impl L1Cache {
    /// Creates an empty cache. No way storage is allocated until the first access.
    pub fn new(config: CacheConfig) -> Self {
        L1Cache {
            config,
            sets: config.sets(),
            ways: Vec::new(),
            stats: CacheStats::default(),
            tick: 0,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Latency of a hit.
    pub fn hit_latency(&self) -> Time {
        self.config.hit_latency
    }

    /// The index range of `addr`'s set in `self.ways`, and `addr`'s tag.
    fn set_and_tag(&self, addr: Addr) -> (std::ops::Range<usize>, u64) {
        let line = addr.value() / self.config.line_bytes as u64;
        let set = (line as usize) % self.sets;
        let tag = line / self.sets as u64;
        let first = set * self.config.ways;
        (first..first + self.config.ways, tag)
    }

    /// Performs an access (the `write` flag only affects statistics; the model is
    /// write-allocate so reads and writes fill identically). Returns hit or miss;
    /// a miss fills the line, evicting the LRU way if necessary.
    pub fn access(&mut self, addr: Addr, _write: bool) -> CacheOutcome {
        if self.ways.is_empty() {
            self.ways = vec![Way::default(); self.sets * self.config.ways];
        }
        self.tick += 1;
        let (range, tag) = self.set_and_tag(addr);
        let set = &mut self.ways[range];
        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.lru = self.tick;
            self.stats.hits.inc();
            return CacheOutcome::Hit;
        }
        self.stats.misses.inc();
        // Fill: choose an invalid way, else the LRU way.
        let victim = if let Some(idx) = set.iter().position(|w| !w.valid) {
            idx
        } else {
            self.stats.evictions.inc();
            set.iter()
                .enumerate()
                .min_by_key(|(_, w)| w.lru)
                .map(|(i, _)| i)
                .unwrap_or(0)
        };
        set[victim] = Way {
            tag,
            valid: true,
            lru: self.tick,
        };
        CacheOutcome::Miss
    }

    /// Probes for a line without updating LRU state or statistics.
    pub fn contains(&self, addr: Addr) -> bool {
        let (range, tag) = self.set_and_tag(addr);
        self.ways
            .get(range)
            .is_some_and(|set| set.iter().any(|w| w.valid && w.tag == tag))
    }

    /// Invalidates a line if present; returns whether it was present.
    pub fn invalidate(&mut self, addr: Addr) -> bool {
        let (range, tag) = self.set_and_tag(addr);
        let Some(set) = self.ways.get_mut(range) else {
            return false;
        };
        for way in set {
            if way.valid && way.tag == tag {
                way.valid = false;
                self.stats.invalidations.inc();
                return true;
            }
        }
        false
    }

    /// Invalidates the entire cache (used when a kernel is offloaded and the core's
    /// cached thread-private data becomes stale).
    pub fn flush(&mut self) {
        for way in &mut self.ways {
            way.valid = false;
        }
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Total cache energy in picojoules (hits × hit energy + misses × miss energy).
    pub fn energy_pj(&self) -> f64 {
        self.stats.hits.get() as f64 * self.config.hit_pj
            + self.stats.misses.get() as f64 * self.config.miss_pj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_class_cacheability_matches_paper() {
        assert!(DataClass::Private.cacheable());
        assert!(DataClass::SharedReadOnly.cacheable());
        assert!(!DataClass::SharedReadWrite.cacheable());
    }

    #[test]
    fn ndp_l1_matches_table5() {
        let cfg = CacheConfig::ndp_l1();
        assert_eq!(cfg.size_bytes, 16 * 1024);
        assert_eq!(cfg.ways, 2);
        assert_eq!(cfg.line_bytes, 64);
        assert_eq!(cfg.hit_latency, Time::from_ps(1600)); // 4 cycles @ 2.5 GHz
        assert_eq!(cfg.hit_pj, 23.0);
        assert_eq!(cfg.miss_pj, 47.0);
        assert_eq!(cfg.sets(), 128);
    }

    #[test]
    fn same_line_hits_after_fill() {
        let mut l1 = L1Cache::new(CacheConfig::ndp_l1());
        assert_eq!(l1.access(Addr(0x1000), false), CacheOutcome::Miss);
        assert_eq!(l1.access(Addr(0x103F), true), CacheOutcome::Hit);
        assert_eq!(l1.access(Addr(0x1040), false), CacheOutcome::Miss);
        assert_eq!(l1.stats().hits.get(), 1);
        assert_eq!(l1.stats().misses.get(), 2);
        assert!(l1.stats().hit_ratio() > 0.3);
    }

    #[test]
    fn lru_eviction_within_set() {
        let cfg = CacheConfig::ndp_l1();
        let mut l1 = L1Cache::new(cfg);
        let sets = cfg.sets() as u64;
        let line = |i: u64| Addr(i * sets * 64); // all map to set 0
        assert_eq!(l1.access(line(0), false), CacheOutcome::Miss);
        assert_eq!(l1.access(line(1), false), CacheOutcome::Miss);
        // Touch line 0 so line 1 becomes LRU.
        assert_eq!(l1.access(line(0), false), CacheOutcome::Hit);
        // Fill a third line: must evict line 1.
        assert_eq!(l1.access(line(2), false), CacheOutcome::Miss);
        assert!(l1.contains(line(0)));
        assert!(!l1.contains(line(1)));
        assert!(l1.contains(line(2)));
        assert_eq!(l1.stats().evictions.get(), 1);
    }

    #[test]
    fn invalidate_and_flush() {
        let mut l1 = L1Cache::new(CacheConfig::ndp_l1());
        l1.access(Addr(0), false);
        l1.access(Addr(4096), false);
        assert!(l1.invalidate(Addr(0)));
        assert!(!l1.invalidate(Addr(0)));
        assert!(!l1.contains(Addr(0)));
        assert!(l1.contains(Addr(4096)));
        l1.flush();
        assert!(!l1.contains(Addr(4096)));
        assert_eq!(l1.stats().invalidations.get(), 1);
    }

    #[test]
    fn energy_accumulates() {
        let mut l1 = L1Cache::new(CacheConfig::ndp_l1());
        l1.access(Addr(0), false); // miss: 47 pJ
        l1.access(Addr(0), false); // hit: 23 pJ
        assert!((l1.energy_pj() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn storage_is_allocated_on_first_access() {
        let cfg = CacheConfig::ndp_l1();
        let mut l1 = L1Cache::new(cfg);
        assert_eq!(l1.ways.len(), 0);
        assert!(!l1.contains(Addr(0x40)));
        assert!(!l1.invalidate(Addr(0x40)));
        l1.flush();
        assert_eq!(l1.ways.len(), 0);
        assert_eq!(l1.stats().accesses(), 0);
        assert_eq!(l1.stats().invalidations.get(), 0);
        assert_eq!(l1.energy_pj(), 0.0);

        assert_eq!(l1.access(Addr(0x40), false), CacheOutcome::Miss);
        assert_eq!(l1.ways.len(), cfg.sets() * cfg.ways);
        assert!(l1.contains(Addr(0x40)));
        assert_eq!(l1.stats().misses.get(), 1);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let cfg = CacheConfig::ndp_l1();
        let mut l1 = L1Cache::new(cfg);
        let lines = (cfg.size_bytes / cfg.line_bytes) as u64 * 4;
        for round in 0..2 {
            for i in 0..lines {
                let outcome = l1.access(Addr(i * 64), false);
                if round == 0 {
                    assert_eq!(outcome, CacheOutcome::Miss);
                }
            }
        }
        // Working set 4x the capacity with LRU: second round also misses everywhere.
        assert_eq!(l1.stats().hits.get(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use syncron_sim::SimRng;

    // Deterministic stand-ins for proptest properties (no crates.io access): many
    // randomized access streams driven by the in-tree RNG.

    /// The most recently accessed line is always present afterwards, hit/miss
    /// bookkeeping matches the number of accesses, and the number of distinct
    /// resident lines never exceeds the cache capacity.
    #[test]
    fn capacity_respected() {
        for case in 0..32u64 {
            let mut rng = SimRng::seed_from(0x0CAC_4E00 + case);
            let count = 1 + rng.gen_range(499) as usize;
            let addrs: Vec<u64> = (0..count).map(|_| rng.gen_range(1 << 16)).collect();
            let cfg = CacheConfig::ndp_l1();
            let mut l1 = L1Cache::new(cfg);
            for &a in &addrs {
                l1.access(Addr(a), false);
                assert!(l1.contains(Addr(a)));
            }
            let mut distinct: Vec<u64> = addrs.iter().map(|a| Addr(*a).line_index()).collect();
            distinct.sort_unstable();
            distinct.dedup();
            let resident = distinct
                .iter()
                .filter(|&&line| l1.contains(Addr(line * 64)))
                .count();
            assert!(resident <= cfg.sets() * cfg.ways);
            assert_eq!(l1.stats().accesses(), addrs.len() as u64);
        }
    }

    /// The nested one-vector-per-set layout the flat, lazily allocated
    /// [`L1Cache`] replaced, kept as a reference model.
    struct NestedL1 {
        config: CacheConfig,
        sets: Vec<Vec<Way>>,
        stats: CacheStats,
        tick: u64,
    }

    impl NestedL1 {
        fn new(config: CacheConfig) -> Self {
            NestedL1 {
                config,
                sets: vec![vec![Way::default(); config.ways]; config.sets()],
                stats: CacheStats::default(),
                tick: 0,
            }
        }

        fn set_and_tag(&self, addr: Addr) -> (usize, u64) {
            let line = addr.value() / self.config.line_bytes as u64;
            let set = (line as usize) % self.sets.len();
            (set, line / self.sets.len() as u64)
        }

        fn access(&mut self, addr: Addr) -> CacheOutcome {
            self.tick += 1;
            let (set_idx, tag) = self.set_and_tag(addr);
            let set = &mut self.sets[set_idx];
            if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
                way.lru = self.tick;
                self.stats.hits.inc();
                return CacheOutcome::Hit;
            }
            self.stats.misses.inc();
            let victim = if let Some(idx) = set.iter().position(|w| !w.valid) {
                idx
            } else {
                self.stats.evictions.inc();
                set.iter()
                    .enumerate()
                    .min_by_key(|(_, w)| w.lru)
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            };
            set[victim] = Way {
                tag,
                valid: true,
                lru: self.tick,
            };
            CacheOutcome::Miss
        }

        fn contains(&self, addr: Addr) -> bool {
            let (set_idx, tag) = self.set_and_tag(addr);
            self.sets[set_idx].iter().any(|w| w.valid && w.tag == tag)
        }

        fn invalidate(&mut self, addr: Addr) -> bool {
            let (set_idx, tag) = self.set_and_tag(addr);
            for way in &mut self.sets[set_idx] {
                if way.valid && way.tag == tag {
                    way.valid = false;
                    self.stats.invalidations.inc();
                    return true;
                }
            }
            false
        }

        fn flush(&mut self) {
            for way in self.sets.iter_mut().flatten() {
                way.valid = false;
            }
        }

        fn energy_pj(&self) -> f64 {
            self.stats.hits.get() as f64 * self.config.hit_pj
                + self.stats.misses.get() as f64 * self.config.miss_pj
        }
    }

    fn same_stats(a: &CacheStats, b: &CacheStats) -> bool {
        a.hits.get() == b.hits.get()
            && a.misses.get() == b.misses.get()
            && a.evictions.get() == b.evictions.get()
            && a.invalidations.get() == b.invalidations.get()
    }

    /// Seeded streams of accesses, probes, invalidations and flushes give the
    /// same outcome, the same answers, the same stats and the same energy on the
    /// flat, lazily allocated cache as on the nested reference layout, after
    /// every step. Streams start with non-access operations so the unallocated
    /// state is exercised too.
    #[test]
    fn flat_layout_matches_nested_reference() {
        let one_set = CacheConfig {
            size_bytes: 4 * 64,
            ways: 4,
            ..CacheConfig::ndp_l1()
        };
        assert_eq!(one_set.sets(), 1);
        for (ci, cfg) in [CacheConfig::ndp_l1(), CacheConfig::cpu_l1(), one_set]
            .into_iter()
            .enumerate()
        {
            // Twice the capacity, so streams both hit and evict.
            let span = 2 * (cfg.sets() * cfg.ways * cfg.line_bytes) as u64;
            for case in 0..16u64 {
                let mut rng = SimRng::seed_from(0xF1A7_0000 + (ci as u64) * 100 + case);
                let mut flat = L1Cache::new(cfg);
                let mut nested = NestedL1::new(cfg);
                for step in 0..2_000 {
                    let addr = Addr(rng.gen_range(span));
                    let op = rng.gen_range(100);
                    let access_allowed = step >= 8;
                    match op {
                        0..=69 if access_allowed => {
                            let write = op < 35;
                            assert_eq!(flat.access(addr, write), nested.access(addr));
                        }
                        0..=84 => assert_eq!(flat.contains(addr), nested.contains(addr)),
                        85..=98 => assert_eq!(flat.invalidate(addr), nested.invalidate(addr)),
                        _ => {
                            flat.flush();
                            nested.flush();
                        }
                    }
                    let probe = Addr(rng.gen_range(span));
                    assert_eq!(flat.contains(probe), nested.contains(probe));
                    assert!(
                        same_stats(flat.stats(), &nested.stats),
                        "cfg {ci} case {case} step {step}: {:?} vs {:?}",
                        flat.stats(),
                        nested.stats
                    );
                    assert_eq!(flat.energy_pj().to_bits(), nested.energy_pj().to_bits());
                }
            }
        }
    }

    /// Repeatedly accessing a working set that fits in one way of every set always
    /// hits after the first pass.
    #[test]
    fn small_working_set_always_hits() {
        for seed in (0u64..1000).step_by(37) {
            let cfg = CacheConfig::ndp_l1();
            let mut l1 = L1Cache::new(cfg);
            let lines = (cfg.sets() / 2) as u64;
            let base = seed * 64;
            for i in 0..lines {
                l1.access(Addr(base + i * 64), false);
            }
            for i in 0..lines {
                assert!(l1.access(Addr(base + i * 64), false).is_hit());
            }
        }
    }
}
