//! Sparse snapshots of a [`MemoryHierarchy`]: save its live state, restore
//! it into another hierarchy of the same configuration.

use crate::cache::CacheSnapshot;
use crate::{MemoryConfig, MemoryHierarchy, OutstandingMiss, ThreadMemStats, Tlb};
use std::fmt;
use std::mem::size_of;

/// The live state of a [`MemoryHierarchy`], taken by
/// [`MemoryHierarchy::snapshot`] and applied by [`MemoryHierarchy::restore`].
///
/// It stores only what is not power-on state:
///
/// - for each cache, its filled ways (slot index plus tag and LRU stamp)
///   with its LRU tick and counters; every other slot is power-on;
/// - the per-thread TLBs as they are;
/// - the in-flight fills as one list sorted by `(ready_at, line)`, from
///   which a restore rebuilds the MSHR map, its expiry queues and the
///   per-thread MLP counts;
/// - the per-thread statistics.
///
/// After a functional prewarm most L2 ways are still empty, so this is a
/// fraction of the size of a clone of the hierarchy.
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
pub struct MemorySnapshot {
    config: MemoryConfig,
    il1: CacheSnapshot,
    dl1: CacheSnapshot,
    l2: CacheSnapshot,
    fills: Vec<(u64, OutstandingMiss)>,
    dtlb: Vec<Tlb>,
    stats: Vec<ThreadMemStats>,
}

impl MemorySnapshot {
    /// Bytes held in the snapshot's buffers, counted as element size ×
    /// length for each buffer (allocator slack and spare capacity are not
    /// counted), so the figure is deterministic.
    pub fn heap_bytes(&self) -> usize {
        self.il1.heap_bytes()
            + self.dl1.heap_bytes()
            + self.l2.heap_bytes()
            + self.fills.len() * size_of::<(u64, OutstandingMiss)>()
            + self.dtlb.len() * size_of::<Tlb>()
            + self.dtlb.iter().map(Tlb::heap_bytes).sum::<usize>()
            + self.stats.len() * size_of::<ThreadMemStats>()
    }
}

/// Why [`MemoryHierarchy::restore`] refused a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The snapshot's memory configuration differs from the hierarchy's.
    Config,
    /// The snapshot's thread count differs from the hierarchy's.
    ThreadCount {
        /// Threads of the hierarchy being restored.
        threads: usize,
        /// Threads of the hierarchy the snapshot was taken from.
        snapshot: usize,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::Config => {
                write!(f, "snapshot was taken with another memory configuration")
            }
            RestoreError::ThreadCount { threads, snapshot } => write!(
                f,
                "snapshot was taken with {snapshot} threads, not {threads}"
            ),
        }
    }
}

impl std::error::Error for RestoreError {}

impl MemoryHierarchy {
    /// Saves the hierarchy's state as a sparse [`MemorySnapshot`].
    pub fn snapshot(&self) -> MemorySnapshot {
        MemorySnapshot {
            config: self.config.clone(),
            il1: self.il1.snapshot(),
            dl1: self.dl1.snapshot(),
            l2: self.l2.snapshot(),
            fills: self.mshr.fills(),
            dtlb: self.dtlb.clone(),
            stats: self.stats.clone(),
        }
    }

    /// Returns the hierarchy to the state `snapshot` was taken from,
    /// reusing its cache arrays. From then on it behaves identically to
    /// the hierarchy the snapshot came from: every access outcome, MLP
    /// sample, fill deadline and statistic matches. Only the internal
    /// layout of the MSHR map and expiry queues may differ, and nothing
    /// observes it: lookups never iterate the map, and the queues pop in
    /// the total `(ready_at, line)` order whatever their layout.
    ///
    /// # Errors
    ///
    /// Returns a [`RestoreError`], leaving the hierarchy untouched, when
    /// the snapshot's configuration or thread count differs from this
    /// hierarchy's.
    pub fn restore(&mut self, snapshot: &MemorySnapshot) -> Result<(), RestoreError> {
        if snapshot.config != self.config {
            return Err(RestoreError::Config);
        }
        if snapshot.stats.len() != self.stats.len() {
            return Err(RestoreError::ThreadCount {
                threads: self.stats.len(),
                snapshot: snapshot.stats.len(),
            });
        }
        self.il1.restore(&snapshot.il1);
        self.dl1.restore(&snapshot.dl1);
        self.l2.restore(&snapshot.l2);
        self.mshr.restore(&snapshot.fills);
        self.dtlb.clone_from(&snapshot.dtlb);
        self.stats.copy_from_slice(&snapshot.stats);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    //! Differential tests: a hierarchy restored from a snapshot is driven
    //! side by side with the one the snapshot came from, and every
    //! observable result must match.

    use super::*;
    use crate::{AccessOutcome, CacheConfig, HitLevel};
    use smt_isa::ThreadId;
    use std::ops::Range;

    const THREADS: usize = 2;

    /// Small caches and TLBs, so short streams evict, re-miss and
    /// coalesce; the baseline latencies keep the 21-cycle L2 and
    /// 321-cycle memory fill deadlines.
    fn config() -> MemoryConfig {
        let small = |size_bytes, ways, latency| CacheConfig {
            size_bytes,
            ways,
            line_bytes: 64,
            latency,
            banks: 1,
        };
        MemoryConfig {
            il1: small(2 * 1024, 2, 1),
            dl1: small(2 * 1024, 2, 1),
            l2: small(16 * 1024, 4, 20),
            dtlb_entries: 8,
            ..MemoryConfig::default()
        }
    }

    /// SplitMix64: a fixed, seedable access stream.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }

        /// Half the accesses go to a 16-line hot region, which stays
        /// L1-resident and so hits fills still in flight; the rest spread
        /// over 128 KiB (16 pages), which misses the caches and TLBs.
        fn data_address(&mut self) -> u64 {
            if self.below(2) == 0 {
                0x4000 + self.below(16 * 64)
            } else {
                0x10_0000 + self.below(128 * 1024)
            }
        }

        /// Code shares its 32 KiB with the start of the data region, so a
        /// data access can hit the L2 on a line a fetch brought in: the
        /// only way to start a 21-cycle fill at cycle 0.
        fn inst_address(&mut self) -> u64 {
            0x10_0000 + self.below(32 * 1024)
        }
    }

    /// One observable result.
    #[derive(Debug, PartialEq, Eq)]
    enum Event {
        Data(AccessOutcome),
        Inst(AccessOutcome),
        Mlp(Vec<u32>),
        NextFill(Option<u64>),
    }

    /// Issues accesses the way `Simulator::prewarm` does: all at cycle 0.
    fn prewarm(mem: &mut MemoryHierarchy, seed: u64) {
        let mut rng = Rng(seed);
        for i in 0..4_000 {
            let t = ThreadId::new(i % THREADS);
            if rng.below(4) == 0 {
                mem.access_inst(t, rng.inst_address(), 0);
            } else {
                let write = rng.below(4) == 0;
                mem.access_data(t, rng.data_address(), write, 0);
            }
        }
    }

    /// Drives a timed stream over `cycles` and logs every result: up to
    /// three accesses a cycle, the MLP sampled on one cycle in eight and
    /// expired fills collected on one in sixteen. Most fills therefore
    /// expire unpurged and are collected early by a later access, which
    /// strands their expiry-queue nodes.
    fn run(mem: &mut MemoryHierarchy, seed: u64, cycles: Range<u64>) -> Vec<Event> {
        let mut rng = Rng(seed);
        let mut events = Vec::new();
        for now in cycles {
            for _ in 0..rng.below(4) {
                let t = ThreadId::new(rng.below(THREADS as u64) as usize);
                events.push(if rng.below(4) == 0 {
                    Event::Inst(mem.access_inst(t, rng.inst_address(), now))
                } else {
                    let write = rng.below(4) == 0;
                    Event::Data(mem.access_data(t, rng.data_address(), write, now))
                });
            }
            match rng.below(16) {
                0 => mem.collect_expired_fills(now),
                1 | 2 => {
                    let mut counts = [0; THREADS];
                    mem.outstanding_l2_misses_into(now, &mut counts);
                    events.push(Event::Mlp(counts.to_vec()));
                }
                3..=5 => events.push(Event::NextFill(mem.next_fill_ready_at())),
                _ => {}
            }
        }
        events
    }

    /// Runs the same timed stream through both hierarchies and checks
    /// every result, the final statistics and the final state.
    fn assert_same_behaviour(a: &mut MemoryHierarchy, b: &mut MemoryHierarchy, cycles: Range<u64>) {
        let events = run(a, 7, cycles.clone());
        assert_eq!(events, run(b, 7, cycles));
        for t in 0..THREADS {
            let t = ThreadId::new(t);
            assert_eq!(a.thread_stats(t), b.thread_stats(t));
        }
        assert_eq!(a.cache_stats(), b.cache_stats());
        assert_eq!(a.snapshot(), b.snapshot());
        // The stream must exercise every kind of result, and both fill
        // levels.
        let level = |l| {
            events
                .iter()
                .any(|e| matches!(e, Event::Data(o) if o.level == l))
        };
        assert!(level(HitLevel::L1) && level(HitLevel::L2) && level(HitLevel::Memory));
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::Mlp(c) if c.iter().any(|&n| n > 0))));
        assert!(events.iter().any(|e| matches!(e, Event::NextFill(Some(_)))));
    }

    #[test]
    fn snapshot_after_prewarm_restores_into_a_dirty_hierarchy() {
        let mut a = MemoryHierarchy::new(&config(), THREADS);
        prewarm(&mut a, 1);
        let snapshot = a.snapshot();
        // Prewarm leaves fills in flight until cycles 21 and 321.
        let deadlines = |ready_at| snapshot.fills.iter().any(|(_, f)| f.ready_at == ready_at);
        assert!(deadlines(21) && deadlines(321));

        let mut b = MemoryHierarchy::new(&config(), THREADS);
        run(&mut b, 2, 0..400);
        b.restore(&snapshot).unwrap();
        assert_eq!(b.snapshot(), snapshot);
        assert_same_behaviour(&mut a, &mut b, 0..1_000);
    }

    #[test]
    fn snapshot_mid_run_drops_stale_queue_nodes_without_effect() {
        let mut a = MemoryHierarchy::new(&config(), THREADS);
        prewarm(&mut a, 1);
        run(&mut a, 3, 0..600);
        // Stale nodes live only until the next purge passes them, so step
        // on until an early collection has just stranded some.
        let mut now = 600;
        while a.mshr.stale_nodes() == 0 {
            assert!(now < 2_000, "the stream must strand queue nodes");
            run(&mut a, now, now..now + 1);
            now += 1;
        }
        let snapshot = a.snapshot();

        let mut b = MemoryHierarchy::new(&config(), THREADS);
        prewarm(&mut b, 4);
        b.restore(&snapshot).unwrap();
        assert_eq!(b.mshr.stale_nodes(), 0);
        assert_same_behaviour(&mut a, &mut b, now..now + 1_000);
    }
}
