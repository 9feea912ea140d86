//! Replayable per-thread trace block store.
//!
//! [`TraceGenerator`] expands a profile into an infinite stream one
//! instruction at a time. The simulator's fetch stage used to invoke it
//! *inline*, on the critical path, once per fetched instruction, and threw
//! the decoded records away at commit.
//!
//! [`ThreadTrace`] moves generation off the critical path and makes the
//! recent stream replayable:
//!
//! * instructions are pre-generated in **blocks** of [`TRACE_BLOCK`]
//!   records, packed into 16-byte [`PackedInst`]s with the cold
//!   [`MemAccess`]/[`BranchInfo`] payloads in per-block sidecar
//!   struct-of-arrays lanes,
//! * blocks live in a small **ring** sized to the caller's maximum
//!   lookback, so the squash path can re-read recent sequence numbers
//!   while memory stays bounded on arbitrarily long runs and a handful of
//!   cache-hot block buffers are recycled for the whole run.
//!
//! The store is bit-exact: replayed records unpack to precisely what
//! [`TraceGenerator::next_inst`] streams, and the per-instruction
//! memory-phase bits reproduce the generator's lazily-observed phase
//! signal (see [`ThreadTrace::in_memory_phase`]).

use crate::generator::TraceGenerator;
use crate::profile::BenchmarkProfile;
use smt_isa::{BranchInfo, MemAccess, PackedInst};

/// Instructions per trace block. A power of two so seq→block arithmetic
/// is a shift and the in-block offset a mask.
pub const TRACE_BLOCK: usize = 256;

const BLOCK_SHIFT: u32 = TRACE_BLOCK.trailing_zeros();
const BLOCK_MASK: u64 = TRACE_BLOCK as u64 - 1;
const PHASE_WORDS: usize = TRACE_BLOCK / 64;

/// One pre-generated block of [`TRACE_BLOCK`] consecutive instructions:
/// the packed hot lane plus sidecar payload lanes indexed by
/// [`PackedInst::aux`] (mem and branch payloads are mutually exclusive in
/// generated streams, so one index serves both lanes).
#[derive(Debug, Default, Clone)]
struct TraceBlock {
    /// Sequence number of `insts[0]`.
    base_seq: u64,
    insts: Vec<PackedInst>,
    mem: Vec<MemAccess>,
    branches: Vec<BranchInfo>,
    /// Per-instruction memory-phase bit: the generator's phase *after*
    /// generating that instruction (the signal the lazily-generating
    /// pre-store code observed at its generation frontier).
    phase: [u64; PHASE_WORDS],
}

impl TraceBlock {
    /// (Re)fills this block with the next [`TRACE_BLOCK`] instructions of
    /// `gen`, reusing the lane allocations.
    fn fill(&mut self, gen: &mut TraceGenerator, base_seq: u64) {
        self.base_seq = base_seq;
        self.insts.clear();
        self.mem.clear();
        self.branches.clear();
        self.phase = [0; PHASE_WORDS];
        for i in 0..TRACE_BLOCK {
            let d = gen.next_inst();
            debug_assert!(
                d.mem.is_none() || d.branch.is_none(),
                "generated record carries both payloads"
            );
            let aux = if let Some(m) = d.mem {
                self.mem.push(m);
                self.mem.len() - 1
            } else if let Some(b) = d.branch {
                self.branches.push(b);
                self.branches.len() - 1
            } else {
                0
            };
            self.insts.push(PackedInst::pack(&d, aux as u16));
            if gen.in_memory_phase() {
                self.phase[i / 64] |= 1 << (i % 64);
            }
        }
    }

    #[inline]
    fn phase_bit(&self, off: usize) -> bool {
        self.phase[off / 64] & (1 << (off % 64)) != 0
    }
}

/// One instruction as served to the fetch stage: the packed hot core plus
/// its cold payloads read out of the sidecar lanes in the same block
/// lookup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// The 16-byte hot core.
    pub packed: PackedInst,
    /// Memory payload, for loads and stores.
    pub mem: Option<MemAccess>,
    /// Control-flow payload, for branches.
    pub branch: Option<BranchInfo>,
}

impl TraceRecord {
    /// Reassembles the full decoded record (tests and diagnostics; the
    /// pipeline consumes the parts directly).
    pub fn unpack(&self) -> smt_isa::DecodedInst {
        self.packed.unpack(self.mem, self.branch)
    }
}

/// A replayable, block-buffered view of one thread's trace.
///
/// Reads are seq-indexed and may revisit any sequence number within
/// `max_lookback` of the newest one served (the simulator's squash path
/// re-fetches squashed sequence numbers; records must replay
/// bit-identically). Reads at or past the generation frontier extend it
/// one whole block at a time — generation runs off the per-instruction
/// critical path.
///
/// # Examples
///
/// ```
/// use smt_workloads::{spec, ThreadTrace, TraceGenerator};
///
/// let p = spec::profile("gzip").unwrap();
/// let mut store = ThreadTrace::new(p, 7, 0, 512);
/// let mut stream = TraceGenerator::new(p, 7, 0);
/// for seq in 0..1000 {
///     assert_eq!(store.record(seq).unpack(), stream.next_inst());
/// }
/// // Rebinding restarts the stream from sequence 0.
/// store.rebind(p, 7, 0);
/// assert_eq!(store.record(0).unpack(), TraceGenerator::new(p, 7, 0).next_inst());
/// ```
#[derive(Debug)]
pub struct ThreadTrace {
    /// Generator positioned exactly at the generation frontier
    /// (`next_block * TRACE_BLOCK` instructions generated).
    gen: TraceGenerator,
    /// Ring of the most recent blocks, overlaid by block index.
    ring: Vec<TraceBlock>,
    /// Next block index to generate.
    next_block: u64,
    /// One past the newest sequence number served to the current run —
    /// the generation frontier the pre-store lazy path exposed, tracked
    /// for [`ThreadTrace::in_memory_phase`].
    requested_tip: u64,
    /// The generator's phase before the first instruction.
    initial_mem_phase: bool,
}

impl ThreadTrace {
    /// Creates a store for `profile`, seeded with `seed` on thread slot
    /// `slot` (the [`TraceGenerator::new`] parameters). `max_lookback`
    /// bounds how far behind the newest served sequence number reads may
    /// reach — the simulator's in-flight window span.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`BenchmarkProfile::validate`].
    pub fn new(profile: &BenchmarkProfile, seed: u64, slot: u64, max_lookback: u64) -> Self {
        let gen = TraceGenerator::new(profile, seed, slot);
        let ring_len = (max_lookback >> BLOCK_SHIFT) as usize + 2;
        ThreadTrace {
            initial_mem_phase: gen.in_memory_phase(),
            gen,
            ring: vec![TraceBlock::default(); ring_len],
            next_block: 0,
            requested_tip: 0,
        }
    }

    /// Rebinds the store for a fresh run of (profile, seed, slot): the
    /// stream restarts from a fresh generator at sequence 0, keeping the
    /// ring's block allocations. Stale ring slots are unreachable: every
    /// read at or past the rewound frontier regenerates its block first.
    pub fn rebind(&mut self, profile: &BenchmarkProfile, seed: u64, slot: u64) {
        self.gen = TraceGenerator::new(profile, seed, slot);
        self.initial_mem_phase = self.gen.in_memory_phase();
        self.next_block = 0;
        self.requested_tip = 0;
    }

    /// The profile driving this trace.
    pub fn profile(&self) -> &BenchmarkProfile {
        self.gen.profile()
    }

    /// A decorrelated generator twin over the same regions (functional
    /// cache warm-up; see [`TraceGenerator::decorrelated`]).
    pub fn decorrelated(&self, salt: u64) -> TraceGenerator {
        self.gen.decorrelated(salt)
    }

    /// `true` while the generation frontier of the *served* stream sits in
    /// a memory phase — bit-identical to what the pre-store lazy path
    /// reported: the generator's phase after generating the newest served
    /// instruction (or the initial phase before anything was served).
    /// Ground truth for the Table-5 experiment.
    pub fn in_memory_phase(&self) -> bool {
        if self.requested_tip == 0 {
            return self.initial_mem_phase;
        }
        let seq = self.requested_tip - 1;
        let block = self.block_ref(seq >> BLOCK_SHIFT);
        block.phase_bit((seq & BLOCK_MASK) as usize)
    }

    /// The packed record at `seq`, extending the generation frontier by
    /// whole blocks as needed. 16 bytes out of a contiguous lane — the
    /// burst-fetch hot call.
    #[inline]
    pub fn packed(&mut self, seq: u64) -> PackedInst {
        let block = self.block(seq >> BLOCK_SHIFT);
        let p = block.insts[(seq & BLOCK_MASK) as usize];
        self.served(seq);
        p
    }

    /// The fetch stage's hot read: the packed record at `seq` plus the
    /// effective address for loads/stores (0 otherwise), in one block
    /// lookup and at most 24 bytes moved. Branch payloads are *not*
    /// touched — the minority of records that need one fetch it with
    /// [`ThreadTrace::branch_payload`].
    #[inline]
    pub fn entry(&mut self, seq: u64) -> (PackedInst, u64) {
        let block = self.block(seq >> BLOCK_SHIFT);
        let packed = block.insts[(seq & BLOCK_MASK) as usize];
        let addr = if packed.has_mem() {
            block.mem[usize::from(packed.aux())].addr
        } else {
            0
        };
        self.served(seq);
        (packed, addr)
    }

    /// The branch payload of the record at `seq`, whose sidecar index the
    /// caller read from the packed record ([`PackedInst::aux`]). Only
    /// valid for records with [`PackedInst::has_branch`] set; the block
    /// must already be materialised (it was — the caller just read the
    /// packed record out of it).
    #[inline]
    pub fn branch_payload(&self, seq: u64, aux: u16) -> BranchInfo {
        self.block_ref(seq >> BLOCK_SHIFT).branches[usize::from(aux)]
    }

    /// The packed record *and* its sidecar payloads at `seq`, in one block
    /// lookup.
    #[inline]
    pub fn record(&mut self, seq: u64) -> TraceRecord {
        let block = self.block(seq >> BLOCK_SHIFT);
        let off = (seq & BLOCK_MASK) as usize;
        let packed = block.insts[off];
        let aux = usize::from(packed.aux());
        let (mem, branch) = if packed.has_mem() {
            (Some(block.mem[aux]), None)
        } else if packed.has_branch() {
            (None, Some(block.branches[aux]))
        } else {
            (None, None)
        };
        self.served(seq);
        TraceRecord {
            packed,
            mem,
            branch,
        }
    }

    #[inline]
    fn served(&mut self, seq: u64) {
        self.requested_tip = self.requested_tip.max(seq + 1);
    }

    /// Resident block `b`, generating forward to materialise it if needed.
    #[inline]
    fn block(&mut self, b: u64) -> &TraceBlock {
        while self.next_block <= b {
            let idx = self.next_block;
            let slot = (idx % self.ring.len() as u64) as usize;
            self.ring[slot].fill(&mut self.gen, idx << BLOCK_SHIFT);
            self.next_block += 1;
        }
        self.block_ref(b)
    }

    /// Resident block `b` without generating (the block must already be
    /// materialised — used by phase queries on the served frontier).
    #[inline]
    fn block_ref(&self, b: u64) -> &TraceBlock {
        let blk = &self.ring[(b % self.ring.len() as u64) as usize];
        debug_assert_eq!(
            blk.base_seq,
            b << BLOCK_SHIFT,
            "block evicted: read outside the declared max_lookback"
        );
        blk
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    fn gzip() -> &'static BenchmarkProfile {
        spec::profile("gzip").expect("registry profile")
    }

    #[test]
    fn replays_the_generator_stream_bit_identically() {
        let p = gzip();
        let mut store = ThreadTrace::new(p, 42, 0, 512);
        let mut gen = TraceGenerator::new(p, 42, 0);
        for seq in 0..5_000u64 {
            assert_eq!(store.record(seq).unpack(), gen.next_inst(), "seq {seq}");
        }
        // Lookback within the declared window replays identically.
        let again = store.record(4_600).unpack();
        let mut gen2 = TraceGenerator::new(p, 42, 0);
        for _ in 0..4_600 {
            gen2.next_inst();
        }
        assert_eq!(again, gen2.next_inst());
    }

    #[test]
    fn ring_recycles_blocks_over_long_streams() {
        let p = gzip();
        let mut store = ThreadTrace::new(p, 11, 0, 512);
        let total = (store.ring.len() * 40 * TRACE_BLOCK) as u64 + 17;
        let mut gen = TraceGenerator::new(p, 11, 0);
        for seq in 0..total {
            assert_eq!(store.record(seq).unpack(), gen.next_inst(), "seq {seq}");
            if seq > 600 && seq % 173 == 0 {
                // Lookback re-reads across recycled ring slots stay
                // bit-identical while within the declared window.
                let back = seq - 500;
                let a = store.record(back);
                let b = store.record(back);
                assert_eq!(a, b, "lookback at seq {back}");
            }
        }
        // A rebind replays the whole stream identically.
        store.rebind(p, 11, 0);
        let mut gen2 = TraceGenerator::new(p, 11, 0);
        for seq in 0..total {
            assert_eq!(
                store.record(seq).unpack(),
                gen2.next_inst(),
                "replay seq {seq}"
            );
        }
    }

    #[test]
    fn same_key_rebind_replays_identically() {
        let p = gzip();
        let mut store = ThreadTrace::new(p, 7, 1, 512);
        let first: Vec<_> = (0..2_000).map(|s| store.record(s).unpack()).collect();
        store.rebind(p, 7, 1);
        let second: Vec<_> = (0..2_000).map(|s| store.record(s).unpack()).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn different_seed_rebind_regenerates() {
        let p = gzip();
        let mut store = ThreadTrace::new(p, 1, 0, 512);
        let a: Vec<_> = (0..1_000).map(|s| store.record(s).unpack()).collect();
        store.rebind(p, 2, 0);
        let b: Vec<_> = (0..1_000).map(|s| store.record(s).unpack()).collect();
        assert_ne!(a, b, "different seeds must diverge");
        let mut gen = TraceGenerator::new(p, 2, 0);
        for (s, inst) in b.iter().enumerate() {
            assert_eq!(*inst, gen.next_inst(), "seq {s}");
        }
    }

    #[test]
    fn phase_signal_matches_lazy_generation() {
        let p = spec::profile("mcf").expect("registry profile");
        let mut store = ThreadTrace::new(p, 3, 0, 512);
        let mut gen = TraceGenerator::new(p, 3, 0);
        assert_eq!(store.in_memory_phase(), gen.in_memory_phase());
        for seq in 0..20_000u64 {
            let _ = store.packed(seq);
            gen.next_inst();
            assert_eq!(
                store.in_memory_phase(),
                gen.in_memory_phase(),
                "phase diverged at seq {seq}"
            );
        }
    }

    #[test]
    fn decorrelated_twin_matches_generator_twin() {
        let p = gzip();
        let store = ThreadTrace::new(p, 9, 2, 512);
        let gen = TraceGenerator::new(p, 9, 2);
        let mut a = store.decorrelated(0xCAFE);
        let mut b = gen.decorrelated(0xCAFE);
        for _ in 0..500 {
            assert_eq!(a.next_inst(), b.next_inst());
        }
    }

    #[test]
    fn record_parts_match_unpacked_payloads() {
        let p = spec::profile("art").expect("registry profile");
        let mut store = ThreadTrace::new(p, 5, 0, 512);
        for seq in 0..2_000u64 {
            let r = store.record(seq);
            let d = r.unpack();
            assert_eq!(r.mem, d.mem);
            assert_eq!(r.branch, d.branch);
            assert_eq!(r.packed.pc, d.pc);
            assert_eq!(r.packed.class(), d.class);
        }
    }
}
