//! Deterministic statistical trace generation.

use crate::profile::BenchmarkProfile;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use smt_isa::{BranchKind, DecodedInst, InstClass, RegClass};

/// Execution phase of the generated program (the discriminant indexes
/// per-phase tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Compute = 0,
    Memory = 1,
}

#[derive(Debug, Clone, Copy)]
struct BranchSite {
    pc: u64,
    target: u64,
    taken_thr: u64,
}

/// A deterministic, infinite instruction stream expanded from a
/// [`BenchmarkProfile`].
///
/// The generator is the repo's substitute for the paper's Alpha/SPEC2000
/// traces (see `DESIGN.md`). Two generators constructed with the same
/// profile, seed and data base produce identical streams, which the
/// simulator relies on for reproducibility.
///
/// # Examples
///
/// ```
/// use smt_workloads::{spec, TraceGenerator};
///
/// let p = spec::profile("gzip").unwrap();
/// let mut a = TraceGenerator::new(p, 7, 0);
/// let mut b = TraceGenerator::new(p, 7, 0);
/// for _ in 0..100 {
///     assert_eq!(a.next_inst(), b.next_inst());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: BenchmarkProfile,
    seed: u64,
    thread_slot: u64,
    rng: SmallRng,
    seq: u64,
    pc: u64,
    code_base: u64,
    data_base: u64,
    phase: Phase,
    phase_left: u64,
    warm_cursor: u64,
    cold_cursor: u64,
    last_cold_load_seq: Option<u64>,
    call_depth: u32,
    sites: Vec<BranchSite>,
    /// Number of leading entries of `sites` that are biased (loop) sites.
    /// The split is fixed at construction, so site picking indexes the two
    /// ranges directly instead of rebuilding index vectors per branch.
    biased_count: usize,
    /// `ln(1 - 1/dep_mean)`, the dependence distances' geometric divisor.
    dep_ln_one_minus_p: f64,
    dep_guide: [u16; GUIDE_LEN],
    /// Cumulative mix thresholds for sampling instruction classes.
    mix_cdf: [(f64, InstClass); 8],
    class_guide: [Option<InstClass>; GUIDE_LEN],
    /// [`threshold`]s of the profile's probabilities, and per phase
    /// (indexed by `Phase as usize`) of the region bounds `cold` and
    /// `cold + warm`.
    fp_load_thr: u64,
    pointer_chase_thr: u64,
    streaming_thr: u64,
    call_thr: u64,
    biased_thr: u64,
    region_thr: [(u64, u64); 2],
}

/// Upper clamp of sampled dependence distances (instructions).
const DEP_CLAMP: u64 = 512;

/// Guide tables map the top ten bits of a raw draw (a bucket) to the
/// value every draw in the bucket samples, if they all sample the same.
const GUIDE_LEN: usize = 1 << 10;

/// Relative margin a pure dependence bucket keeps from every `exp(k·L)`:
/// millions of ULPs, against the few-ULP error of `exp(k·L)` and `ln(u)/L`.
const GUARD: f64 = 1e-8;

/// `rng.gen::<f64>()` for the raw draw `x`: exact, so monotone in `x`.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// `rng.gen_range(f64::EPSILON..1.0)` for the raw draw `x` (same
/// expression); monotone in `x`.
fn open_unit(x: u64) -> f64 {
    f64::EPSILON + unit(x) * (1.0 - f64::EPSILON)
}

/// `unit(x) < p` exactly when `below(x, threshold(p))`: `p·2⁵³` is exact
/// and `x >> 11` an integer.
fn threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

fn below(x: u64, thr: u64) -> bool {
    x >> 11 < thr
}

/// The lowest and highest raw draw of guide bucket `b`.
fn bucket_bounds(b: usize) -> (u64, u64) {
    let lo = (b as u64) << 54;
    (lo, lo | ((1 << 54) - 1))
}

/// `ceil(ln(u) / L)` for `u = open_unit(x)`, at least 1.
fn geometric(x: u64, ln_one_minus_p: f64) -> u64 {
    (open_unit(x).ln() / ln_one_minus_p).ceil().max(1.0) as u64
}

/// The dependence-distance guide table ("indexed search", Chen & Asau
/// 1974), 0 marking mixed buckets. The distance is `k` for
/// `u ∈ [exp(k·L), exp((k-1)·L))`, and `open_unit` is monotone, so a
/// bucket is pure when both end points fall in one interval at least
/// [`GUARD`] inside it (`k = 1` has no upper bound; the clamp merges
/// `k ≥ DEP_CLAMP`). Walking buckets down from `u ≈ 1` while `k` climbs
/// takes at most `GUIDE_LEN + DEP_CLAMP` steps.
fn dep_guide(ln_one_minus_p: f64) -> [u16; GUIDE_LEN] {
    let exp_k = |k: u64| (ln_one_minus_p * k as f64).exp();
    let (mut k, mut upper, mut lower) = (1, f64::INFINITY, exp_k(1));
    let mut guide = [0; GUIDE_LEN];
    for b in (0..GUIDE_LEN).rev() {
        let (lo, hi) = bucket_bounds(b);
        let (u_lo, u_hi) = (open_unit(lo), open_unit(hi));
        while k < DEP_CLAMP && u_hi < lower {
            k += 1;
            upper = lower;
            lower = exp_k(k);
        }
        let below_upper = u_hi < upper * (1.0 - GUARD);
        let above_lower = k == DEP_CLAMP || u_lo > lower * (1.0 + GUARD);
        if below_upper && above_lower {
            guide[b] = k as u16;
        }
    }
    guide
}

/// The instruction-class guide table: the class index is monotone in the
/// draw, so equal indices at both end points make a bucket pure. The CDF
/// never decreases, so one cursor walks it alongside the buckets
/// (`from_fn` fills them in ascending order).
fn class_guide(cdf: &[(f64, InstClass); 8]) -> [Option<InstClass>; GUIDE_LEN] {
    let mut idx = 0;
    let mut index_of = |x: u64| {
        while cdf.get(idx).is_some_and(|&(t, _)| t < unit(x)) {
            idx += 1;
        }
        idx
    };
    std::array::from_fn(|b| {
        let (lo, hi) = bucket_bounds(b);
        let first = index_of(lo);
        (first == index_of(hi)).then(|| class_at(cdf, first))
    })
}

/// The index of the first mix entry with `u <= threshold`.
fn class_index(cdf: &[(f64, InstClass); 8], u: f64) -> usize {
    cdf.iter().map(|&(t, _)| usize::from(t < u)).sum()
}

/// The class at `idx`, or `IntAlu` past the end (rounding can leave the
/// last cumulative threshold just below 1).
fn class_at(cdf: &[(f64, InstClass); 8], idx: usize) -> InstClass {
    cdf.get(idx).map_or(InstClass::IntAlu, |&(_, c)| c)
}

impl TraceGenerator {
    /// Creates a generator for `profile`, seeded with `seed`. `thread_slot`
    /// offsets the data/code address space so concurrent threads have
    /// disjoint footprints (they still share cache *capacity*).
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`BenchmarkProfile::validate`].
    pub fn new(profile: &BenchmarkProfile, seed: u64, thread_slot: u64) -> Self {
        profile
            .validate()
            .expect("trace generator requires a valid profile");
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        // Per-thread address spaces are disjoint (bit 36+) and *staggered*
        // by an odd line count so that different threads' regions map to
        // different cache sets — without the stagger every thread's code
        // would land in the same I-cache sets (all bases share their low
        // bits) and three or more threads would conflict-evict each other's
        // fetch blocks forever.
        let stagger = thread_slot * 0x1_1040;
        let code_base = 0x0040_0000 + (thread_slot << 36) + stagger;
        let data_base = 0x1000_0000 + (thread_slot << 36) + 3 * stagger;

        let n_sites = profile.branches.sites;
        let biased_sites = ((n_sites as f64) * profile.branches.biased_frac).round() as usize;
        let code_bytes = profile.branches.code_bytes.max(256);
        // Programs spend most of their time in a small hot loop nest; only
        // occasional excursions touch the full code footprint. Biased
        // (loop) branches live in and target the hot region; the
        // data-dependent branches are spread across the footprint. Without
        // this locality the active instruction footprint of a multithreaded
        // workload would overflow the shared I-cache and fetch would be
        // I-cache-stalled most of the time — which real SPEC codes are not.
        let hot_code = code_bytes.min(8 * 1024);
        let sites = (0..n_sites)
            .map(|i| {
                if i < biased_sites {
                    // Loop back edge: the site jumps a short distance
                    // backwards, so the fetch stream cycles tightly over a
                    // small body whose I-cache lines are re-touched every
                    // iteration — like a real inner loop, and unlike a
                    // uniform-random jump, whose reuse distance would grow
                    // as the thread slows and make code residency bistable
                    // under multiprogrammed cache pressure.
                    let pc = code_base + (i as u64 * 97 % (hot_code / 4)) * 4;
                    let body = rng.gen_range(16..256) * 4;
                    let target = pc.saturating_sub(body).max(code_base);
                    // Biased (loop) site: learnable by gshare.
                    BranchSite {
                        pc,
                        target,
                        taken_thr: threshold(0.985),
                    }
                } else {
                    let pc = code_base + (i as u64 * 193 % (code_bytes / 4)) * 4;
                    // Cold excursion half the time, back to the hot nest
                    // otherwise.
                    let target = if below(rng.next_u64(), threshold(0.5)) {
                        code_base + rng.gen_range(0..code_bytes / 4) * 4
                    } else {
                        code_base + rng.gen_range(0..hot_code / 4) * 4
                    };
                    // Data-dependent site: effectively random direction.
                    BranchSite {
                        pc,
                        target,
                        taken_thr: threshold(profile.branches.random_taken_rate),
                    }
                }
            })
            .collect();

        let m = profile.mix;
        let entries = [
            (m.load, InstClass::Load),
            (m.store, InstClass::Store),
            (m.branch, InstClass::Branch),
            (m.int_alu, InstClass::IntAlu),
            (m.int_mul, InstClass::IntMul),
            (m.fp_alu, InstClass::FpAlu),
            (m.fp_mul, InstClass::FpMul),
            (m.fp_div, InstClass::FpDiv),
        ];
        let cold_cursor_start = rng.gen_range(0..(profile.mem.cold_bytes / 64).max(1)) * 64;
        let total = m.total();
        let mut acc = 0.0;
        let mix_cdf = entries.map(|(w, c)| {
            acc += w / total;
            (acc, c)
        });
        let mem = profile.mem;
        let regions = |boost: f64| {
            let warm = (mem.warm_frac * boost).min(0.9);
            let cold = (mem.cold_frac * boost).min(0.9 - warm.min(0.89));
            (threshold(cold), threshold(cold + warm))
        };
        let dep_ln_one_minus_p = ln_one_minus_inv(profile.dep_mean);

        let mut this = TraceGenerator {
            profile: profile.clone(),
            seed,
            thread_slot,
            rng,
            seq: 0,
            pc: code_base,
            code_base,
            data_base,
            phase: Phase::Compute,
            phase_left: 1,
            warm_cursor: 0,
            // Random start so two generators over the same region (e.g.
            // the decorrelated warm-up twin) do not walk the same
            // sequential path through the cold region.
            cold_cursor: cold_cursor_start,
            last_cold_load_seq: None,
            call_depth: 0,
            sites,
            biased_count: biased_sites.min(n_sites),
            dep_ln_one_minus_p,
            dep_guide: dep_guide(dep_ln_one_minus_p),
            mix_cdf,
            class_guide: class_guide(&mix_cdf),
            fp_load_thr: threshold(profile.fp_load_frac),
            pointer_chase_thr: threshold(mem.pointer_chase),
            streaming_thr: threshold(mem.streaming),
            call_thr: threshold(profile.branches.call_frac),
            biased_thr: threshold(profile.branches.biased_frac),
            region_thr: [
                regions(profile.phases.compute_damp),
                regions(profile.phases.mem_boost),
            ],
        };
        this.advance_phase();
        this
    }

    /// Number of instructions generated so far.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// `true` while the generator is in a memory phase (used by tests and
    /// the Table-5 experiment for ground truth).
    pub fn in_memory_phase(&self) -> bool {
        self.phase == Phase::Memory
    }

    /// The profile driving this generator.
    pub fn profile(&self) -> &BenchmarkProfile {
        &self.profile
    }

    /// A *decorrelated* twin of this generator: same profile and thread
    /// slot (same regions, same statistics) but a different random stream.
    /// Used for functional cache warm-up — the twin touches the same hot,
    /// warm and code regions (which is what warming needs) without leaking
    /// the exact future cold-region lines into the caches, which would
    /// erase the measured run's compulsory misses.
    pub fn decorrelated(&self, salt: u64) -> TraceGenerator {
        TraceGenerator::new(
            &self.profile,
            self.seed ^ salt.wrapping_mul(0x5052_4557_4d5f),
            self.thread_slot,
        )
    }

    fn advance_phase(&mut self) {
        let (next, mean) = match self.phase {
            Phase::Compute => (Phase::Memory, self.profile.phases.mem_len),
            Phase::Memory => (Phase::Compute, self.profile.phases.compute_len),
        };
        self.phase = next;
        self.phase_left = sample_geometric(&mut self.rng, mean).max(1);
    }

    /// `gen_bool(p)` against the precomputed `threshold(p)`.
    fn bernoulli(&mut self, thr: u64) -> bool {
        below(self.rng.next_u64(), thr)
    }

    /// `class_at(class_index(u))` for `u = rng.gen::<f64>()`; the guide
    /// table answers unless the draw's bucket straddles a mix threshold.
    fn sample_class(&mut self) -> InstClass {
        let x = self.rng.next_u64();
        self.class_guide[(x >> 54) as usize]
            .unwrap_or_else(|| class_at(&self.mix_cdf, class_index(&self.mix_cdf, unit(x))))
    }

    /// `ceil(ln(u) / ln(1-p)).clamp(1, 512)` for `u = rng.gen_range(ε..1)`;
    /// the guide table answers unless the draw's bucket straddles a threshold.
    fn dep_distance(&mut self) -> u32 {
        if self.profile.dep_mean <= 1.0 {
            return 1;
        }
        let x = self.rng.next_u64();
        match self.dep_guide[(x >> 54) as usize] {
            0 => geometric(x, self.dep_ln_one_minus_p).min(DEP_CLAMP) as u32,
            k => u32::from(k),
        }
    }

    /// Samples a data address from the nested-working-set model. Returns
    /// `(address, is_cold)`.
    fn sample_address(&mut self) -> (u64, bool) {
        let mem = self.profile.mem;
        let (cold, cold_warm) = self.region_thr[self.phase as usize];
        let x = self.rng.next_u64();
        if below(x, cold) {
            let off = self.cold_offset(mem.cold_bytes);
            (self.data_base + 0x4000_0000 + off, true)
        } else if below(x, cold_warm) {
            // The warm region is a *conflict set*: `warm_bytes` worth of
            // lines arranged as 4 tags per L1 set. A 2-way L1 can hold at
            // most half of each set's tags, so every warm access misses
            // the L1 by construction, while the full region stays
            // L2-resident with a short reuse distance (one pass over the
            // region). This gives the profile's `warm_frac` an exact
            // L1-miss/L2-hit contribution — the basis of the Table-3
            // calibration — and keeps the region L2-resident even when a
            // co-running thread streams misses through the L2.
            const TAGS: u64 = 4;
            const L1_SETS: u64 = 512;
            let lines = (mem.warm_bytes / 64).max(TAGS);
            let sets = (lines / TAGS).max(1);
            // Half the touches advance a cyclic sweep; the other half
            // revisit a random earlier position. The mixture gives the
            // region a *spread* of reuse distances, so L2 pressure from
            // co-running threads evicts warm lines gradually instead of
            // ageing the whole region past the LRU cliff at once — the
            // cliff made co-run performance bistable.
            let j = if self.bernoulli(threshold(0.5)) {
                self.warm_cursor = self.warm_cursor.wrapping_add(1);
                self.warm_cursor
            } else {
                self.warm_cursor
                    .wrapping_sub(self.rng.gen_range(1..lines.max(2)))
            };
            let tag = j % TAGS;
            let set = (j / TAGS) % sets;
            let line_off = set + L1_SETS * tag;
            (self.data_base + 0x0100_0000 + line_off * 64, false)
        } else {
            let off = self.rng.gen_range(0..mem.hot_bytes / 8) * 8;
            (self.data_base + off, false)
        }
    }

    /// Cold-region offsets always touch a fresh cache line (the region is
    /// far larger than the L2): streaming profiles advance sequentially,
    /// irregular profiles jump randomly. Either way the access is an L2
    /// miss; `streaming` only shapes the address pattern.
    fn cold_offset(&mut self, region_bytes: u64) -> u64 {
        if self.bernoulli(self.streaming_thr) {
            self.cold_cursor = (self.cold_cursor + 64) % region_bytes;
            self.cold_cursor
        } else {
            let lines = (region_bytes / 64).max(1);
            self.rng.gen_range(0..lines) * 64
        }
    }

    /// Generates the next dynamic instruction of the stream.
    pub fn next_inst(&mut self) -> DecodedInst {
        let class = self.sample_class();
        let pc = self.pc;
        self.pc = self.code_base
            + ((self.pc - self.code_base + 4) % self.profile.branches.code_bytes.max(256));

        let inst = match class {
            InstClass::Load => self.gen_load(pc),
            InstClass::Store => self.gen_store(pc),
            InstClass::Branch => self.gen_branch(pc),
            c => self.gen_alu(pc, c),
        };

        self.seq += 1;
        self.phase_left -= 1;
        if self.phase_left == 0 {
            self.advance_phase();
        }
        inst
    }

    fn gen_load(&mut self, pc: u64) -> DecodedInst {
        let (addr, is_cold) = self.sample_address();
        let dest = if self.profile.fp_load_frac > 0.0 && self.bernoulli(self.fp_load_thr) {
            RegClass::Fp
        } else {
            RegClass::Int
        };
        let mut b = DecodedInst::builder(InstClass::Load, pc)
            .dest(dest)
            .mem(addr, 8);
        if is_cold {
            // Pointer chasing: the address of this cold load depends on the
            // data of the previous cold load, serialising the misses.
            if let Some(prev) = self.last_cold_load_seq {
                if self.bernoulli(self.pointer_chase_thr) {
                    let dist = (self.seq - prev).clamp(1, 512) as u32;
                    b = b.dep(dist);
                }
            }
            self.last_cold_load_seq = Some(self.seq);
        } else {
            let d = self.dep_distance();
            b = b.dep(d);
        }
        b.build()
    }

    fn gen_store(&mut self, pc: u64) -> DecodedInst {
        let (addr, _) = self.sample_address();
        let d1 = self.dep_distance();
        let d2 = self.dep_distance();
        DecodedInst::builder(InstClass::Store, pc)
            .mem(addr, 8)
            .dep(d1)
            .dep(d2)
            .build()
    }

    fn gen_branch(&mut self, pc: u64) -> DecodedInst {
        // Returns match outstanding calls; calls occur with call_frac.
        if self.call_depth > 0 && self.bernoulli(threshold(0.5)) {
            self.call_depth -= 1;
            let target = self.code_base + self.rng.gen_range(0..64) * 4;
            return DecodedInst::builder(InstClass::Branch, pc)
                .branch(BranchKind::Return, true, target)
                .build();
        }
        if self.bernoulli(self.call_thr) {
            self.call_depth = (self.call_depth + 1).min(64);
            let site = self.pick_site();
            return DecodedInst::builder(InstClass::Branch, site.pc)
                .branch(BranchKind::Call, true, site.target)
                .build();
        }
        let site = self.pick_site();
        let taken = self.bernoulli(site.taken_thr);
        let d = self.dep_distance();
        let inst = DecodedInst::builder(InstClass::Branch, site.pc)
            .branch(BranchKind::Conditional, taken, site.target)
            .dep(d)
            .build();
        if taken {
            self.pc = site.target;
        }
        inst
    }

    fn pick_site(&mut self) -> BranchSite {
        // Biased sites are hot (loop branches execute often): weight them
        // by the profile's biased fraction of *dynamic* branches. Biased
        // sites occupy `..biased_count`, the data-dependent ones the rest;
        // the ranges are fixed, so this draws the same random sequence the
        // old index-vector implementation did without rebuilding (and
        // heap-allocating) those vectors on every branch.
        let biased_len = self.biased_count;
        let random_len = self.sites.len() - biased_len;
        let use_biased = biased_len > 0 && (random_len == 0 || self.bernoulli(self.biased_thr));
        let (first, len) = if use_biased {
            (0, biased_len)
        } else {
            (biased_len, random_len)
        };
        let idx = first + self.rng.gen_range(0..len);
        self.sites[idx]
    }

    fn gen_alu(&mut self, pc: u64, class: InstClass) -> DecodedInst {
        let dest = if class.is_fp() {
            RegClass::Fp
        } else {
            RegClass::Int
        };
        let d1 = self.dep_distance();
        let mut b = DecodedInst::builder(class, pc).dest(dest).dep(d1);
        if self.bernoulli(threshold(0.25)) {
            let d2 = self.dep_distance();
            b = b.dep(d2);
        }
        b.build()
    }
}

/// `ln(1 - 1/mean)`, the denominator of the geometric sampler (`-inf` for
/// `mean == 1`, where the sampler short-circuits before using it).
fn ln_one_minus_inv(mean: f64) -> f64 {
    let p = 1.0 / mean;
    (1.0 - p).ln()
}

/// Samples a geometric-like positive integer with the given mean.
fn sample_geometric(rng: &mut SmallRng, mean: f64) -> u64 {
    if mean <= 1.0 {
        return 1;
    }
    geometric(rng.next_u64(), ln_one_minus_inv(mean))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;
    use std::collections::HashMap;

    #[test]
    fn deterministic_for_same_seed() {
        let p = spec::profile("gcc").unwrap();
        let mut a = TraceGenerator::new(p, 123, 1);
        let mut b = TraceGenerator::new(p, 123, 1);
        for _ in 0..5_000 {
            assert_eq!(a.next_inst(), b.next_inst());
        }
    }

    /// Replays one raw draw through rand's own float samplers, the
    /// reference for the integer-domain ones.
    struct Fixed(u64);

    impl RngCore for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    /// The direct `ceil(ln(u)/ln(1-p))` dependence distance for raw draw `x`.
    fn ln_distance(x: u64, l: f64) -> u32 {
        let u: f64 = Fixed(x).gen_range(f64::EPSILON..1.0);
        ((u.ln() / l).ceil().max(1.0) as u64).clamp(1, DEP_CLAMP) as u32
    }

    /// The dependence sampler agrees with the direct expression draw for
    /// draw — the rng stream and the sampled values are both pinned.
    #[test]
    fn table_sampler_matches_ln_expression() {
        for bench in ["gcc", "mcf", "art", "gzip", "swim"] {
            let p = spec::profile(bench).unwrap();
            let mut g = TraceGenerator::new(p, 123, 0);
            let mut reference_rng = g.rng.clone();
            for i in 0..200_000 {
                let expect = ln_distance(reference_rng.next_u64(), g.dep_ln_one_minus_p);
                assert_eq!(g.dep_distance(), expect, "{bench}: draw {i} diverged");
            }
        }
    }

    /// Every pure dependence bucket yields its entry at both end points and
    /// at 64 random interior draws, and clears a 1e-9 relative guard band
    /// around the thresholds. Besides the registry means, the means with
    /// `1 - 1/mean` a power of two put thresholds exactly on bucket bounds.
    #[test]
    fn dep_guide_buckets_match_ln_expression() {
        let mut rng = SmallRng::seed_from_u64(9);
        let registry = spec::names()
            .into_iter()
            .map(|n| spec::profile(n).unwrap().dep_mean);
        for mean in registry.chain([4.0 / 3.0, 2.0, 1.0 + 1e-9, 100.0, 1e4]) {
            let l = ln_one_minus_inv(mean);
            let guide = dep_guide(l);
            for (b, k) in guide.iter().enumerate().filter(|&(_, &k)| k != 0) {
                let (lo, hi) = bucket_bounds(b);
                let interior = (0..64).map(|_| lo | rng.next_u64() >> 10);
                for x in [lo, hi].into_iter().chain(interior) {
                    assert_eq!(ln_distance(x, l), u32::from(*k), "mean {mean}: {x:#x}");
                }
                let k = u64::from(*k);
                let exp_k = |k: u64| (l * k as f64).exp();
                assert!(k == 1 || open_unit(hi) < exp_k(k - 1) * (1.0 - 1e-9));
                assert!(k == DEP_CLAMP || open_unit(lo) > exp_k(k) * (1.0 + 1e-9));
            }
            let pure = guide.iter().filter(|&&k| k != 0).count();
            assert!(pure >= GUIDE_LEN / 2, "mean {mean}: {pure} pure buckets");
        }
    }

    /// Every pure class bucket selects its entry at both end points under
    /// the early-exit CDF scan; at most one bucket per threshold is mixed.
    #[test]
    fn class_guide_buckets_match_cdf_scan() {
        for name in spec::names() {
            let g = TraceGenerator::new(spec::profile(name).unwrap(), 1, 0);
            let scan = |x: u64| {
                let u: f64 = Fixed(x).gen();
                let first = g.mix_cdf.iter().find(|&&(t, _)| u <= t);
                first.map_or(InstClass::IntAlu, |&(_, c)| c)
            };
            for (b, class) in g.class_guide.iter().enumerate() {
                let (lo, hi) = bucket_bounds(b);
                if let Some(c) = *class {
                    assert_eq!((scan(lo), scan(hi)), (c, c), "{name}: bucket {b}");
                }
            }
            let pure = g.class_guide.iter().flatten().count();
            assert!(pure >= GUIDE_LEN - 8, "{name}: {pure} pure buckets");
        }
    }

    /// `below(x, threshold(p))` equals rand's `gen_bool(p)` on both sides
    /// of every threshold.
    #[test]
    fn integer_bernoulli_matches_float_compare() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut probs = vec![0.0, 1.0, 0.25, 0.5, 0.985, 1e-300, 1.0 - f64::EPSILON / 2.0];
        probs.extend((0..1000).map(|_| rng.gen::<f64>()));
        for name in spec::names() {
            let p = spec::profile(name).unwrap();
            let (m, b) = (p.mem, p.branches);
            probs.extend([p.fp_load_frac, m.pointer_chase, m.streaming, m.warm_frac]);
            probs.extend([m.cold_frac, b.random_taken_rate, b.call_frac, b.biased_frac]);
        }
        for p in probs {
            let thr = threshold(p);
            for m in [thr.saturating_sub(1), thr, thr + 1] {
                let x = m.min((1 << 53) - 1) << 11;
                assert_eq!(below(x, thr), Fixed(x).gen_bool(p), "p = {p}, m = {m}");
            }
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let p = spec::profile("gcc").unwrap();
        let mut a = TraceGenerator::new(p, 1, 0);
        let mut b = TraceGenerator::new(p, 2, 0);
        let differs = (0..1000).any(|_| a.next_inst() != b.next_inst());
        assert!(differs);
    }

    #[test]
    fn mix_roughly_matches_profile() {
        let p = spec::profile("gzip").unwrap();
        let mut g = TraceGenerator::new(p, 42, 0);
        let mut counts: HashMap<InstClass, u64> = HashMap::new();
        let n = 200_000;
        for _ in 0..n {
            *counts.entry(g.next_inst().class).or_default() += 1;
        }
        let total = p.mix.total();
        let load_frac = *counts.get(&InstClass::Load).unwrap_or(&0) as f64 / n as f64;
        assert!(
            (load_frac - p.mix.load / total).abs() < 0.02,
            "load fraction {load_frac} vs profile {}",
            p.mix.load / total
        );
        let br_frac = *counts.get(&InstClass::Branch).unwrap_or(&0) as f64 / n as f64;
        assert!((br_frac - p.mix.branch / total).abs() < 0.02);
    }

    #[test]
    fn integer_profile_emits_no_fp() {
        let p = spec::profile("mcf").unwrap();
        let mut g = TraceGenerator::new(p, 9, 0);
        for _ in 0..50_000 {
            let i = g.next_inst();
            assert!(!i.class.is_fp(), "integer benchmark emitted {}", i.class);
            if let Some(dest) = i.dest {
                assert_ne!(dest, RegClass::Fp);
            }
        }
    }

    #[test]
    fn fp_profile_emits_fp_work() {
        let p = spec::profile("swim").unwrap();
        let mut g = TraceGenerator::new(p, 9, 0);
        let fp = (0..50_000).filter(|_| g.next_inst().class.is_fp()).count();
        assert!(fp > 5_000, "FP benchmark generated only {fp} FP ops");
    }

    #[test]
    fn phases_alternate() {
        let p = spec::profile("mcf").unwrap();
        let mut g = TraceGenerator::new(p, 3, 0);
        let mut mem_insts = 0u64;
        let n = 100_000;
        for _ in 0..n {
            g.next_inst();
            if g.in_memory_phase() {
                mem_insts += 1;
            }
        }
        assert!(mem_insts > 0, "never entered a memory phase");
        assert!(mem_insts < n, "never left the memory phase");
    }

    #[test]
    fn memory_instructions_carry_addresses() {
        let p = spec::profile("art").unwrap();
        let mut g = TraceGenerator::new(p, 5, 2);
        for _ in 0..20_000 {
            let i = g.next_inst();
            if i.class.is_mem() {
                let m = i.mem.expect("memory inst without address");
                assert!(m.addr >= 0x1000_0000, "address below data base");
            }
            if i.class == InstClass::Branch {
                assert!(i.branch.is_some());
            }
        }
    }

    #[test]
    fn thread_slots_do_not_overlap() {
        let p = spec::profile("art").unwrap();
        let mut a = TraceGenerator::new(p, 5, 0);
        let mut b = TraceGenerator::new(p, 5, 1);
        let addr_of = |g: &mut TraceGenerator| loop {
            let i = g.next_inst();
            if let Some(m) = i.mem {
                return m.addr;
            }
        };
        for _ in 0..100 {
            let (x, y) = (addr_of(&mut a), addr_of(&mut b));
            assert_ne!(x >> 36, y >> 36, "thread footprints must be disjoint");
        }
    }

    #[test]
    fn geometric_mean_is_close() {
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 100_000;
        let sum: u64 = (0..n).map(|_| sample_geometric(&mut rng, 8.0)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 8.0).abs() < 0.5, "geometric mean off: {mean}");
    }
}
