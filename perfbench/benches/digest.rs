//! Results digests: FNV-1a over what a batch computed, in spec order, so
//! two runs of a workload (or a parent and a change) can be compared
//! exactly without storing their outputs.

use smt_experiments::sweep::PolicySweep;
use smt_experiments::RunStats;
use smt_mem::ThreadMemStats;
use smt_sim::ThreadStats;
use smt_workloads::WorkloadType;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Marker folded in for a run that failed, so a failure changes the digest.
const FAILED_RUN: u64 = u64::MAX;

/// 64-bit FNV-1a hasher over little-endian words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Every integer counter of a thread's pipeline statistics. The
/// destructuring is exhaustive, so a counter added to `ThreadStats` fails
/// to compile here until the digest covers it.
pub fn thread_counters(s: &ThreadStats) -> [u64; 14] {
    let ThreadStats {
        committed,
        fetched,
        squashed,
        mispredicts,
        loads,
        l1d_misses,
        l2_misses,
        gated_cycles,
        mlp_sum,
        mlp_cycles,
        blocked_rob,
        blocked_iq,
        blocked_regs,
        blocked_policy,
    } = *s;
    [
        committed,
        fetched,
        squashed,
        mispredicts,
        loads,
        l1d_misses,
        l2_misses,
        gated_cycles,
        mlp_sum,
        mlp_cycles,
        blocked_rob,
        blocked_iq,
        blocked_regs,
        blocked_policy,
    ]
}

/// Every counter of a thread's memory statistics (exhaustive, as above).
pub fn mem_counters(s: &ThreadMemStats) -> [u64; 5] {
    let ThreadMemStats {
        accesses,
        l1_misses,
        l2_accesses,
        l2_misses,
        tlb_misses,
    } = *s;
    [accesses, l1_misses, l2_accesses, l2_misses, tlb_misses]
}

/// Folds one run into `h`: cycles, then per thread its pipeline and memory
/// counters. A failed run folds in a marker.
pub fn fold_run(h: &mut Fnv, run: Option<&RunStats>) {
    let Some(stats) = run else {
        h.word(FAILED_RUN);
        return;
    };
    h.word(stats.result.cycles);
    h.word(stats.result.threads.len() as u64);
    for t in &stats.result.threads {
        thread_counters(t).iter().for_each(|&c| h.word(c));
    }
    h.word(stats.mem.len() as u64);
    for m in &stats.mem {
        mem_counters(m).iter().for_each(|&c| h.word(c));
    }
}

/// Digest of a batch's runs in spec order.
pub fn runs_digest<'a>(runs: impl IntoIterator<Item = Option<&'a RunStats>>) -> u64 {
    let mut h = Fnv::default();
    for run in runs {
        fold_run(&mut h, run);
    }
    h.finish()
}

/// Digest of `fig5`'s four policy sweeps: every class metric's exact bit
/// pattern plus the failure count. `sweep_policy` reports only these
/// aggregates, so this is what the engine pass of `fig5` can check.
pub fn sweeps_digest(sweeps: &[PolicySweep]) -> u64 {
    let mut h = Fnv::default();
    for s in sweeps {
        h.bytes(s.policy.as_bytes());
        h.word(s.classes.len() as u64);
        for (threads, kind, m) in &s.classes {
            h.word(*threads as u64);
            h.word(kind_index(*kind));
            for v in [m.throughput, m.hmean, m.fetch_per_commit, m.mlp] {
                h.word(v.to_bits());
            }
        }
        h.word(s.failures.len() as u64);
    }
    h.finish()
}

fn kind_index(kind: WorkloadType) -> u64 {
    match kind {
        WorkloadType::Ilp => 0,
        WorkloadType::Mix => 1,
        WorkloadType::Mem => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_sim::SimResult;

    fn sample() -> RunStats {
        let t = ThreadStats {
            committed: 1000,
            fetched: 1300,
            squashed: 200,
            mispredicts: 11,
            loads: 250,
            l1d_misses: 20,
            l2_misses: 4,
            gated_cycles: 70,
            mlp_sum: 90,
            mlp_cycles: 40,
            blocked_rob: 5,
            blocked_iq: 6,
            blocked_regs: 7,
            blocked_policy: 8,
        };
        let m = ThreadMemStats {
            accesses: 250,
            l1_misses: 20,
            l2_accesses: 22,
            l2_misses: 4,
            tlb_misses: 1,
        };
        RunStats {
            result: SimResult {
                cycles: 500,
                policy: "ICOUNT".into(),
                threads: vec![t.clone(), t],
            },
            mem: vec![m, m],
        }
    }

    #[test]
    fn digest_changes_when_any_single_counter_changes() {
        let base = sample();
        let reference = runs_digest([Some(&base)]);
        let mut variants: Vec<RunStats> = Vec::new();
        let mut cycles = base.clone();
        cycles.result.cycles += 1;
        variants.push(cycles);
        for thread in 0..2 {
            for k in 0..14 {
                let mut v = base.clone();
                let t = &mut v.result.threads[thread];
                let fields: [&mut u64; 14] = [
                    &mut t.committed,
                    &mut t.fetched,
                    &mut t.squashed,
                    &mut t.mispredicts,
                    &mut t.loads,
                    &mut t.l1d_misses,
                    &mut t.l2_misses,
                    &mut t.gated_cycles,
                    &mut t.mlp_sum,
                    &mut t.mlp_cycles,
                    &mut t.blocked_rob,
                    &mut t.blocked_iq,
                    &mut t.blocked_regs,
                    &mut t.blocked_policy,
                ];
                *fields.into_iter().nth(k).expect("k < 14") += 1;
                variants.push(v);
            }
            for k in 0..5 {
                let mut v = base.clone();
                let s = &mut v.mem[thread];
                let fields: [&mut u64; 5] = [
                    &mut s.accesses,
                    &mut s.l1_misses,
                    &mut s.l2_accesses,
                    &mut s.l2_misses,
                    &mut s.tlb_misses,
                ];
                *fields.into_iter().nth(k).expect("k < 5") += 1;
                variants.push(v);
            }
        }
        assert_eq!(variants.len(), 1 + 2 * (14 + 5));
        let mut seen = vec![reference];
        for v in &variants {
            let d = runs_digest([Some(v)]);
            assert!(
                !seen.contains(&d),
                "a one-counter change must move the digest"
            );
            seen.push(d);
        }
    }

    #[test]
    fn digest_depends_on_order_and_failures() {
        let a = sample();
        let mut b = sample();
        b.result.cycles = 501;
        assert_ne!(
            runs_digest([Some(&a), Some(&b)]),
            runs_digest([Some(&b), Some(&a)])
        );
        assert_ne!(runs_digest([Some(&a), None]), runs_digest([Some(&a)]));
    }
}
