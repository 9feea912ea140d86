//! Paper Table 5: how often the two threads of 2-thread workloads are in
//! the same or different phases (slow/slow, fast/slow, fast/fast).
//!
//! The phase signal is the paper's own criterion: a thread is *slow* while
//! it has pending L1 data misses (Section 3.1.1).

use crate::fault::RunError;
use crate::tables::TextTable;
use smt_isa::ThreadId;
use smt_sim::{Probe, SimConfig, Simulator};
use smt_workloads::{spec, workloads_of, WorkloadType};
use std::convert::Infallible;

/// Phase-combination shares for one workload class, in percent.
#[derive(Debug, Clone, Copy)]
pub struct PhaseDistribution {
    /// Both threads slow.
    pub slow_slow: f64,
    /// One slow, one fast.
    pub mixed: f64,
    /// Both fast.
    pub fast_fast: f64,
}

/// Paper Table 5 values (percent) for comparison.
pub const PAPER: [(WorkloadType, PhaseDistribution); 3] = [
    (
        WorkloadType::Ilp,
        PhaseDistribution {
            slow_slow: 7.8,
            mixed: 41.4,
            fast_fast: 50.8,
        },
    ),
    (
        WorkloadType::Mix,
        PhaseDistribution {
            slow_slow: 25.6,
            mixed: 63.2,
            fast_fast: 11.2,
        },
    ),
    (
        WorkloadType::Mem,
        PhaseDistribution {
            slow_slow: 85.0,
            mixed: 14.7,
            fast_fast: 0.3,
        },
    ),
];

/// Table 5's probe: cycles spent in each phase combination of a 2-thread
/// machine (slow/slow, mixed, fast/fast). Weighting each sample by the
/// cycles it covers is exact: a fast-forward span ends before any L1-data
/// fill could change a thread's pending-miss count.
#[derive(Debug, Default, PartialEq)]
struct PhaseSampler {
    counts: [u64; 3],
}

impl Probe for PhaseSampler {
    type Breach = Infallible;

    fn probe(&mut self, sim: &Simulator, cycles: u64) -> Result<(), Infallible> {
        let slow0 = sim.thread_l1d_pending(ThreadId::new(0)) > 0;
        let slow1 = sim.thread_l1d_pending(ThreadId::new(1)) > 0;
        let idx = match (slow0, slow1) {
            (true, true) => 0,
            (false, false) => 2,
            _ => 1,
        };
        self.counts[idx] += cycles;
        Ok(())
    }
}

/// Samples the phase combination every cycle for all four groups of each
/// 2-thread workload class.
///
/// # Errors
///
/// [`RunError::UnknownBenchmark`] if a Table-4 workload names a benchmark
/// missing from the registry, and [`RunError::InvalidSpec`] if its profiles
/// cannot build a simulator — typed like every other driver, instead of
/// panicking mid-sweep.
pub fn run(cycles_per_workload: u64) -> Result<Vec<(WorkloadType, PhaseDistribution)>, RunError> {
    let mut rows = Vec::with_capacity(WorkloadType::ALL.len());
    for &kind in WorkloadType::ALL.iter() {
        let mut sampler = PhaseSampler::default();
        for w in workloads_of(kind, 2) {
            let profiles = w
                .benchmarks
                .iter()
                .map(|b| {
                    spec::profile(b).ok_or_else(|| RunError::UnknownBenchmark { bench: b.clone() })
                })
                .collect::<Result<Vec<_>, RunError>>()?;
            let mut sim =
                Simulator::try_new(SimConfig::baseline(2), &profiles, smt_policies::Icount, 42)
                    .map_err(|e| RunError::InvalidSpec {
                        message: e.to_string(),
                    })?;
            sim.prewarm(300_000);
            sim.run_cycles(20_000);
            let Ok(()) = sim.run(cycles_per_workload, &mut sampler);
        }
        let counts = sampler.counts;
        let total: u64 = counts.iter().sum();
        let pct = |c: u64| 100.0 * c as f64 / total.max(1) as f64;
        rows.push((
            kind,
            PhaseDistribution {
                slow_slow: pct(counts[0]),
                mixed: pct(counts[1]),
                fast_fast: pct(counts[2]),
            },
        ));
    }
    Ok(rows)
}

/// The paper's Table-5 distribution for one workload class, if the paper
/// reports it (the paper covers exactly ILP/MIX/MEM).
pub fn paper_row(kind: WorkloadType) -> Option<PhaseDistribution> {
    PAPER.iter().find(|(k, _)| *k == kind).map(|(_, p)| *p)
}

/// Formats measured-vs-paper distributions. A class the paper does not
/// report renders its paper columns as explicit "—" markers instead of
/// dropping the measured row or dying on the lookup.
pub fn report(rows: &[(WorkloadType, PhaseDistribution)]) -> TextTable {
    let mut t = TextTable::new(&[
        "workload", "SS ours", "SS paper", "SF ours", "SF paper", "FF ours", "FF paper",
    ]);
    for (kind, d) in rows {
        let fmt_paper = |f: fn(&PhaseDistribution) -> f64| {
            paper_row(*kind)
                .map(|p| format!("{:.1}", f(&p)))
                .unwrap_or_else(|| "—".to_string())
        };
        t.row_owned(vec![
            kind.to_string(),
            format!("{:.1}", d.slow_slow),
            fmt_paper(|p| p.slow_slow),
            format!("{:.1}", d.mixed),
            fmt_paper(|p| p.mixed),
            format!("{:.1}", d.fast_fast),
            fmt_paper(|p| p.fast_fast),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Short sampling run: the qualitative ordering of Table 5 must hold —
    /// MEM workloads spend the most time slow-slow, ILP the least.
    #[test]
    fn phase_ordering_matches_paper() {
        let rows = run(15_000).expect("registry benchmarks");
        let get = |k: WorkloadType| {
            rows.iter()
                .find(|(kind, _)| *kind == k)
                .unwrap_or_else(|| panic!("run() must cover {k}"))
                .1
        };
        let ilp = get(WorkloadType::Ilp);
        let mem = get(WorkloadType::Mem);
        assert!(
            mem.slow_slow > ilp.slow_slow,
            "MEM SS ({:.1}) must exceed ILP SS ({:.1})",
            mem.slow_slow,
            ilp.slow_slow
        );
        assert!(
            ilp.fast_fast > mem.fast_fast,
            "ILP FF ({:.1}) must exceed MEM FF ({:.1})",
            ilp.fast_fast,
            mem.fast_fast
        );
        for (_, d) in &rows {
            let sum = d.slow_slow + d.mixed + d.fast_fast;
            assert!((sum - 100.0).abs() < 1e-6, "shares must sum to 100");
        }
    }

    /// The phase probe on the fast-forwarding loop counts exactly what it
    /// counts sampling every cycle of the stepped loop.
    #[test]
    fn phase_probe_matches_a_stepped_sampler() {
        let w = workloads_of(WorkloadType::Mem, 2).remove(0);
        let warmed = || {
            let profiles: Vec<_> = w
                .benchmarks
                .iter()
                .map(|b| spec::profile(b).unwrap())
                .collect();
            let mut sim =
                Simulator::new(SimConfig::baseline(2), &profiles, smt_policies::Icount, 42);
            sim.prewarm(100_000);
            sim.run_cycles(20_000);
            sim
        };
        let cycles = 30_000;
        let mut reference = PhaseSampler::default();
        let mut stepped = warmed();
        for _ in 0..cycles {
            stepped.step();
            let Ok(()) = reference.probe(&stepped, 1);
        }
        let mut sampler = PhaseSampler::default();
        let mut fast = warmed();
        let Ok(()) = fast.run(cycles, &mut sampler);
        assert_eq!(sampler, reference, "{:?}", w.benchmarks);
        assert_eq!(sampler.counts.iter().sum::<u64>(), cycles);
        assert_eq!(stepped.result(), fast.result());
    }
}
