//! Ablation studies of DCRA's design choices — the knobs the paper
//! mentions tuning but does not fully tabulate:
//!
//! * the **activity-counter reset value** (§3.4 footnote: "several values
//!   for this parameter ranging from 64 to 8192" — 256 wins),
//! * the **sharing factor** `C` (§3.2/§5.3: `1/A`, `1/(A+4)`, `0`),
//! * the **classification inputs** themselves: what happens if phase
//!   classification is disabled (all threads slow) or activity
//!   classification is disabled (all threads active)?
//! * the **degenerate-case detector** of [`dcra::DcraDc`] (the paper's
//!   future work).

use crate::fault::RunError;
use crate::runner::{PolicyKind, RunSpec, Runner};
use crate::tables::{f3, TextTable};
use dcra::{DcraConfig, DcraDc, DegenerateConfig, SharingConfig, SharingFactor};
use smt_metrics::hmean;
use smt_sim::policy::AnyPolicy;
use smt_sim::{SimConfig, Simulator};
use smt_workloads::{spec, workloads_of, Workload, WorkloadType};

/// The MIX workloads used for the ablations (where DCRA's choices matter
/// most: a mixture of fast and slow threads).
pub fn ablation_workloads() -> Vec<Workload> {
    let mut w = workloads_of(WorkloadType::Mix, 2);
    w.extend(workloads_of(WorkloadType::Mem, 2));
    w
}

/// One ablation variant: a label and the policy it builds.
pub struct Variant {
    /// Human-readable label.
    pub label: String,
    /// Policy factory (a fresh policy per run). DCRA variants dispatch
    /// statically; the experimental policies (DCRA-DC, the table-driven
    /// ROM) ride the [`AnyPolicy::Boxed`] escape hatch.
    pub build: Box<dyn Fn() -> AnyPolicy + Sync>,
}

/// The full variant list.
pub fn variants() -> Vec<Variant> {
    let mut v: Vec<Variant> = Vec::new();
    // Activity-counter sweep (paper: 64..8192, 256 best).
    for init in [64u32, 256, 1024, 8192] {
        v.push(Variant {
            label: format!("activity init {init}"),
            build: Box::new(move || {
                AnyPolicy::from(dcra::Dcra::new(DcraConfig {
                    activity_init: init,
                    ..DcraConfig::default()
                }))
            }),
        });
    }
    // Sharing-factor sweep.
    for (label, f) in [
        ("C = 1/A", SharingFactor::Inverse),
        ("C = 1/(A+4)", SharingFactor::InversePlus4),
        ("C = 0", SharingFactor::Zero),
    ] {
        v.push(Variant {
            label: format!("sharing {label}"),
            build: Box::new(move || {
                AnyPolicy::from(dcra::Dcra::new(DcraConfig {
                    sharing: SharingConfig {
                        queue_factor: f,
                        reg_factor: f,
                    },
                    ..DcraConfig::default()
                }))
            }),
        });
    }
    // Degenerate-case detector (future work).
    v.push(Variant {
        label: "DCRA-DC (degenerate detection)".to_string(),
        build: Box::new(|| {
            AnyPolicy::Boxed(Box::new(DcraDc::new(
                DcraConfig::default(),
                DegenerateConfig::default(),
            )))
        }),
    });
    // Table-driven implementation (must match the combinational one).
    v.push(Variant {
        label: "table-driven ROM".to_string(),
        build: Box::new(|| AnyPolicy::Boxed(Box::new(dcra::TableDcra::default()))),
    });
    v
}

/// Result row: variant label, average throughput and Hmean over the
/// ablation workloads.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Variant label.
    pub label: String,
    /// Mean IPC throughput.
    pub throughput: f64,
    /// Mean Hmean.
    pub hmean: f64,
}

/// Runs every variant over the ablation workload set.
pub fn run(runner: &Runner, measure_cycles: u64) -> Result<Vec<AblationRow>, RunError> {
    let workloads = ablation_workloads();
    let lengths = {
        let mut s = RunSpec::new(&["gzip"], PolicyKind::Icount);
        s.measure_cycles = measure_cycles;
        s
    };
    // Every single-thread baseline up front, in one parallel engine batch.
    // Baselines are keyed on the one-thread machine, which every
    // workload's `SimConfig::baseline` reduces to.
    runner.measure_baselines(&workloads, &SimConfig::baseline(1), &lengths)?;
    let mut inputs = Vec::new();
    for w in &workloads {
        let profiles = w
            .benchmarks
            .iter()
            .map(|b| {
                spec::profile(b).ok_or_else(|| RunError::UnknownBenchmark { bench: b.clone() })
            })
            .collect::<Result<Vec<_>, RunError>>()?;
        let config = SimConfig::baseline(w.threads());
        let singles = runner.single_ipcs(w, &config, &lengths)?;
        inputs.push((config, profiles, singles));
    }
    let mut rows = Vec::new();
    for variant in variants() {
        let mut tput = 0.0;
        let mut hm = 0.0;
        for (config, profiles, singles) in &inputs {
            let mut sim = Simulator::try_new(config.clone(), profiles, (variant.build)(), 42)
                .map_err(|e| RunError::InvalidSpec {
                    message: e.to_string(),
                })?;
            sim.prewarm(400_000);
            sim.run_cycles(30_000);
            sim.reset_stats();
            sim.run_cycles(measure_cycles);
            let r = sim.result();
            tput += r.throughput();
            hm += hmean(&r.ipcs(), singles);
        }
        let n = workloads.len() as f64;
        rows.push(AblationRow {
            label: variant.label,
            throughput: tput / n,
            hmean: hm / n,
        });
    }
    Ok(rows)
}

/// Formats the ablation table.
pub fn report(rows: &[AblationRow]) -> TextTable {
    let mut t = TextTable::new(&["variant", "throughput", "hmean"]);
    for r in rows {
        t.row_owned(vec![r.label.clone(), f3(r.throughput), f3(r.hmean)]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_list_covers_all_knobs() {
        let labels: Vec<String> = variants().into_iter().map(|v| v.label).collect();
        assert!(labels.iter().any(|l| l.contains("activity init 256")));
        assert!(labels.iter().any(|l| l.contains("C = 0")));
        assert!(labels.iter().any(|l| l.contains("DCRA-DC")));
        assert!(labels.iter().any(|l| l.contains("ROM")));
        assert_eq!(labels.len(), 9);
    }

    #[test]
    fn ablation_workloads_are_two_threaded() {
        for w in ablation_workloads() {
            assert_eq!(w.threads(), 2);
        }
        assert_eq!(ablation_workloads().len(), 8);
    }
}
