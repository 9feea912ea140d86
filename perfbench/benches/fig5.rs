//! `fig5` specifics: rebuilding the four policy sweeps from the phase
//! pass's runs, and comparing DCRA's gains with the paper's.

use crate::workloads::Plan;
use smt_experiments::fig5::Fig5Result;
use smt_experiments::sweep::{ClassMetrics, PolicySweep};
use smt_experiments::{RunError, RunStats};
use smt_metrics::{hmean, workload_mlp};
use smt_workloads::{table4_workloads, WorkloadType};

/// The paper's average DCRA gains over each baseline, in percent:
/// (baseline, Hmean gain, throughput gain). The same values are quoted in
/// the rustdoc of `smt_experiments::fig5::Fig5Result`.
pub const PAPER_GAINS: [(&str, f64, f64); 3] = [
    ("ICOUNT", 18.0, 24.0),
    ("DG", 41.0, 30.0),
    ("FLUSH++", 4.0, 1.0),
];

/// DCRA's average gain over one baseline policy, ours beside the paper's,
/// in percent.
#[derive(Debug, Clone, Copy)]
pub struct Gain {
    pub baseline: &'static str,
    pub hmean: f64,
    pub paper_hmean: f64,
    pub throughput: f64,
    pub paper_throughput: f64,
}

/// Our DCRA gains over ICOUNT, DG and FLUSH++ beside the paper's.
pub fn gains(sweeps: &[PolicySweep]) -> Result<Vec<Gain>, String> {
    let [icount, dg, flushpp, dcra] = sweeps else {
        return Err(format!("fig5 needs four sweeps, got {}", sweeps.len()));
    };
    let result = Fig5Result {
        icount: icount.clone(),
        dg: dg.clone(),
        flushpp: flushpp.clone(),
        dcra: dcra.clone(),
    };
    Ok(PAPER_GAINS
        .iter()
        .zip(result.baselines())
        .map(|(&(baseline, paper_hmean, paper_throughput), base)| Gain {
            baseline,
            hmean: result.avg_hmean_improvement(base),
            paper_hmean,
            throughput: result.avg_throughput_improvement(base),
            paper_throughput,
        })
        .collect())
}

/// Mean absolute gap, in percentage points, between our six gains and the
/// paper's.
pub fn paper_gap_pp(gains: &[Gain]) -> f64 {
    let gaps: Vec<f64> = gains
        .iter()
        .flat_map(|g| {
            [
                (g.hmean - g.paper_hmean).abs(),
                (g.throughput - g.paper_throughput).abs(),
            ]
        })
        .collect();
    gaps.iter().sum::<f64>() / gaps.len().max(1) as f64
}

/// The sweeps `sweep_policy` would report for these runs: per-workload
/// throughput, Hmean against the baselines, fetch per commit and MLP,
/// averaged per class in Table-4 order with the same arithmetic, so the
/// result is bit-identical when the runs are.
pub fn sweeps_from_runs(plan: &Plan, runs: &[Option<RunStats>]) -> Vec<PolicySweep> {
    let workloads = table4_workloads();
    let mut singles: Vec<(&str, f64)> = Vec::new();
    let mut sweeps = Vec::new();
    let mut rest = runs;
    for stage in &plan.stages {
        let (stage_runs, tail) = rest.split_at(stage.specs.len().min(rest.len()));
        rest = tail;
        if stage.serial {
            for (label, run) in stage.labels.iter().zip(stage_runs) {
                singles.push((label, run.as_ref().map_or(f64::NAN, RunStats::throughput)));
            }
            continue;
        }
        let single = |bench: &str| {
            singles
                .iter()
                .find(|(b, _)| *b == bench)
                .map_or(f64::NAN, |(_, ipc)| *ipc)
        };
        let mut failures = Vec::new();
        let per_spec: Vec<Option<[f64; 4]>> = workloads
            .iter()
            .zip(stage_runs)
            .enumerate()
            .map(|(i, (w, run))| {
                let Some(out) = run else {
                    failures.push((
                        i,
                        RunError::InvalidSpec {
                            message: "failed in the phase pass".into(),
                        },
                    ));
                    return None;
                };
                let singles: Vec<f64> = w.benchmarks.iter().map(|b| single(b)).collect();
                Some([
                    out.throughput(),
                    hmean(&out.ipcs(), &singles),
                    out.result.total_fetched() as f64 / out.result.total_committed().max(1) as f64,
                    workload_mlp(&out.result),
                ])
            })
            .collect();
        let classes = [2, 3, 4]
            .into_iter()
            .flat_map(|t| WorkloadType::ALL.into_iter().map(move |k| (t, k)))
            .filter_map(|(threads, kind)| {
                let group: Vec<&[f64; 4]> = workloads
                    .iter()
                    .zip(&per_spec)
                    .filter(|(w, _)| w.threads() == threads && w.kind == kind)
                    .filter_map(|(_, m)| m.as_ref())
                    .collect();
                if group.is_empty() {
                    return None;
                }
                let n = group.len() as f64;
                let mean = |k: usize| group.iter().map(|m| m[k]).sum::<f64>() / n;
                Some((
                    threads,
                    kind,
                    ClassMetrics {
                        throughput: mean(0),
                        hmean: mean(1),
                        fetch_per_commit: mean(2),
                        mlp: mean(3),
                    },
                ))
            })
            .collect();
        let policy = stage
            .specs
            .first()
            .map_or("", |s| s.policy.name())
            .to_string();
        sweeps.push(PolicySweep {
            policy,
            classes,
            failures,
        });
    }
    sweeps
}
