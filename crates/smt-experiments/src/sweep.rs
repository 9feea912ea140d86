//! Shared machinery for the policy-comparison figures: run a policy over
//! the paper's 36 workloads and aggregate by workload class (the 9
//! ILP/MIX/MEM × 2/3/4 classes of Section 4).

use crate::fault::RunError;
use crate::runner::{default_workers, PolicyKind, RunSpec, Runner};
use smt_metrics::hmean;
use smt_sim::SimConfig;
use smt_workloads::{table4_workloads, Workload, WorkloadType};

/// Aggregated metrics of one policy on one workload class.
///
/// The all-zero `Default` doubles as the guarded "no data" value: empty
/// classes and empty sweeps aggregate to zeros, never to NaN.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassMetrics {
    /// Mean IPC throughput over the class's four groups.
    pub throughput: f64,
    /// Mean Hmean over the four groups.
    pub hmean: f64,
    /// Mean fetched-per-committed ratio (front-end activity).
    pub fetch_per_commit: f64,
    /// Mean workload MLP (average overlapping L2 misses).
    pub mlp: f64,
}

/// Results of a policy over all 9 classes, in `(threads, type)` order.
#[derive(Debug, Clone)]
pub struct PolicySweep {
    /// Policy name.
    pub policy: String,
    /// `(threads, type, metrics)` rows for the 9 classes.
    pub classes: Vec<(usize, WorkloadType, ClassMetrics)>,
    /// Workloads whose run failed, as `(spec_index, error)` pairs in spec
    /// order. Failed runs are *excluded* from the class averages above —
    /// a partial result is explicitly partial, never silently averaged in
    /// as zeros.
    pub failures: Vec<(usize, RunError)>,
}

impl PolicySweep {
    /// Metrics of one class, if the sweep covered it. Partial sweeps
    /// (restricted thread counts, filtered workloads, failed runs) simply
    /// lack some classes.
    pub fn try_class(&self, threads: usize, kind: WorkloadType) -> Option<ClassMetrics> {
        self.classes
            .iter()
            .find(|(t, k, _)| *t == threads && *k == kind)
            .map(|(_, _, m)| *m)
    }

    /// Metrics of one class. A class the sweep did not cover yields the
    /// all-zero [`ClassMetrics`] instead of panicking, so figure binaries
    /// render empty bins rather than dying on partial sweeps; use
    /// [`PolicySweep::try_class`] to distinguish "absent" from "zero".
    pub fn class(&self, threads: usize, kind: WorkloadType) -> ClassMetrics {
        self.try_class(threads, kind).unwrap_or_default()
    }

    /// Unweighted average over the covered classes. An empty sweep
    /// averages to the all-zero metrics, never to NaN.
    pub fn average(&self) -> ClassMetrics {
        if self.classes.is_empty() {
            return ClassMetrics::default();
        }
        let n = self.classes.len() as f64;
        ClassMetrics {
            throughput: self
                .classes
                .iter()
                .map(|(_, _, m)| m.throughput)
                .sum::<f64>()
                / n,
            hmean: self.classes.iter().map(|(_, _, m)| m.hmean).sum::<f64>() / n,
            fetch_per_commit: self
                .classes
                .iter()
                .map(|(_, _, m)| m.fetch_per_commit)
                .sum::<f64>()
                / n,
            mlp: self.classes.iter().map(|(_, _, m)| m.mlp).sum::<f64>() / n,
        }
    }
}

/// Runs `policy` over every Table-4 workload on `config` and aggregates per
/// class. `lengths` provides the prewarm/warmup/measure cycle counts and
/// the seed.
///
/// Individual workload failures land in [`PolicySweep::failures`] and are
/// skipped by the class averages; the call itself only fails when the
/// single-thread baselines cannot be measured (the registry benchmarks are
/// trusted, so in practice only a broken `config` does that).
pub fn sweep_policy(
    runner: &Runner,
    policy: &PolicyKind,
    config: &SimConfig,
    lengths: &RunSpec,
) -> Result<PolicySweep, RunError> {
    sweep_policy_threads(runner, policy, config, lengths, &[2, 3, 4])
}

/// Like [`sweep_policy`], restricted to the given thread counts. The
/// sensitivity figures (6 and 7) use the 2-thread subset so the full
/// register/latency sweeps stay tractable on one core; the class structure
/// is unchanged.
pub fn sweep_policy_threads(
    runner: &Runner,
    policy: &PolicyKind,
    config: &SimConfig,
    lengths: &RunSpec,
    thread_counts: &[usize],
) -> Result<PolicySweep, RunError> {
    let workloads: Vec<Workload> = table4_workloads()
        .into_iter()
        .filter(|w| thread_counts.contains(&w.threads()))
        .collect();
    let specs: Vec<RunSpec> = workloads
        .iter()
        .map(|w| {
            RunSpec::for_workload(w, policy.clone())
                .with_config(config.clone())
                .with_lengths_of(lengths)
        })
        .collect();

    // Single-thread baselines first (cached across sweeps, the uncached
    // ones measured in one parallel batch), so the streaming sink below
    // stays cheap under its lock.
    runner.measure_baselines(&workloads, config, lengths)?;
    let singles: Vec<Vec<f64>> = workloads
        .iter()
        .map(|w| runner.single_ipcs(w, config, lengths))
        .collect::<Result<_, _>>()?;

    // Stream outcomes into per-spec scalar metrics: the heavy 36-run
    // result vector is never materialised and metric extraction overlaps
    // the remaining simulations, but the class reduction below still sums
    // in fixed spec order — f64 addition is not associative, and a
    // completion-order sum would make identical sweeps differ in the last
    // ulp across runs.
    #[derive(Clone, Copy)]
    struct SpecMetrics {
        tput: f64,
        hm: f64,
        fpc: f64,
        mlp: f64,
    }
    let mut per_spec: Vec<Option<SpecMetrics>> = vec![None; specs.len()];
    let mut failures: Vec<(usize, RunError)> = Vec::new();
    runner.run_streaming_with_workers(&specs, default_workers(), |i, outcome| {
        match outcome.into_stats() {
            Ok(out) => {
                per_spec[i] = Some(SpecMetrics {
                    tput: out.throughput(),
                    hm: hmean(&out.ipcs(), &singles[i]),
                    fpc: out.result.total_fetched() as f64
                        / out.result.total_committed().max(1) as f64,
                    mlp: smt_metrics::workload_mlp(&out.result),
                });
            }
            Err(error) => failures.push((i, error)),
        }
    });
    failures.sort_by_key(|(i, _)| *i);

    let classes = thread_counts
        .iter()
        .flat_map(|&t| WorkloadType::ALL.iter().map(move |&k| (t, k)))
        .filter_map(|(threads, kind)| {
            let group: Vec<&SpecMetrics> = workloads
                .iter()
                .zip(&per_spec)
                .filter(|(w, _)| w.threads() == threads && w.kind == kind)
                .filter_map(|(_, m)| m.as_ref())
                .collect();
            // A class with no surviving workloads — partial sweeps, or
            // every member failed — is omitted entirely: no 0/0 = NaN
            // row, and no all-zero placeholder silently dragging
            // `average()` down. `try_class` reports the absence,
            // `class()` renders it as an empty (zero) bin.
            if group.is_empty() {
                return None;
            }
            let n = group.len() as f64;
            Some((
                threads,
                kind,
                ClassMetrics {
                    throughput: group.iter().map(|m| m.tput).sum::<f64>() / n,
                    hmean: group.iter().map(|m| m.hm).sum::<f64>() / n,
                    fetch_per_commit: group.iter().map(|m| m.fpc).sum::<f64>() / n,
                    mlp: group.iter().map(|m| m.mlp).sum::<f64>() / n,
                },
            ))
        })
        .collect();
    Ok(PolicySweep {
        policy: policy.name().to_string(),
        classes,
        failures,
    })
}

/// Standard lengths for the figure sweeps (shorter than Table-3
/// calibration; 36 workloads × several policies must finish in minutes).
pub fn sweep_lengths() -> RunSpec {
    let mut s = RunSpec::new(&["gzip"], PolicyKind::Icount);
    s.prewarm_insts = 400_000;
    s.warmup_cycles = 30_000;
    s.measure_cycles = 250_000;
    s
}

/// Reduced lengths for the multi-point sensitivity sweeps (Figures 6/7
/// run 15 policy sweeps each).
pub fn sensitivity_lengths() -> RunSpec {
    let mut s = sweep_lengths();
    s.prewarm_insts = 300_000;
    s.warmup_cycles = 20_000;
    s.measure_cycles = 150_000;
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sweep_averages_to_zero_not_nan() {
        let sweep = PolicySweep {
            policy: "EMPTY".into(),
            classes: Vec::new(),
            failures: Vec::new(),
        };
        let avg = sweep.average();
        assert_eq!(avg.throughput, 0.0);
        assert_eq!(avg.hmean, 0.0);
        assert_eq!(avg.fetch_per_commit, 0.0);
        assert_eq!(avg.mlp, 0.0);
        assert!(avg.throughput.is_finite(), "no NaN rows from empty sweeps");
    }

    #[test]
    fn missing_class_yields_guarded_zero_metrics() {
        // A partial sweep (2-thread only) queried for a 4-thread bin must
        // not panic; it renders as an all-zero bin.
        let sweep = PolicySweep {
            policy: "PARTIAL".into(),
            classes: vec![(
                2,
                WorkloadType::Mem,
                ClassMetrics {
                    throughput: 1.5,
                    hmean: 0.4,
                    fetch_per_commit: 1.2,
                    mlp: 2.0,
                },
            )],
            failures: Vec::new(),
        };
        assert!(sweep.try_class(4, WorkloadType::Ilp).is_none());
        let absent = sweep.class(4, WorkloadType::Ilp);
        assert_eq!(absent.throughput, 0.0);
        assert!(absent.hmean.is_finite());
        let present = sweep.class(2, WorkloadType::Mem);
        assert_eq!(present.throughput, 1.5);
        let avg = sweep.average();
        assert!((avg.throughput - 1.5).abs() < 1e-12);
    }

    #[test]
    fn partial_thread_sweep_has_finite_rows() {
        // Restricting thread counts produces classes with no workloads in
        // some bins of custom filters; every row must stay finite.
        let runner = Runner::new();
        let mut lengths = sweep_lengths();
        lengths.prewarm_insts = 2_000;
        lengths.warmup_cycles = 200;
        lengths.measure_cycles = 1_000;
        let sweep = sweep_policy_threads(
            &runner,
            &PolicyKind::Icount,
            &SimConfig::baseline(2),
            &lengths,
            &[2],
        )
        .expect("baselines must measure");
        assert_eq!(sweep.classes.len(), 3, "three classes for one thread count");
        assert!(sweep.failures.is_empty());
        for (_, _, m) in &sweep.classes {
            assert!(m.throughput.is_finite());
            assert!(m.hmean.is_finite());
            assert!(m.fetch_per_commit.is_finite());
            assert!(m.mlp.is_finite());
        }
        assert!(sweep.average().throughput.is_finite());
    }

    #[test]
    fn sweep_runs_at_the_lengths_seed() {
        // Regression: sweeps copied only the three lengths and ran every
        // workload at the default seed 42.
        let runner = Runner::new();
        let mut lengths = sweep_lengths();
        lengths.prewarm_insts = 2_000;
        lengths.warmup_cycles = 200;
        lengths.measure_cycles = 1_000;
        lengths.seed = 7;
        let config = SimConfig::baseline(2);
        let sweep = sweep_policy_threads(&runner, &PolicyKind::Icount, &config, &lengths, &[2])
            .expect("baselines must measure");
        let mem2: Vec<Workload> = table4_workloads()
            .into_iter()
            .filter(|w| w.threads() == 2 && w.kind == WorkloadType::Mem)
            .collect();
        let throughput = mem2
            .iter()
            .map(|w| {
                let spec = RunSpec {
                    benches: w.benchmarks.clone(),
                    config: config.clone(),
                    ..lengths.clone()
                };
                runner.run(&spec).expect("registry benchmarks").throughput()
            })
            .sum::<f64>()
            / mem2.len() as f64;
        assert_eq!(sweep.class(2, WorkloadType::Mem).throughput, throughput);
    }

    #[test]
    fn sweep_aggregates_nine_classes() {
        // Tiny lengths: structure test, not a measurement.
        let runner = Runner::new();
        let mut lengths = sweep_lengths();
        lengths.prewarm_insts = 5_000;
        lengths.warmup_cycles = 500;
        lengths.measure_cycles = 2_000;
        let sweep = sweep_policy(
            &runner,
            &PolicyKind::Icount,
            &SimConfig::baseline(2),
            &lengths,
        )
        .expect("baselines must measure");
        assert_eq!(sweep.classes.len(), 9);
        assert!(sweep.failures.is_empty());
        let avg = sweep.average();
        assert!(avg.throughput > 0.0);
        let m = sweep.class(2, WorkloadType::Mem);
        assert!(m.throughput > 0.0);
    }
}
