//! The engine pass: one batch through the public `smt-experiments` entry
//! points, exactly as a user regenerating the artefact calls them. With
//! tracing on it also keeps the sink completion times and the per-sweep
//! spans; with tracing off it reads the clock only around the batch.

use crate::digest;
use crate::host;
use crate::spans::{Clock, Span};
use crate::workloads::{metric_policy_name, Fig5Args, Plan};
use smt_experiments::sweep::{sweep_policy, PolicySweep};
use smt_experiments::RunOutcome;
use smt_workloads::table4_workloads;

/// What one engine batch did.
#[derive(Debug)]
pub struct EngineBatch {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Runs attempted, fig5's baselines included.
    pub runs: usize,
    pub failed: usize,
    /// Committed instructions over the measured windows (baselines excluded).
    pub committed: u64,
    /// `runs_digest` of every run, or for fig5 `sweeps_digest`.
    pub digest: u64,
    /// Traced only: per worker-pool call, its end and its sink completion
    /// times (seconds since the batch started).
    pub completions: Vec<(f64, Vec<f64>)>,
    /// Traced only: the batch span and, for fig5, one span per sweep.
    pub spans: Vec<Span>,
    /// fig5 only: the four sweeps, in `fig5::run` order.
    pub sweeps: Vec<PolicySweep>,
}

/// Runs `plan`'s batch once on `workers` engine workers.
pub fn run(plan: &Plan, workers: usize, traced: bool) -> Result<EngineBatch, String> {
    let cpu0 = host::cpu_seconds()?;
    let clock = Clock::start();
    let mut batch = match &plan.fig5 {
        Some(args) => run_fig5(plan, args, &clock, traced)?,
        None => run_pool(plan, workers, &clock, traced),
    };
    batch.wall_s = clock.now();
    batch.cpu_s = host::cpu_seconds()? - cpu0;
    if traced {
        batch.spans.insert(
            0,
            Span {
                name: "engine.batch".into(),
                parent: None,
                run: None,
                worker: 0,
                start: 0.0,
                end: batch.wall_s,
            },
        );
        for s in batch.spans.iter_mut().skip(1) {
            s.parent = Some(0);
        }
    }
    Ok(batch)
}

/// `scenarios` and `steady`: one streaming batch of every spec.
fn run_pool(plan: &Plan, workers: usize, clock: &Clock, traced: bool) -> EngineBatch {
    let specs: Vec<_> = plan.specs().cloned().collect();
    let mut slots: Vec<Option<RunOutcome>> = specs.iter().map(|_| None).collect();
    let mut done = Vec::new();
    plan.runner
        .run_streaming_with_workers(&specs, workers, |i, outcome| {
            if traced {
                done.push(clock.now());
            }
            if let Some(slot) = slots.get_mut(i) {
                *slot = Some(outcome);
            }
        });
    let end = clock.now();
    let stats: Vec<_> = slots
        .iter()
        .map(|o| o.as_ref().and_then(RunOutcome::stats))
        .collect();
    EngineBatch {
        wall_s: 0.0,
        cpu_s: 0.0,
        runs: specs.len(),
        failed: stats.iter().filter(|s| s.is_none()).count(),
        committed: stats
            .iter()
            .flatten()
            .map(|s| s.result.total_committed())
            .sum(),
        digest: digest::runs_digest(stats.iter().copied()),
        completions: if traced {
            vec![(end, done)]
        } else {
            Vec::new()
        },
        spans: Vec::new(),
        sweeps: Vec::new(),
    }
}

/// `fig5`: the four `sweep_policy` calls of `fig5::run` on one `Runner`.
/// The first call also measures the single-thread baselines.
fn run_fig5(
    plan: &Plan,
    args: &Fig5Args,
    clock: &Clock,
    traced: bool,
) -> Result<EngineBatch, String> {
    let mut sweeps = Vec::new();
    let mut spans = Vec::new();
    for policy in &args.policies {
        let start = clock.now();
        let sweep = sweep_policy(&plan.runner, policy, &args.config, &args.lengths)
            .map_err(|e| format!("fig5 {} baselines failed: {e}", policy.name()))?;
        if traced {
            spans.push(Span {
                name: format!("fig5.sweep.{}", metric_policy_name(policy)),
                parent: None,
                run: None,
                worker: 0,
                start,
                end: clock.now(),
            });
        }
        sweeps.push(sweep);
    }
    Ok(EngineBatch {
        wall_s: 0.0,
        cpu_s: 0.0,
        runs: plan.runs(),
        failed: sweeps.iter().map(|s| s.failures.len()).sum(),
        committed: sweeps
            .iter()
            .map(|s| sweep_committed(s, args.lengths.measure_cycles))
            .sum(),
        digest: digest::sweeps_digest(&sweeps),
        completions: Vec::new(),
        spans,
        sweeps,
    })
}

/// Committed instructions of a sweep's measured windows, recovered from its
/// class means: each class averages the throughput (committed / cycles)
/// of its Table-4 workloads over the same measured cycle count.
fn sweep_committed(sweep: &PolicySweep, measure_cycles: u64) -> u64 {
    let workloads = table4_workloads();
    sweep
        .classes
        .iter()
        .map(|(threads, kind, m)| {
            let n = workloads
                .iter()
                .filter(|w| w.threads() == *threads && w.kind == *kind)
                .count();
            (m.throughput * n as f64 * measure_cycles as f64).round() as u64
        })
        .sum()
}
