//! The phase pass: the same batch again, driven through the public
//! `smt-sim` API with the engine's specs, worker count and claim order,
//! so each run's phases (`new`/`reset`, `prewarm`, warm-up, measure,
//! result) get a span of their own. A worker keeps one simulator and
//! resets it while the machine configuration is unchanged, as the engine's
//! sessions do; fig5's baselines run serially on fresh simulators, as
//! `Runner::single_ipc` does. Its digest must equal the engine pass's.
//!
//! In profiled mode the warm-up and measured windows run through
//! `run_cycles_profiled` instead, which times every pipeline stage and
//! counts fast-forwarded cycles; that mode is the separate counting pass
//! and records no spans worth reading.

use crate::spans::{self, Clock, Span};
use crate::workloads::{Plan, Stage};
use smt_experiments::{RunSpec, RunStats};
use smt_isa::ThreadId;
use smt_sim::watch::CommitWatchdog;
use smt_sim::{Simulator, StageProfile};
use smt_workloads::{spec, BenchmarkProfile};
use std::sync::atomic::{AtomicUsize, Ordering};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Timed,
    Profiled,
}

/// What the phase pass saw.
#[derive(Debug, Default)]
pub struct PhasePass {
    pub wall_s: f64,
    /// Every run's statistics in plan order (`None` = the run failed).
    pub runs: Vec<Option<RunStats>>,
    /// Failure messages, by run index.
    pub errors: Vec<(usize, String)>,
    pub spans: Vec<Span>,
    /// Per worker-pool stage: its end and its runs' completion times.
    pub completions: Vec<(f64, Vec<f64>)>,
    pub constructs: usize,
    pub resets: usize,
    /// Resets whose profiles and seed equal the previous run's on that
    /// worker: the runs a trace or prewarm cache could have served.
    pub same_workload_resets: usize,
    /// Profiled mode only: the summed stage profile of every run.
    pub profile: StageProfile,
}

/// Runs `plan`'s batch once through the `Simulator` API.
pub fn run(plan: &Plan, workers: usize, mode: Mode) -> Result<PhasePass, String> {
    let clock = Clock::start();
    let mut pass = PhasePass {
        runs: vec![None; plan.runs()],
        ..PhasePass::default()
    };
    pass.spans.push(span("phase.batch", None, None, 0, 0.0));
    let mut base = 0;
    for stage in &plan.stages {
        let stage_id = pass.spans.len();
        pass.spans
            .push(span(&stage.name, Some(0), None, 0, clock.now()));
        let outputs = if stage.serial {
            // One fresh simulator per run, like `Runner::single_ipc`.
            let mut worker = Worker::new(0);
            for (i, spec) in stage.specs.iter().enumerate() {
                worker.execute(&mut None, spec, base + i, &clock, mode);
            }
            vec![worker]
        } else {
            pool(stage, base, workers, &clock, mode)?
        };
        let mut done = Vec::new();
        for w in outputs {
            for (i, result) in w.results {
                match result {
                    Ok(stats) => {
                        if let Some(slot) = pass.runs.get_mut(i) {
                            *slot = Some(stats);
                        }
                    }
                    Err(e) => pass.errors.push((i, e)),
                }
            }
            spans::append(&mut pass.spans, w.spans, stage_id);
            done.extend(w.done);
            pass.constructs += w.constructs;
            pass.resets += w.resets;
            pass.same_workload_resets += w.same_workload_resets;
            add_profile(&mut pass.profile, &w.profile);
        }
        let end = clock.now();
        if let Some(s) = pass.spans.get_mut(stage_id) {
            s.end = end;
        }
        if !stage.serial {
            pass.completions.push((end, done));
        }
        base += stage.specs.len();
    }
    pass.wall_s = clock.now();
    if let Some(root) = pass.spans.first_mut() {
        root.end = pass.wall_s;
    }
    pass.errors.sort_by_key(|(i, _)| *i);
    Ok(pass)
}

/// A worker pool claiming specs in index order from a shared counter, as
/// the engine's pool does.
fn pool(
    stage: &Stage,
    base: usize,
    workers: usize,
    clock: &Clock,
    mode: Mode,
) -> Result<Vec<Worker>, String> {
    let next = AtomicUsize::new(0);
    let n = workers.clamp(1, stage.specs.len().max(1));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|id| {
                let next = &next;
                scope.spawn(move || {
                    let mut worker = Worker::new(id);
                    let mut sim = None;
                    // The counter only hands out indices; it publishes no
                    // other data, so `Relaxed` is enough.
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = stage.specs.get(i) else {
                            break;
                        };
                        worker.execute(&mut sim, spec, base + i, clock, mode);
                    }
                    worker
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "a phase-pass worker panicked".to_string())
            })
            .collect()
    })
}

/// A worker's record of its runs. Its simulator stays on its thread
/// (`Simulator` is not `Send`) and is passed in per run.
struct Worker {
    id: usize,
    /// Profiles and seed of this worker's previous run.
    previous: Option<(Vec<BenchmarkProfile>, u64)>,
    spans: Vec<Span>,
    results: Vec<(usize, Result<RunStats, String>)>,
    done: Vec<f64>,
    constructs: usize,
    resets: usize,
    same_workload_resets: usize,
    profile: StageProfile,
}

impl Worker {
    fn new(id: usize) -> Self {
        Worker {
            id,
            previous: None,
            spans: Vec::new(),
            results: Vec::new(),
            done: Vec::new(),
            constructs: 0,
            resets: 0,
            same_workload_resets: 0,
            profile: StageProfile::default(),
        }
    }

    fn execute(
        &mut self,
        sim: &mut Option<Simulator>,
        spec: &RunSpec,
        run: usize,
        clock: &Clock,
        mode: Mode,
    ) {
        let run_span = self.spans.len();
        self.spans
            .push(span("run", None, Some(run), self.id, clock.now()));
        let result = self.phases(sim, spec, run, run_span, clock, mode);
        let end = clock.now();
        if let Some(s) = self.spans.get_mut(run_span) {
            s.end = end;
        }
        self.done.push(end);
        self.results.push((run, result));
    }

    /// One run, mirroring `SimSession::run` with the engine's default
    /// budget.
    fn phases(
        &mut self,
        slot: &mut Option<Simulator>,
        spec: &RunSpec,
        run: usize,
        parent: usize,
        clock: &Clock,
        mode: Mode,
    ) -> Result<RunStats, String> {
        spec.config.validate()?;
        let profiles = profiles(spec)?;
        let key = (profiles.iter().map(|&p| p.clone()).collect(), spec.seed);
        let policy = spec.policy.build();
        let t = clock.now();
        let (sim, phase) = match slot {
            Some(sim) if sim.config() == &spec.config => {
                self.resets += 1;
                if self.previous.as_ref() == Some(&key) {
                    self.same_workload_resets += 1;
                }
                sim.reset(&profiles, policy, spec.seed);
                (sim, "reset")
            }
            slot => {
                self.constructs += 1;
                let sim = Simulator::new(spec.config.clone(), &profiles, policy, spec.seed);
                (slot.insert(sim), "construct")
            }
        };
        self.previous = Some(key);
        let mut mark = |name: &str, start: f64| {
            let end = clock.now();
            let mut s = span(name, Some(parent), Some(run), self.id, start);
            s.end = end;
            self.spans.push(s);
            end
        };
        let t = mark(phase, t);
        sim.prewarm(spec.prewarm_insts);
        let t = mark("prewarm", t);
        match mode {
            Mode::Timed => {
                let budget = spec.budget.unwrap_or_default();
                let mut watch = CommitWatchdog::new(budget);
                let breach = |b| format!("budget breach: {b:?}");
                if budget.is_unlimited() {
                    sim.run_cycles(spec.warmup_cycles);
                } else {
                    sim.run_cycles_budgeted(spec.warmup_cycles, &mut watch)
                        .map_err(breach)?;
                }
                let t = mark("warmup", t);
                sim.reset_stats();
                if budget.is_unlimited() {
                    sim.run_cycles(spec.measure_cycles);
                } else {
                    sim.run_cycles_budgeted(spec.measure_cycles, &mut watch)
                        .map_err(breach)?;
                }
                let t = mark("measure", t);
                let stats = result(sim, spec);
                mark("result", t);
                Ok(stats)
            }
            Mode::Profiled => {
                sim.run_cycles_profiled(spec.warmup_cycles, &mut self.profile);
                sim.reset_stats();
                sim.run_cycles_profiled(spec.measure_cycles, &mut self.profile);
                Ok(result(sim, spec))
            }
        }
    }
}

/// The spec's per-thread profiles: its overrides, or the registry's.
pub fn profiles(spec: &RunSpec) -> Result<Vec<&BenchmarkProfile>, String> {
    match &spec.profile_overrides {
        Some(p) => Ok(p.iter().collect()),
        None => spec
            .benches
            .iter()
            .map(|b| spec::profile(b).ok_or_else(|| format!("unknown benchmark {b}")))
            .collect(),
    }
}

fn result(sim: &Simulator, spec: &RunSpec) -> RunStats {
    RunStats {
        result: sim.result(),
        mem: (0..spec.benches.len())
            .map(|i| sim.memory().thread_stats(ThreadId::new(i)))
            .collect(),
    }
}

fn span(name: &str, parent: Option<usize>, run: Option<usize>, worker: usize, start: f64) -> Span {
    Span {
        name: name.into(),
        parent,
        run,
        worker,
        start,
        end: start,
    }
}

fn add_profile(total: &mut StageProfile, p: &StageProfile) {
    total.cycles += p.cycles;
    total.skipped += p.skipped;
    total.policy += p.policy;
    total.events += p.events;
    total.commit += p.commit;
    total.issue += p.issue;
    total.dispatch += p.dispatch;
    total.fetch += p.fetch;
    total.forward += p.forward;
    total.other += p.other;
}
