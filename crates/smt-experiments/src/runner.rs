//! Simulation runner: builds simulators from declarative specs, runs them
//! (in parallel across OS threads, each worker owning one reusable
//! [`SimSession`]), caches single-thread baselines for the Hmean metric
//! and shares post-prewarm memory snapshots between runs of one workload.
//!
//! Every run executes inside its own **fault domain**: panics are caught
//! per run ([`std::panic::catch_unwind`]), budgets bound runaway runs, and
//! every failure mode surfaces as a typed
//! [`RunError`] inside [`RunOutcome::Failed`]
//! rather than tearing the sweep down. See `ARCHITECTURE.md`, "Fault
//! domains & error taxonomy".

use crate::chaos::ChaosPolicy;
use crate::fault::{EngineReport, InjectedFault, RunError};
use dcra::{Dcra, DcraConfig, SharingConfig};
use smt_isa::{PerResource, ThreadId};
use smt_mem::{MemoryConfig, MemorySnapshot};
use smt_policies as pol;
use smt_sim::policy::AnyPolicy;
use smt_sim::watch::CommitWatchdog;
use smt_sim::{RunBudget, SimConfig, SimResult, Simulator};
use smt_workloads::{spec, BenchmarkProfile, ScenarioMix, Workload};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Which policy to run. A declarative, `Clone`able stand-in for a built
/// policy so run specs can be sent across threads.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyKind {
    /// ROUND-ROBIN fetch.
    RoundRobin,
    /// ICOUNT fetch (Tullsen et al.).
    Icount,
    /// STALL (ICOUNT + stall on detected L2 miss).
    Stall,
    /// FLUSH (ICOUNT + flush on detected L2 miss).
    Flush,
    /// FLUSH++ (adaptive STALL/FLUSH).
    FlushPlusPlus,
    /// Data Gating (stall on pending L1 data miss).
    DataGating,
    /// Predictive Data Gating.
    PredictiveDataGating,
    /// Static even partitioning of all controlled resources.
    Sra,
    /// Static partitioning with explicit per-resource caps (Figure 2).
    SraCapped(PerResource<Option<u32>>),
    /// The paper's proposal, with its sharing-factor configuration.
    Dcra(DcraConfig),
}

impl PolicyKind {
    /// The paper's name for this policy.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::RoundRobin => "RR",
            PolicyKind::Icount => "ICOUNT",
            PolicyKind::Stall => "STALL",
            PolicyKind::Flush => "FLUSH",
            PolicyKind::FlushPlusPlus => "FLUSH++",
            PolicyKind::DataGating => "DG",
            PolicyKind::PredictiveDataGating => "PDG",
            PolicyKind::Sra | PolicyKind::SraCapped(_) => "SRA",
            PolicyKind::Dcra(_) => "DCRA",
        }
    }

    /// The inverse of [`PolicyKind::name`] for the nine canonical
    /// policies (case-insensitive). `DCRA` maps to the default
    /// configuration; the capped-SRA and tuned-DCRA variants have no
    /// name of their own. Shell-friendly spellings of `FLUSH++`
    /// (`FLUSHPP`, `FLUSH_PP`) are accepted too.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name.to_ascii_uppercase().as_str() {
            "RR" => PolicyKind::RoundRobin,
            "ICOUNT" => PolicyKind::Icount,
            "STALL" => PolicyKind::Stall,
            "FLUSH" => PolicyKind::Flush,
            "FLUSH++" | "FLUSHPP" | "FLUSH_PP" => PolicyKind::FlushPlusPlus,
            "DG" => PolicyKind::DataGating,
            "PDG" => PolicyKind::PredictiveDataGating,
            "SRA" => PolicyKind::Sra,
            "DCRA" => PolicyKind::Dcra(DcraConfig::default()),
            _ => return None,
        })
    }

    /// DCRA with the sharing factors tuned for `latency` (Section 5.3).
    pub fn dcra_for_latency(latency: u32) -> Self {
        PolicyKind::Dcra(DcraConfig {
            sharing: SharingConfig::for_memory_latency(latency),
            ..DcraConfig::default()
        })
    }

    /// Instantiates the policy. All nine canonical policies come back as
    /// statically-dispatched [`AnyPolicy`] variants; only external policies
    /// (none here) would need the boxed escape hatch.
    pub fn build(&self) -> AnyPolicy {
        match self {
            PolicyKind::RoundRobin => smt_sim::policy::RoundRobin::default().into(),
            PolicyKind::Icount => pol::Icount.into(),
            PolicyKind::Stall => pol::Stall.into(),
            PolicyKind::Flush => pol::Flush.into(),
            PolicyKind::FlushPlusPlus => pol::FlushPlusPlus::default().into(),
            PolicyKind::DataGating => pol::DataGating.into(),
            PolicyKind::PredictiveDataGating => pol::PredictiveDataGating::default().into(),
            PolicyKind::Sra => pol::StaticAllocation::new().into(),
            PolicyKind::SraCapped(caps) => pol::StaticAllocation::with_caps(*caps).into(),
            PolicyKind::Dcra(cfg) => Dcra::new(*cfg).into(),
        }
    }
}

/// One simulation to run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Benchmark names, one per hardware thread.
    pub benches: Vec<String>,
    /// Policy to arbitrate them.
    pub policy: PolicyKind,
    /// Machine configuration (threads must equal `benches.len()`).
    pub config: SimConfig,
    /// Random seed for the trace generators.
    pub seed: u64,
    /// Functional cache warm-up (instructions per thread).
    pub prewarm_insts: u64,
    /// Timed warm-up cycles (discarded).
    pub warmup_cycles: u64,
    /// Measured cycles.
    pub measure_cycles: u64,
    /// Explicit per-thread profiles, overriding the registry lookup of
    /// `benches`. Set by [`RunSpec::for_mix`] so generated scenario mixes
    /// — whose jittered/synthesized profiles exist nowhere in
    /// [`smt_workloads::spec`] — run through the same machinery; `benches`
    /// then only carries the display names.
    pub profile_overrides: Option<Vec<BenchmarkProfile>>,
    /// Per-run budget. `None` (the usual case) means
    /// [`RunBudget::default`].
    pub budget: Option<RunBudget>,
    /// Deterministic fault injection for chaos tests; `None` everywhere
    /// else. See [`crate::chaos`].
    pub fault: Option<InjectedFault>,
}

impl RunSpec {
    /// Standard measurement lengths: 400k-instruction functional warm-up,
    /// 30k-cycle timed warm-up, 250k measured cycles.
    pub fn new(benches: &[&str], policy: PolicyKind) -> Self {
        let mut config = SimConfig::baseline(benches.len());
        config.threads = benches.len();
        RunSpec {
            benches: benches.iter().map(|b| b.to_string()).collect(),
            policy,
            config,
            seed: 42,
            prewarm_insts: 400_000,
            warmup_cycles: 30_000,
            measure_cycles: 250_000,
            profile_overrides: None,
            budget: None,
            fault: None,
        }
    }

    /// Builds a spec for the benchmarks of a Table-4 workload.
    pub fn for_workload(workload: &Workload, policy: PolicyKind) -> Self {
        let names: Vec<&str> = workload.benchmarks.iter().map(|s| s.as_str()).collect();
        RunSpec::new(&names, policy)
    }

    /// Builds a spec for a generated [`ScenarioMix`]: the mix's profiles
    /// become the run's threads (bypassing the benchmark registry) and the
    /// mix's derived seed replaces the default.
    pub fn for_mix(mix: &ScenarioMix, policy: PolicyKind) -> Self {
        let names: Vec<&str> = mix.benchmark_names();
        let mut spec = RunSpec::new(&names, policy);
        spec.seed = mix.seed;
        spec.profile_overrides = Some(mix.profiles.clone());
        spec
    }

    /// Replaces the machine configuration (keeps `threads` consistent).
    pub fn with_config(mut self, mut config: SimConfig) -> Self {
        config.threads = self.benches.len();
        self.config = config;
        self
    }

    /// Takes the run lengths and the seed from `lengths`: its
    /// `prewarm_insts`, `warmup_cycles`, `measure_cycles` and `seed`.
    pub fn with_lengths_of(mut self, lengths: &RunSpec) -> Self {
        self.prewarm_insts = lengths.prewarm_insts;
        self.warmup_cycles = lengths.warmup_cycles;
        self.measure_cycles = lengths.measure_cycles;
        self.seed = lengths.seed;
        self
    }

    fn profiles(&self) -> Result<Vec<&BenchmarkProfile>, RunError> {
        match &self.profile_overrides {
            Some(overrides) => {
                if overrides.len() != self.benches.len() {
                    return Err(RunError::InvalidSpec {
                        message: format!(
                            "profile overrides cover {} threads, spec has {}",
                            overrides.len(),
                            self.benches.len()
                        ),
                    });
                }
                overrides
                    .iter()
                    .map(|p| {
                        p.validate().map(|()| p).map_err(|e| RunError::InvalidSpec {
                            message: e.to_string(),
                        })
                    })
                    .collect()
            }
            None => self
                .benches
                .iter()
                .map(|b| {
                    spec::profile(b).ok_or_else(|| RunError::UnknownBenchmark { bench: b.clone() })
                })
                .collect(),
        }
    }
}

/// Statistics of one completed run: the pipeline-side result plus the
/// memory snapshot the experiments need.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Pipeline-side result (IPCs, fetch counts, MLP, ...).
    pub result: SimResult,
    /// Per-thread memory statistics (L1/L2 miss rates).
    pub mem: Vec<smt_mem::ThreadMemStats>,
}

impl RunStats {
    /// Convenience: per-thread IPCs.
    pub fn ipcs(&self) -> Vec<f64> {
        self.result.ipcs()
    }

    /// Convenience: IPC throughput.
    pub fn throughput(&self) -> f64 {
        self.result.throughput()
    }
}

/// What became of one run inside the fault-isolated engine: either the
/// statistics of a completed run or the typed error it failed with.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// The run completed and produced statistics.
    Completed {
        /// The run's statistics.
        stats: RunStats,
    },
    /// The run failed.
    Failed {
        /// Why it failed.
        error: RunError,
    },
}

impl RunOutcome {
    /// The statistics, if the run completed.
    pub fn stats(&self) -> Option<&RunStats> {
        match self {
            RunOutcome::Completed { stats } => Some(stats),
            RunOutcome::Failed { .. } => None,
        }
    }

    /// The error, if the run failed.
    pub fn error(&self) -> Option<&RunError> {
        match self {
            RunOutcome::Completed { .. } => None,
            RunOutcome::Failed { error } => Some(error),
        }
    }

    /// `true` if the run completed.
    pub fn is_completed(&self) -> bool {
        matches!(self, RunOutcome::Completed { .. })
    }

    /// Unwraps into `Result`.
    pub fn into_stats(self) -> Result<RunStats, RunError> {
        match self {
            RunOutcome::Completed { stats } => Ok(stats),
            RunOutcome::Failed { error } => Err(error),
        }
    }
}

/// A reusable simulation session: owns one [`Simulator`] and replays run
/// specs through it.
///
/// A sweep issues hundreds of short runs; building a fresh simulator for
/// each one reallocates the instruction windows, cache tag arrays, event
/// wheel and predictor tables every time. A session instead calls
/// [`Simulator::reset`] whenever the next spec shares the previous spec's
/// machine configuration — trace generators and policy are re-seeded in
/// place, every allocation is retained, and the run is bit-identical to a
/// fresh simulator (guaranteed by the `reset` contract and pinned by the
/// session-equality test in `tests/determinism.rs`).
///
/// # Examples
///
/// ```
/// use smt_experiments::{PolicyKind, RunSpec, SimSession};
///
/// let mut session = SimSession::new();
/// let mut spec = RunSpec::new(&["gzip"], PolicyKind::Icount);
/// spec.prewarm_insts = 10_000;
/// spec.warmup_cycles = 1_000;
/// spec.measure_cycles = 5_000;
/// let first = session.run(&spec).expect("valid spec");   // builds the simulator
/// let second = session.run(&spec).expect("valid spec");  // reuses it in place
/// assert_eq!(first.result, second.result);
/// ```
#[derive(Debug, Default)]
pub struct SimSession {
    sim: Option<Simulator>,
}

impl SimSession {
    /// Creates an empty session; the first run builds its simulator.
    pub fn new() -> Self {
        SimSession::default()
    }

    /// Runs one spec to completion, reusing the owned simulator when the
    /// machine configuration matches.
    ///
    /// Unknown benchmarks, invalid machine configurations
    /// ([`SimConfig::validate`] — a hard check that holds in release
    /// builds, so e.g. a >8-thread config from a deserialized sweep file
    /// fails loudly here instead of corrupting issue ordering downstream),
    /// invalid profile overrides, thread-count mismatches (through
    /// [`Simulator::try_new`]) and budget breaches come back as typed
    /// [`RunError`]s. Panics from
    /// policy or simulator code propagate — one-shot callers that need
    /// containment go through the [`Runner`] engine instead, which wraps
    /// each run in [`std::panic::catch_unwind`].
    pub fn run(&mut self, spec: &RunSpec) -> Result<RunStats, RunError> {
        self.run_with(spec, &PrewarmCache::default())
    }

    /// [`SimSession::run`] with the functional warm-up going through the
    /// `prewarm` snapshot cache.
    fn run_with(&mut self, spec: &RunSpec, prewarm: &PrewarmCache) -> Result<RunStats, RunError> {
        let profiles = spec.profiles()?;
        let policy = match spec.fault {
            Some(InjectedFault::PanicAtCycle { at_cycle }) => {
                AnyPolicy::Boxed(Box::new(ChaosPolicy::new(spec.policy.build(), at_cycle)))
            }
            None => spec.policy.build(),
        };
        let sim = match &mut self.sim {
            Some(sim) if sim.config() == &spec.config && profiles.len() == spec.config.threads => {
                sim.reset(&profiles, policy, spec.seed);
                sim
            }
            slot => slot.insert(
                Simulator::try_new(spec.config.clone(), &profiles, policy, spec.seed).map_err(
                    |e| RunError::InvalidSpec {
                        message: e.to_string(),
                    },
                )?,
            ),
        };
        prewarm.prewarm(sim, spec, &profiles)?;
        // One watchdog spans warm-up and measurement, so the cycle cap
        // bounds the whole run. A breach leaves the simulator in the
        // session: its allocations are fine, and the next run's `reset`
        // restores a clean machine.
        let mut watch = CommitWatchdog::new(spec.budget.unwrap_or_default());
        sim.run(spec.warmup_cycles, &mut watch)?;
        sim.reset_stats();
        sim.run(spec.measure_cycles, &mut watch)?;
        let mem = (0..spec.benches.len())
            .map(|i| sim.memory().thread_stats(ThreadId::new(i)))
            .collect();
        Ok(RunStats {
            result: sim.result(),
            mem,
        })
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Runs `spec` on `session` under the engine's fault domain: the run is
/// wrapped in `catch_unwind`, and a caught panic discards the (possibly
/// corrupt) simulator.
fn execute(session: &mut SimSession, spec: &RunSpec, prewarm: &PrewarmCache) -> RunOutcome {
    match catch_unwind(AssertUnwindSafe(|| session.run_with(spec, prewarm))) {
        Ok(Ok(stats)) => RunOutcome::Completed { stats },
        Ok(Err(error)) => RunOutcome::Failed { error },
        Err(payload) => {
            // The unwound simulator may hold arbitrary state; discard it so
            // the next run on this worker starts clean.
            *session = SimSession::new();
            RunOutcome::Failed {
                error: RunError::Panicked {
                    message: panic_message(payload),
                },
            }
        }
    }
}

/// The engine worker count for callers without one of their own: the
/// host's available parallelism, or 4 if it is unknown.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Cache key for single-thread baseline IPCs: everything the one-thread
/// ICOUNT baseline run is a function of. That is the benchmark, the
/// *complete* machine configuration (normalised to one thread, which is
/// how baselines are measured), the three run lengths and the seed. A
/// key without the lengths would hand a sweep the baselines an earlier
/// sweep measured at other lengths on the same [`Runner`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct BaselineKey {
    bench: String,
    config: SimConfig,
    prewarm_insts: u64,
    warmup_cycles: u64,
    measure_cycles: u64,
    seed: u64,
}

/// The baseline cache key of `bench` on `config` and the one-thread ICOUNT
/// spec that measures it.
fn baseline_spec(bench: &str, config: &SimConfig, lengths: &RunSpec) -> (BaselineKey, RunSpec) {
    let spec = RunSpec::new(&[bench], PolicyKind::Icount)
        .with_config(config.clone())
        .with_lengths_of(lengths);
    let key = BaselineKey {
        bench: bench.to_string(),
        config: spec.config.clone(),
        prewarm_insts: spec.prewarm_insts,
        warmup_cycles: spec.warmup_cycles,
        measure_cycles: spec.measure_cycles,
        seed: spec.seed,
    };
    (key, spec)
}

/// Hit, store and size counts of a [`Runner`]'s prewarm snapshot cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrewarmStats {
    /// Runs whose functional warm-up was restored from a snapshot.
    pub hits: usize,
    /// Snapshots stored (one per key, on its second sighting).
    pub stores: usize,
    /// [`MemorySnapshot::heap_bytes`] summed over the stored snapshots.
    pub snapshot_bytes: usize,
}

/// One workload key of the prewarm cache: everything the memory state
/// after [`Simulator::prewarm`] is a function of. That is the memory
/// configuration, the per-thread profiles (their count is the thread
/// count), the run seed and the warm-up length. The policy and the rest of
/// the machine configuration play no part.
#[derive(Debug)]
struct PrewarmEntry {
    mem: MemoryConfig,
    profiles: Vec<BenchmarkProfile>,
    seed: u64,
    insts: u64,
    /// The post-prewarm memory state; `None` until the key's second
    /// sighting.
    snapshot: Option<Arc<MemorySnapshot>>,
}

impl PrewarmEntry {
    fn matches(&self, spec: &RunSpec, profiles: &[&BenchmarkProfile]) -> bool {
        self.seed == spec.seed
            && self.insts == spec.prewarm_insts
            && self.mem == spec.config.mem
            && self.profiles.len() == profiles.len()
            && self.profiles.iter().zip(profiles).all(|(a, b)| a == *b)
    }
}

/// Runner-scoped cache of post-prewarm memory snapshots.
///
/// Functional warm-up does not depend on the policy, so a policy sweep
/// repeats the same warm-up for every policy of a workload. Admission is
/// on the *second sighting*: the first run of a key only records the key,
/// the second stores its snapshot, and every later run restores it with
/// [`Simulator::restore_prewarm`] instead of prewarming. Keys seen once
/// (generated scenario mixes, baselines) therefore cost no snapshot
/// memory. Lookups are a linear scan: a runner sees at most a few hundred
/// keys, and each comparison usually fails on the seed or the first
/// profile name.
#[derive(Debug, Default)]
struct PrewarmCache {
    inner: Mutex<(Vec<PrewarmEntry>, PrewarmStats)>,
}

impl PrewarmCache {
    /// Brings `sim`, freshly built or reset for `spec`, to its post-prewarm
    /// state: restored from a snapshot on a hit, prewarmed otherwise. A
    /// snapshot that does not fit the simulator is an invalid spec.
    fn prewarm(
        &self,
        sim: &mut Simulator,
        spec: &RunSpec,
        profiles: &[&BenchmarkProfile],
    ) -> Result<(), RunError> {
        let lock = || self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let second_sighting = {
            let mut guard = lock();
            let (entries, stats) = &mut *guard;
            match entries.iter().find(|e| e.matches(spec, profiles)) {
                Some(PrewarmEntry {
                    snapshot: Some(snapshot),
                    ..
                }) => {
                    let snapshot = Arc::clone(snapshot);
                    stats.hits += 1;
                    drop(guard);
                    return sim
                        .restore_prewarm(&snapshot)
                        .map_err(|e| RunError::InvalidSpec {
                            message: e.to_string(),
                        });
                }
                Some(_) => true,
                None => {
                    entries.push(PrewarmEntry {
                        mem: spec.config.mem.clone(),
                        profiles: profiles.iter().map(|&p| p.clone()).collect(),
                        seed: spec.seed,
                        insts: spec.prewarm_insts,
                        snapshot: None,
                    });
                    false
                }
            }
        };
        sim.prewarm(spec.prewarm_insts);
        if second_sighting {
            let snapshot = Arc::new(sim.memory().snapshot());
            let mut guard = lock();
            let (entries, stats) = &mut *guard;
            // Another worker may have stored the same key meanwhile.
            if let Some(entry) = entries
                .iter_mut()
                .find(|e| e.snapshot.is_none() && e.matches(spec, profiles))
            {
                stats.snapshot_bytes += snapshot.heap_bytes();
                entry.snapshot = Some(snapshot);
                stats.stores += 1;
            }
        }
        Ok(())
    }

    fn stats(&self) -> PrewarmStats {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).1
    }
}

/// Executes run specs, caches single-thread baseline IPCs and shares
/// post-prewarm memory snapshots between runs of one workload (see
/// [`Runner::prewarm_stats`]).
///
/// # Examples
///
/// ```
/// use smt_experiments::{PolicyKind, Runner, RunSpec};
///
/// let runner = Runner::new();
/// let mut spec = RunSpec::new(&["gzip"], PolicyKind::Icount);
/// spec.prewarm_insts = 10_000; // tiny run for the example
/// spec.warmup_cycles = 1_000;
/// spec.measure_cycles = 5_000;
/// let out = runner.run(&spec).expect("valid spec");
/// assert!(out.throughput() > 0.0);
/// ```
#[derive(Debug, Default)]
pub struct Runner {
    baselines: Mutex<HashMap<BaselineKey, f64>>,
    prewarm: PrewarmCache,
}

impl Runner {
    /// Creates a runner with empty baseline and prewarm caches.
    pub fn new() -> Self {
        Runner::default()
    }

    /// Runs one spec to completion in a one-shot session. Spec-level
    /// failures come back as [`RunError`]; panics propagate (use
    /// [`Runner::run_all`] for panic containment).
    pub fn run(&self, spec: &RunSpec) -> Result<RunStats, RunError> {
        SimSession::new().run_with(spec, &self.prewarm)
    }

    /// Hit, store and size counts of the prewarm snapshot cache so far. Every
    /// run through this runner looks the cache up; results are
    /// bit-identical whether it hits or not.
    pub fn prewarm_stats(&self) -> PrewarmStats {
        self.prewarm.stats()
    }

    /// The engine: runs `specs` on a pool of `workers` threads fed from a
    /// shared work queue, streaming each `(spec_index, outcome)` pair into
    /// `sink` as it completes. A worker count of 0 runs on one worker.
    ///
    /// Every worker owns one [`SimSession`], so consecutive specs with the
    /// same machine configuration reuse a simulator instead of building one
    /// per run — the dominant setup cost of the paper-scale sweeps. The
    /// sink receives outcomes in *completion* order (not spec order) under
    /// an internal lock; completed outcomes are identical to sequential
    /// fresh-simulator runs for every worker count (only completion order
    /// varies — the end-to-end suite pins this), so consumers that
    /// aggregate incrementally (the sweep and figure binaries) never
    /// materialise the whole result vector.
    ///
    /// Fault-domain guarantees:
    ///
    /// * **Panic containment** — a panicking run (policy bug, corrupt
    ///   spec, injected chaos) is caught on its worker; the worker's
    ///   simulator is discarded and the queue keeps draining. The panic
    ///   surfaces as [`RunError::Panicked`].
    /// * **Budgets** — every run is bounded by its spec's budget
    ///   ([`RunBudget::default`] if it has none); breaches surface as
    ///   [`RunError::CycleBudget`] / [`RunError::Livelock`].
    /// * **Sink isolation** — a panicking sink callback is caught too; the
    ///   shared sink lock is explicitly poison-recovered, sibling
    ///   deliveries proceed, and the affected indices are reported in
    ///   [`EngineReport::sink_panics`].
    pub fn run_streaming_with_workers<F>(
        &self,
        specs: &[RunSpec],
        workers: usize,
        sink: F,
    ) -> EngineReport
    where
        F: FnMut(usize, RunOutcome) + Send,
    {
        if specs.is_empty() {
            return EngineReport::default();
        }
        let sink = Mutex::new(sink);
        let sink_panics: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let completed = AtomicUsize::new(0);
        let failed = AtomicUsize::new(0);

        // Holds the sink lock *outside* the catch_unwind closure: a panic
        // inside the callback unwinds only to the catch boundary, never
        // across the guard's scope, so the mutex is released cleanly (not
        // poisoned) and other workers keep delivering.
        let deliver = |i: usize, outcome: RunOutcome| {
            let mut guard = sink.lock().unwrap_or_else(PoisonError::into_inner);
            let delivery = catch_unwind(AssertUnwindSafe(|| (*guard)(i, outcome)));
            drop(guard);
            if delivery.is_err() {
                sink_panics
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(i);
            }
        };

        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers.clamp(1, specs.len()) {
                scope.spawn(|| {
                    let mut session = SimSession::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= specs.len() {
                            break;
                        }
                        let outcome = execute(&mut session, &specs[i], &self.prewarm);
                        let counter = if outcome.is_completed() {
                            &completed
                        } else {
                            &failed
                        };
                        counter.fetch_add(1, Ordering::Relaxed);
                        deliver(i, outcome);
                    }
                });
            }
        });

        let mut sink_panics = sink_panics
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        sink_panics.sort_unstable();
        EngineReport {
            completed: completed.into_inner(),
            failed: failed.into_inner(),
            sink_panics,
        }
    }

    /// Runs `specs` on `workers` threads and returns every outcome —
    /// completed and failed — in spec order. Outcomes are independent of
    /// `workers`.
    pub fn run_all(&self, specs: &[RunSpec], workers: usize) -> Vec<RunOutcome> {
        let mut slots: Vec<Option<RunOutcome>> = specs.iter().map(|_| None).collect();
        self.run_streaming_with_workers(specs, workers, |i, outcome| slots[i] = Some(outcome));
        slots
            .into_iter()
            .map(|slot| slot.expect("worker pool covered every spec"))
            .collect()
    }

    /// Single-thread baseline IPC of `bench` on `config` (ICOUNT, full
    /// machine) at the lengths and seed of `lengths`, cached per (bench,
    /// complete one-thread machine config, lengths, seed).
    pub fn single_ipc(
        &self,
        bench: &str,
        config: &SimConfig,
        lengths: &RunSpec,
    ) -> Result<f64, RunError> {
        let (key, spec) = baseline_spec(bench, config, lengths);
        if let Some(v) = self
            .baselines
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            return Ok(*v);
        }
        let ipc = self.run(&spec)?.throughput();
        self.baselines
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, ipc);
        Ok(ipc)
    }

    /// Measures every uncached single-thread baseline of `workloads` in one
    /// parallel engine batch and caches it, with the same keys and values
    /// as [`Runner::single_ipc`]. Fails with the first failing baseline in
    /// workload order, as measuring them one by one would.
    pub(crate) fn measure_baselines(
        &self,
        workloads: &[Workload],
        config: &SimConfig,
        lengths: &RunSpec,
    ) -> Result<(), RunError> {
        let mut pending: Vec<(BaselineKey, RunSpec)> = Vec::new();
        {
            let cached = self
                .baselines
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            for bench in workloads.iter().flat_map(|w| &w.benchmarks) {
                let (key, spec) = baseline_spec(bench, config, lengths);
                if !cached.contains_key(&key) && pending.iter().all(|(k, _)| *k != key) {
                    pending.push((key, spec));
                }
            }
        }
        let specs: Vec<RunSpec> = pending.iter().map(|(_, s)| s.clone()).collect();
        let outcomes = self.run_all(&specs, default_workers());
        let mut cached = self
            .baselines
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for ((key, _), outcome) in pending.into_iter().zip(outcomes) {
            cached.insert(key, outcome.into_stats()?.throughput());
        }
        Ok(())
    }

    /// Single-thread baselines for every benchmark of a workload.
    pub fn single_ipcs(
        &self,
        workload: &Workload,
        config: &SimConfig,
        lengths: &RunSpec,
    ) -> Result<Vec<f64>, RunError> {
        workload
            .benchmarks
            .iter()
            .map(|b| self.single_ipc(b, config, lengths))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_sim::policy::Policy as _;

    fn tiny(benches: &[&str], policy: PolicyKind) -> RunSpec {
        let mut s = RunSpec::new(benches, policy);
        s.prewarm_insts = 20_000;
        s.warmup_cycles = 2_000;
        s.measure_cycles = 10_000;
        s
    }

    #[test]
    fn policy_kinds_build_and_name() {
        for k in [
            PolicyKind::RoundRobin,
            PolicyKind::Icount,
            PolicyKind::Stall,
            PolicyKind::Flush,
            PolicyKind::FlushPlusPlus,
            PolicyKind::DataGating,
            PolicyKind::PredictiveDataGating,
            PolicyKind::Sra,
            PolicyKind::Dcra(DcraConfig::default()),
        ] {
            assert_eq!(k.build().name(), k.name());
        }
    }

    #[test]
    fn canonical_names_round_trip() {
        for name in [
            "RR", "ICOUNT", "STALL", "FLUSH", "FLUSH++", "DG", "PDG", "SRA", "DCRA",
        ] {
            let kind = PolicyKind::from_name(name)
                .unwrap_or_else(|| panic!("canonical policy {name} must parse"));
            assert_eq!(kind.name(), name, "name ↔ kind round trip");
        }
        assert!(PolicyKind::from_name("NOPE").is_none());
    }

    #[test]
    fn shell_friendly_flushpp_aliases() {
        for alias in ["FLUSHPP", "FLUSH_PP", "flushpp", "flush_pp", "FLUSH++"] {
            assert_eq!(
                PolicyKind::from_name(alias),
                Some(PolicyKind::FlushPlusPlus),
                "{alias} should parse as FLUSH++"
            );
        }
    }

    #[test]
    fn session_rejects_oversized_thread_configs() {
        // Release builds must refuse >MAX_THREADS configs with a clear
        // error: the ready-key packing (`seq << 3 | tid`) assumes tid < 8
        // and only debug-asserts it on the hot path.
        let mut spec = tiny(&["gzip", "mcf"], PolicyKind::Icount);
        spec.config.threads = smt_isa::ThreadId::MAX_THREADS + 1;
        spec.config.phys_regs = u32::MAX;
        assert!(matches!(
            SimSession::new().run(&spec),
            Err(RunError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn session_rejects_zero_sized_queues() {
        let mut spec = tiny(&["gzip"], PolicyKind::Icount);
        spec.config.fetch_queue = 0;
        assert!(matches!(
            SimSession::new().run(&spec),
            Err(RunError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn session_rejects_invalid_profiles_and_thread_counts() {
        // The session holds a simulator for this machine after the first
        // run, so the bad inputs after it take the reset path.
        let mut run = tiny(&["gzip", "mcf"], PolicyKind::Icount);
        let mut session = SimSession::new();
        session.run(&run).expect("valid spec");
        let mut bad = spec::profile("mcf").unwrap().clone();
        bad.dep_mean = 0.5;
        run.profile_overrides = Some(vec![spec::profile("gzip").unwrap().clone(), bad]);
        let invalid =
            |r: Result<RunStats, RunError>| matches!(r, Err(RunError::InvalidSpec { .. }));
        assert!(invalid(session.run(&run)));
        let mut three = tiny(&["gzip", "mcf", "art"], PolicyKind::Icount);
        three.config = run.config.clone();
        assert!(invalid(session.run(&three)));
        // A fresh session builds through `Simulator::try_new`.
        assert!(invalid(SimSession::new().run(&three)));
    }

    #[test]
    fn session_reports_unknown_benchmarks() {
        let spec = tiny(&["gzip", "no-such-bench"], PolicyKind::Icount);
        match SimSession::new().run(&spec) {
            Err(RunError::UnknownBenchmark { bench }) => assert_eq!(bench, "no-such-bench"),
            other => panic!("expected UnknownBenchmark, got {other:?}"),
        }
    }

    #[test]
    fn run_produces_progress() {
        let r = Runner::new();
        let out = r
            .run(&tiny(&["gzip", "twolf"], PolicyKind::Icount))
            .expect("valid spec");
        assert!(out.throughput() > 0.1);
        assert_eq!(out.mem.len(), 2);
    }

    /// Pins the stored snapshot size of one MEM4 mix at the perfbench
    /// `fig5` lengths (130k / 8k / 32k on the baseline machine), so a
    /// return to dense copies of the hierarchy fails here: their L2 tag
    /// array alone is 128 KiB.
    #[test]
    fn prewarm_snapshot_bytes_are_pinned_for_a_mem4_mix() {
        let mem4 = &smt_workloads::workloads_of(smt_workloads::WorkloadType::Mem, 4)[0];
        let mut spec =
            RunSpec::for_workload(mem4, PolicyKind::Icount).with_config(SimConfig::baseline(4));
        spec.prewarm_insts = 130_000;
        spec.warmup_cycles = 8_000;
        spec.measure_cycles = 32_000;
        let runner = Runner::new();
        let outcomes = runner.run_all(&[spec.clone(), spec], 1);
        assert!(outcomes.iter().all(RunOutcome::is_completed));
        let stats = runner.prewarm_stats();
        assert_eq!((stats.hits, stats.stores), (0, 1));
        assert_eq!(stats.snapshot_bytes, 240_904);
    }

    #[test]
    fn run_all_matches_individual_runs() {
        let r = Runner::new();
        let specs = vec![
            tiny(&["gzip"], PolicyKind::Icount),
            tiny(&["twolf"], PolicyKind::Dcra(DcraConfig::default())),
        ];
        let batch = r.run_all(&specs, 2);
        let solo0 = r.run(&specs[0]).expect("valid spec");
        let solo1 = r.run(&specs[1]).expect("valid spec");
        assert_eq!(
            batch[0].stats().expect("valid spec").result,
            solo0.result,
            "parallel run must be deterministic"
        );
        assert_eq!(batch[1].stats().expect("valid spec").result, solo1.result);
    }

    #[test]
    fn session_reuse_is_bit_identical_to_fresh_runs() {
        // One session runs a mixed queue of same-config specs back to
        // back; every outcome must match a fresh one-shot session.
        let specs = [
            tiny(&["gzip", "mcf"], PolicyKind::Icount),
            tiny(&["art", "gcc"], PolicyKind::Dcra(DcraConfig::default())),
            tiny(&["twolf", "swim"], PolicyKind::Flush),
        ];
        let mut session = SimSession::new();
        for spec in &specs {
            let reused = session.run(spec).expect("valid spec");
            let fresh = SimSession::new().run(spec).expect("valid spec");
            assert_eq!(reused.result, fresh.result, "session reuse drifted");
            assert_eq!(reused.mem, fresh.mem);
        }
    }

    #[test]
    fn run_streaming_covers_every_spec_incrementally() {
        let r = Runner::new();
        let specs = vec![
            tiny(&["gzip"], PolicyKind::Icount),
            tiny(&["mcf"], PolicyKind::Stall),
            tiny(&["art"], PolicyKind::Flush),
        ];
        let mut seen = vec![false; specs.len()];
        let mut outcomes: Vec<Option<RunStats>> = specs.iter().map(|_| None).collect();
        let report = r.run_streaming_with_workers(&specs, default_workers(), |i, out| {
            seen[i] = true;
            outcomes[i] = Some(out.into_stats().expect("valid spec"));
        });
        assert!(seen.iter().all(|&s| s), "every spec must reach the sink");
        assert_eq!(report.completed, specs.len());
        assert_eq!(report.failed, 0);
        let batch = r.run_all(&specs, 2);
        for (streamed, batched) in outcomes.iter().zip(&batch) {
            assert_eq!(
                streamed.as_ref().expect("seen").result,
                batched.stats().expect("valid spec").result
            );
        }
    }

    #[test]
    fn zero_workers_run_like_one_worker() {
        let r = Runner::new();
        let specs = vec![
            tiny(&["gzip"], PolicyKind::Icount),
            tiny(&["mcf", "art"], PolicyKind::Flush),
        ];
        let mut zero: Vec<Option<RunOutcome>> = specs.iter().map(|_| None).collect();
        let report = r.run_streaming_with_workers(&specs, 0, |i, out| zero[i] = Some(out));
        assert_eq!(report.completed, specs.len());
        let zero: Vec<RunOutcome> = zero.into_iter().map(|o| o.expect("delivered")).collect();
        assert_eq!(zero, r.run_all(&specs, 1));
        assert_eq!(
            r.run_streaming_with_workers(&[], 0, |_, _| {}),
            EngineReport::default()
        );
    }

    #[test]
    fn failed_runs_do_not_poison_their_worker_session() {
        // A faulted run sandwiched between good runs must leave its worker
        // (and the shared sink) fully functional, and the good runs
        // bit-identical to a clean batch.
        crate::chaos::silence_chaos_panics();
        let good = [
            tiny(&["gzip", "mcf"], PolicyKind::Icount),
            tiny(&["art", "gcc"], PolicyKind::Flush),
        ];
        let mut bad = tiny(&["twolf", "swim"], PolicyKind::Stall);
        bad.fault = Some(InjectedFault::PanicAtCycle { at_cycle: 64 });
        let specs = vec![good[0].clone(), bad, good[1].clone()];
        let r = Runner::new();
        let outcomes = r.run_all(&specs, 1);
        match &outcomes[1] {
            RunOutcome::Failed {
                error: RunError::Panicked { message },
            } => assert!(message.contains("chaos-injected"), "{message}"),
            other => panic!("expected contained panic, got {other:?}"),
        }
        for (i, spec) in [(0usize, &good[0]), (2usize, &good[1])] {
            let clean = r.run(spec).expect("valid spec");
            let stats = outcomes[i].stats().expect("good run completed");
            assert_eq!(stats.result, clean.result, "spec {i} contaminated");
            assert_eq!(stats.mem, clean.mem);
        }
    }

    #[test]
    fn sink_panics_are_contained_and_reported() {
        crate::chaos::silence_chaos_panics();
        let r = Runner::new();
        let specs = vec![
            tiny(&["gzip"], PolicyKind::Icount),
            tiny(&["mcf"], PolicyKind::Stall),
            tiny(&["art"], PolicyKind::Flush),
        ];
        let mut delivered = Vec::new();
        let report = r.run_streaming_with_workers(&specs, 2, |i, o| {
            if i == 1 {
                panic!("chaos-injected sink failure for spec {i}");
            }
            delivered.push((i, o.is_completed()));
        });
        assert_eq!(report.sink_panics, vec![1]);
        assert_eq!(report.completed, 3, "the run itself completed");
        delivered.sort_unstable();
        assert_eq!(delivered, vec![(0, true), (2, true)]);
    }

    #[test]
    fn budget_breaches_surface_as_typed_errors() {
        let mut spec = tiny(&["gzip"], PolicyKind::Icount);
        spec.budget = Some(RunBudget {
            max_cycles: Some(50),
            livelock_window: None,
        });
        match SimSession::new().run(&spec) {
            Err(RunError::CycleBudget { limit: 50, .. }) => {}
            other => panic!("expected CycleBudget, got {other:?}"),
        }
        spec.budget = Some(RunBudget {
            max_cycles: None,
            livelock_window: Some(1),
        });
        match SimSession::new().run(&spec) {
            Err(RunError::Livelock { window: 1, .. }) => {}
            other => panic!("expected Livelock, got {other:?}"),
        }
    }

    #[test]
    fn default_budget_leaves_results_bit_identical() {
        // The default livelock watchdog must never perturb a healthy run.
        let spec = tiny(&["gzip", "mcf"], PolicyKind::Icount);
        let mut unbudgeted = spec.clone();
        unbudgeted.budget = Some(RunBudget::unlimited());
        let watched = SimSession::new().run(&spec).expect("valid spec");
        let free = SimSession::new().run(&unbudgeted).expect("valid spec");
        assert_eq!(watched.result, free.result);
        assert_eq!(watched.mem, free.mem);
    }

    #[test]
    fn baseline_cache_hits() {
        let r = Runner::new();
        let lengths = tiny(&["gzip"], PolicyKind::Icount);
        let cfg = SimConfig::baseline(1);
        let a = r.single_ipc("gzip", &cfg, &lengths).expect("known bench");
        let b = r.single_ipc("gzip", &cfg, &lengths).expect("known bench");
        assert_eq!(a, b);
        assert!(a > 0.5);
    }

    #[test]
    fn batched_baselines_equal_serial_ones() {
        let lengths = tiny(&["gzip"], PolicyKind::Icount);
        let cfg = SimConfig::baseline(2);
        let workloads: Vec<Workload> = smt_workloads::table4_workloads()
            .into_iter()
            .filter(|w| w.threads() == 2)
            .take(3)
            .collect();
        let batched = Runner::new();
        batched
            .measure_baselines(&workloads, &cfg, &lengths)
            .expect("known benches");
        let serial = Runner::new();
        for w in &workloads {
            let a = batched.single_ipcs(w, &cfg, &lengths).expect("cached");
            let b = serial
                .single_ipcs(w, &cfg, &lengths)
                .expect("known benches");
            assert_eq!(a, b, "{:?}", w.benchmarks);
        }
    }

    #[test]
    fn batched_baselines_report_unknown_benchmarks() {
        let lengths = tiny(&["gzip"], PolicyKind::Icount);
        let mut w = smt_workloads::table4_workloads().remove(0);
        w.benchmarks[1] = "no-such-bench".into();
        assert!(matches!(
            Runner::new().measure_baselines(&[w], &SimConfig::baseline(2), &lengths),
            Err(RunError::UnknownBenchmark { .. })
        ));
    }

    #[test]
    fn baseline_lookup_reports_unknown_benchmarks() {
        let r = Runner::new();
        let lengths = tiny(&["gzip"], PolicyKind::Icount);
        assert!(matches!(
            r.single_ipc("no-such-bench", &SimConfig::baseline(1), &lengths),
            Err(RunError::UnknownBenchmark { .. })
        ));
    }

    #[test]
    fn baseline_cache_distinguishes_rob_and_cache_geometry() {
        // Regression: the old string key hashed only registers, IQ size
        // and memory latencies, so a tiny-ROB config collided with the
        // baseline config and returned its cached (wrong) IPC.
        let r = Runner::new();
        let lengths = tiny(&["gzip"], PolicyKind::Icount);
        let full = SimConfig::baseline(1);
        let ipc_full = r.single_ipc("gzip", &full, &lengths).expect("known bench");
        let mut small_rob = full.clone();
        small_rob.rob_entries = 16;
        let ipc_small = r
            .single_ipc("gzip", &small_rob, &lengths)
            .expect("known bench");
        assert!(
            ipc_small < ipc_full,
            "16-entry ROB ({ipc_small}) must underperform the 512-entry baseline ({ipc_full})"
        );
        let mut small_l2 = full.clone();
        small_l2.mem.l2.size_bytes = 16 * 1024;
        let ipc_small_l2 = r
            .single_ipc("gzip", &small_l2, &lengths)
            .expect("known bench");
        assert_ne!(
            ipc_full, ipc_small_l2,
            "cache geometry must be part of the baseline key"
        );
    }

    #[test]
    fn baseline_cache_keys_on_run_lengths_and_seed() {
        // Regression: the key was (bench, config), so a Runner that had
        // measured mcf at lengths A handed that value back for lengths B.
        let cfg = SimConfig::baseline(2);
        let a = tiny(&["mcf"], PolicyKind::Icount);
        let mut b = a.clone();
        b.prewarm_insts = 40_000;
        b.measure_cycles = 15_000;
        let mut c = a.clone();
        c.seed = 7;
        let shared = Runner::new();
        let ipc_a = shared.single_ipc("mcf", &cfg, &a).expect("known bench");
        for lengths in [&b, &c] {
            let fresh = Runner::new()
                .single_ipc("mcf", &cfg, lengths)
                .expect("known bench");
            let reused = shared
                .single_ipc("mcf", &cfg, lengths)
                .expect("known bench");
            assert_eq!(reused, fresh, "stale baseline for {lengths:?}");
            assert_ne!(reused, ipc_a, "lengths must change the baseline");
        }
    }

    #[test]
    fn baseline_cache_ignores_requesting_thread_count() {
        // Baselines always run one thread; a 2-thread and a 4-thread sweep
        // over the same machine shape share the cache entry.
        let r = Runner::new();
        let lengths = tiny(&["gzip"], PolicyKind::Icount);
        let a = r
            .single_ipc("gzip", &SimConfig::baseline(2), &lengths)
            .expect("known bench");
        let b = r
            .single_ipc("gzip", &SimConfig::baseline(4), &lengths)
            .expect("known bench");
        assert_eq!(a, b);
    }
}
