//! The three workloads and their set-up: each is a closed batch, a fixed
//! list of run specs built from the seed. Why each exists is in README.md.

use crate::spans::Clock;
use smt_experiments::scenarios::{policy_for_target, specs_for_family, ScenarioLengths};
use smt_experiments::{PolicyKind, RunSpec, Runner};
use smt_sim::SimConfig;
use smt_workloads::{
    table4_workloads, workloads_of, FamilySpec, PolicyTarget, ScenarioFamily, WorkloadType,
};

/// Mixes per scenario family.
const FAMILY_MIXES: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig5,
    Scenarios,
    Steady,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Fig5, Workload::Scenarios, Workload::Steady];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig5 => "fig5",
            Workload::Scenarios => "scenarios",
            Workload::Steady => "steady",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Only the scenario families are generated from the seed; `fig5` and
    /// `steady` run the paper's fixed Table-4 inputs.
    pub fn uses_seed(self) -> bool {
        self == Workload::Scenarios
    }

    /// Run lengths. `smoke` shrinks every run so all three workloads finish
    /// in seconds; smoke results are not comparable with full ones.
    pub fn lengths(self, smoke: bool) -> ScenarioLengths {
        let (prewarm_insts, warmup_cycles, measure_cycles) = match (self, smoke) {
            // The Figure-5 protocol scaled down from `sweep_lengths()`
            // (400k / 30k / 250k) so one batch takes seconds, keeping
            // prewarm's share of a run close to the full figure's.
            (Workload::Fig5, false) => (130_000, 8_000, 32_000),
            (Workload::Scenarios, false) => {
                let m = ScenarioLengths::measure();
                (m.prewarm_insts, m.warmup_cycles, m.measure_cycles)
            }
            // Small prewarm, long measured windows: the cycle loop dominates.
            (Workload::Steady, false) => (20_000, 20_000, 500_000),
            (_, true) => (2_000, 300, 1_500),
        };
        ScenarioLengths {
            prewarm_insts,
            warmup_cycles,
            measure_cycles,
        }
    }
}

/// A group of runs the engine executes together: either one serial run at a
/// time on the calling thread (fig5's single-thread baselines, which
/// `Runner::single_ipcs` runs one by one) or one worker-pool batch.
#[derive(Debug, Clone)]
pub struct Stage {
    pub name: String,
    pub serial: bool,
    pub specs: Vec<RunSpec>,
    /// One label per spec: the workload id, mix id or `<policy>.<mix>`.
    pub labels: Vec<String>,
}

/// The four sweeps `fig5::run` makes, with the benchmark's lengths.
#[derive(Debug, Clone)]
pub struct Fig5Args {
    pub config: SimConfig,
    pub lengths: RunSpec,
    pub policies: Vec<PolicyKind>,
}

/// Everything set-up produces before the first spec is submitted.
#[derive(Debug)]
pub struct Plan {
    pub workload: Workload,
    pub lengths: ScenarioLengths,
    pub runner: Runner,
    /// Every run of the batch, in the order the engine executes them.
    pub stages: Vec<Stage>,
    /// `fig5` only: the engine pass calls `sweep_policy` with these.
    pub fig5: Option<Fig5Args>,
    /// Seconds spent in `ScenarioFamily::generate` (`scenarios` only).
    pub family_generate_s: f64,
}

impl Plan {
    pub fn runs(&self) -> usize {
        self.stages.iter().map(|s| s.specs.len()).sum()
    }

    pub fn specs(&self) -> impl Iterator<Item = &RunSpec> {
        self.stages.iter().flat_map(|s| s.specs.iter())
    }
}

/// Set-up: spec and family generation plus `Runner` construction.
pub fn setup(workload: Workload, seed: u64, smoke: bool) -> Result<Plan, String> {
    let lengths = workload.lengths(smoke);
    let mut family_generate_s = 0.0;
    let (stages, fig5) = match workload {
        Workload::Fig5 => {
            let (stages, args) = fig5_plan(lengths);
            (stages, Some(args))
        }
        Workload::Scenarios => (
            vec![scenarios_stage(seed, lengths, &mut family_generate_s)?],
            None,
        ),
        Workload::Steady => (vec![steady_stage(lengths)?], None),
    };
    Ok(Plan {
        workload,
        lengths,
        runner: Runner::new(),
        stages,
        fig5,
        family_generate_s,
    })
}

fn apply(mut spec: RunSpec, lengths: ScenarioLengths) -> RunSpec {
    spec.prewarm_insts = lengths.prewarm_insts;
    spec.warmup_cycles = lengths.warmup_cycles;
    spec.measure_cycles = lengths.measure_cycles;
    spec
}

/// The paper's Figure-5 policies in `fig5::run` order.
pub fn fig5_policies() -> Vec<PolicyKind> {
    vec![
        PolicyKind::Icount,
        PolicyKind::DataGating,
        PolicyKind::FlushPlusPlus,
        PolicyKind::dcra_for_latency(300),
    ]
}

/// `fig5`'s runs as `sweep_policy` executes them: per policy, the
/// single-thread ICOUNT baselines not yet cached (so only the first sweep
/// has any), then the 36 Table-4 workloads on the worker pool. The seed
/// plays no part: `sweep_policy` fixes every run's seed.
fn fig5_plan(lengths: ScenarioLengths) -> (Vec<Stage>, Fig5Args) {
    let config = SimConfig::baseline(2);
    let lengths_spec = apply(RunSpec::new(&["gzip"], PolicyKind::Icount), lengths);
    let workloads = table4_workloads();
    let mut cached: Vec<&str> = Vec::new();
    let mut stages = Vec::new();
    for policy in fig5_policies() {
        let mut baselines = Vec::new();
        let mut labels = Vec::new();
        for bench in workloads.iter().flat_map(|w| &w.benchmarks) {
            if cached.contains(&bench.as_str()) {
                continue;
            }
            cached.push(bench);
            labels.push(bench.clone());
            let mut spec = apply(RunSpec::new(&[bench.as_str()], PolicyKind::Icount), lengths);
            spec.config = config.clone();
            spec.config.threads = 1;
            baselines.push(spec);
        }
        if !baselines.is_empty() {
            stages.push(Stage {
                name: "baselines".into(),
                serial: true,
                specs: baselines,
                labels,
            });
        }
        stages.push(Stage {
            name: format!("fig5.sweep.{}", metric_policy_name(&policy)),
            serial: false,
            specs: workloads
                .iter()
                .map(|w| {
                    apply(
                        RunSpec::for_workload(w, policy.clone()).with_config(config.clone()),
                        lengths,
                    )
                })
                .collect(),
            labels: workloads.iter().map(|w| w.id()).collect(),
        });
    }
    let args = Fig5Args {
        config,
        lengths: lengths_spec,
        policies: fig5_policies(),
    };
    (stages, args)
}

/// Eleven generated families of 16 mixes: expected and stress under DCRA,
/// and one adversarial family per policy under the policy it targets.
fn scenarios_stage(
    seed: u64,
    lengths: ScenarioLengths,
    generate_s: &mut f64,
) -> Result<Stage, String> {
    let dcra = policy_for_target(PolicyTarget::Dcra);
    let mut families = vec![
        (FamilySpec::expected(FAMILY_MIXES), dcra.clone()),
        (FamilySpec::stress(FAMILY_MIXES), dcra),
    ];
    families.extend(PolicyTarget::ALL.into_iter().map(|t| {
        (
            FamilySpec::adversarial(t, FAMILY_MIXES),
            policy_for_target(t),
        )
    }));
    let mut specs = Vec::new();
    let mut labels = Vec::new();
    for (spec, policy) in &families {
        let clock = Clock::start();
        let family = ScenarioFamily::generate(spec, seed)
            .map_err(|e| format!("family {}: {e}", spec.name))?;
        *generate_s += clock.now();
        specs.extend(specs_for_family(&family, policy, lengths));
        labels.extend(family.mixes().iter().map(|m| m.id.clone()));
    }
    Ok(Stage {
        name: "scenarios".into(),
        serial: false,
        specs,
        labels,
    })
}

/// Table-4 ILP4-g1 and MEM4-g1 under each of the nine policies,
/// policy-major. The traces keep the Table-4 runs' fixed seed: with only
/// two mixes, a seeded trace would change how much work the batch is (by
/// a fifth between seeds), which the cycle-loop measurement must not.
fn steady_stage(lengths: ScenarioLengths) -> Result<Stage, String> {
    let pick = |kind| {
        workloads_of(kind, 4)
            .into_iter()
            .find(|w| w.group == 1)
            .ok_or_else(|| format!("no {kind}4-g1 workload in Table 4"))
    };
    let pair = [
        ("ilp4", pick(WorkloadType::Ilp)?),
        ("mem4", pick(WorkloadType::Mem)?),
    ];
    let mut specs = Vec::new();
    let mut labels = Vec::new();
    for target in PolicyTarget::ALL {
        let policy = policy_for_target(target);
        for (mix, w) in &pair {
            specs.push(apply(
                RunSpec::for_workload(w, policy.clone()).with_config(SimConfig::baseline(4)),
                lengths,
            ));
            labels.push(format!("{}.{mix}", metric_policy_name(&policy)));
        }
    }
    Ok(Stage {
        name: "steady".into(),
        serial: false,
        specs,
        labels,
    })
}

/// A policy name usable inside a metric name (`FLUSH++` becomes `FLUSHPP`).
pub fn metric_policy_name(policy: &PolicyKind) -> String {
    policy.name().replace('+', "P")
}
