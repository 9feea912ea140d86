//! Metrics, run metadata and output: the human-readable lines, the result
//! file, the final JSON line, and `--compare`.

use crate::engine::EngineBatch;
use crate::fig5;
use crate::host;
use crate::phases::{self, PhasePass};
use crate::spans::{self, Clock, Span};
use crate::workloads::{Plan, Workload};
use smt_experiments::sweep::PolicySweep;
use smt_experiments::RunStats;
use smt_workloads::ThreadTrace;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;

/// The metrics of a `--trace 0` run's JSON line, in order, with units.
/// `BENCHMARK.json`'s `end_to_end` list names the same metrics.
pub const E2E_METRICS: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_minst_per_s", "Minst/s"),
];

/// The metrics of a `--trace 1` run's JSON line, in order, with units:
/// every per-layer metric that all three workloads have.
/// `BENCHMARK.json`'s `per_layer` list names the same metrics.
pub const LAYER_METRICS: [(&str, &str); 35] = [
    ("engine.batch_s", "s"),
    ("engine.busy_s", "s"),
    ("engine.worker_util", "ratio"),
    ("engine.tail_idle_s", "s"),
    ("engine.runs_per_s", "1/s"),
    ("sim.construct_s", "s"),
    ("sim.constructs", "count"),
    ("sim.resets", "count"),
    ("sim.prewarm_s", "s"),
    ("sim.prewarm_share", "ratio"),
    ("sim.prewarm_minst_per_s", "Minst/s"),
    ("reuse.same_workload_resets", "count"),
    ("reuse.same_workload_reset_pct", "%"),
    ("sim.warmup_s", "s"),
    ("sim.measure_s", "s"),
    ("sim.cycles_per_s", "cycles/s"),
    ("sim.minst_per_s", "Minst/s"),
    ("sim.skipped_cycles_pct", "%"),
    ("sim.stage.policy_share", "ratio"),
    ("sim.stage.events_share", "ratio"),
    ("sim.stage.commit_share", "ratio"),
    ("sim.stage.issue_share", "ratio"),
    ("sim.stage.dispatch_share", "ratio"),
    ("sim.stage.fetch_share", "ratio"),
    ("sim.stage.forward_share", "ratio"),
    ("sim.stage.other_share", "ratio"),
    ("trace.gen_ns_per_inst", "ns/inst"),
    ("model.l1d_miss_pct", "%"),
    ("model.l2_miss_pct", "%"),
    ("model.mlp", "misses"),
    ("model.throughput_ipc", "IPC"),
    ("model.fetch_per_commit", "ratio"),
    ("model.gated_cycles_pct", "%"),
    ("model.blocked_per_kinst", "1/kinst"),
    ("trace.overhead_pct", "%"),
];

#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// One run's result.
#[derive(Debug)]
pub struct Report {
    workload: Workload,
    seed: u64,
    trace: bool,
    smoke: bool,
    meta: Vec<(String, String)>,
    /// The metrics of the JSON line.
    listed: Vec<Metric>,
    /// Workload-specific metrics: printed and written, not in the JSON line.
    extra: Vec<Metric>,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    pub correct: bool,
}

impl Report {
    pub fn new(workload: Workload, seed: u64, trace: bool, smoke: bool) -> Self {
        let mut r = Report {
            workload,
            seed,
            trace,
            smoke,
            meta: Vec::new(),
            listed: Vec::new(),
            extra: Vec::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            correct: false,
        };
        r.meta("workload", workload.name());
        r.meta("seed", &seed.to_string());
        r.meta("trace", if trace { "1" } else { "0" });
        r.meta("smoke", if smoke { "1" } else { "0" });
        r.meta("nproc", &host::nproc().to_string());
        r.meta("cpu_model", &host::cpu_model());
        r.meta("loadavg_start", &host::loadavg());
        r
    }

    pub fn meta(&mut self, key: &str, value: &str) {
        match self.meta.iter_mut().find(|(k, _)| k == key) {
            Some(entry) => entry.1 = value.to_string(),
            None => self.meta.push((key.to_string(), value.to_string())),
        }
    }

    /// Records the batch shape: engine workers, runs and lengths.
    pub fn record(&mut self, plan: &Plan, workers: usize) {
        self.meta("workers", &workers.to_string());
        self.meta("runs_per_batch", &plan.runs().to_string());
        self.meta("prewarm_insts", &plan.lengths.prewarm_insts.to_string());
        self.meta("warmup_cycles", &plan.lengths.warmup_cycles.to_string());
        self.meta("measure_cycles", &plan.lengths.measure_cycles.to_string());
    }

    pub fn check(&mut self, ok: bool, problem: &str) {
        if !ok {
            self.problems.push(problem.to_string());
        }
    }

    pub fn attempt(&mut self, runs: usize, failed: usize) {
        self.attempted += runs;
        self.failed += failed;
    }

    /// Records a metric of the JSON line: one of `E2E_METRICS` in an
    /// untraced run, of `LAYER_METRICS` in a traced one.
    pub fn listed(&mut self, name: &str, value: f64) -> Result<(), String> {
        let list: &[(&str, &str)] = if self.trace {
            &LAYER_METRICS
        } else {
            &E2E_METRICS
        };
        let unit = list
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .ok_or_else(|| format!("{name} is not a listed metric of this mode"))?;
        self.listed.push(Metric::new(name, value, unit));
        Ok(())
    }

    pub fn extra(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.extra.push(Metric::new(name, value, unit));
    }

    /// Prints DCRA's gains beside the paper's and adds `paper_gap_pp`.
    pub fn paper_comparison(&mut self, sweeps: &[PolicySweep]) -> Result<(), String> {
        let gains = fig5::gains(sweeps)?;
        println!("fig5 DCRA gains, ours vs the paper (average over the nine classes):");
        println!(
            "  {:<8} {:>10} {:>8} {:>12} {:>8}",
            "vs", "Hmean", "paper", "throughput", "paper"
        );
        for g in &gains {
            println!(
                "  {:<8} {:>+9.1}% {:>+7.0}% {:>+11.1}% {:>+7.0}%",
                g.baseline, g.hmean, g.paper_hmean, g.throughput, g.paper_throughput
            );
        }
        println!(
            "  The model is checked against the paper's published figures only, not against hardware."
        );
        self.extra("paper_gap_pp", fig5::paper_gap_pp(&gains), "pp");
        Ok(())
    }

    /// Writes the traced run's spans, JSON lines, into the output directory.
    pub fn write_spans(&mut self, jsonl: &str) -> Result<(), String> {
        let path = self.out_path("spans.jsonl")?;
        std::fs::write(&path, jsonl)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        self.meta("spans_file", &path.display().to_string());
        Ok(())
    }

    fn out_path(&self, suffix: &str) -> Result<PathBuf, String> {
        let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let mode = if self.smoke { "-smoke" } else { "" };
        Ok(dir.join(format!(
            "{}-seed{}-trace{}{mode}.{suffix}",
            self.workload.name(),
            self.seed,
            u8::from(self.trace)
        )))
    }

    /// Checks the metric set, prints every metric and the problems, writes
    /// the result file, and prints the JSON line last.
    pub fn finish(&mut self) -> Result<(), String> {
        self.meta("loadavg_end", &host::loadavg());
        let expected: Vec<(&str, &str)> = if self.trace {
            LAYER_METRICS.to_vec()
        } else {
            E2E_METRICS.to_vec()
        };
        let got: Vec<(&str, &str)> = self
            .listed
            .iter()
            .map(|m| (m.name.as_str(), m.unit))
            .collect();
        if got != expected {
            return Err(format!("metric set {got:?} is not the listed {expected:?}"));
        }
        let failed_pct = 100.0 * self.failed as f64 / self.attempted.max(1) as f64;
        self.extra("runs_failed_pct", failed_pct, "%");
        let non_finite: Vec<String> = self
            .listed
            .iter()
            .chain(&self.extra)
            .filter(|m| !m.value.is_finite())
            .map(|m| format!("{} is not finite", m.name))
            .collect();
        self.problems.extend(non_finite);
        self.check(self.attempted > 0, "no runs attempted");
        self.check(self.failed == 0, "some runs failed");
        self.correct = self.problems.is_empty();

        for (k, v) in &self.meta {
            println!("meta {k} = {v}");
        }
        for m in self.listed.iter().chain(&self.extra) {
            println!("metric {} = {} {}", m.name, m.value, m.unit);
        }
        for p in &self.problems {
            println!("FAILED: {p}");
        }
        let path = self.out_path("tsv")?;
        std::fs::write(&path, self.tsv())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("result file: {}", path.display());
        println!("{}", self.json_line());
        Ok(())
    }

    fn tsv(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.meta {
            let _ = writeln!(out, "meta\t{k}\t{v}");
        }
        for m in self.listed.iter().chain(&self.extra) {
            let _ = writeln!(out, "metric\t{}\t{}\t{}", m.name, m.value, m.unit);
        }
        out
    }

    fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .listed
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// JSON has no NaN or infinity; a non-finite value already marks the run
/// incorrect, so it is written as null.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn total(spans: &[Span], names: &[&str]) -> f64 {
    spans
        .iter()
        .filter(|s| names.contains(&s.name.as_str()))
        .map(Span::duration)
        .sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run.
pub fn layer_metrics(
    r: &mut Report,
    plan: &Plan,
    workers: usize,
    plain: &EngineBatch,
    batch: &EngineBatch,
    phase: &PhasePass,
    counted: &PhasePass,
) -> Result<(), String> {
    let specs: Vec<_> = plan.specs().collect();
    let busy = total(&phase.spans, &["run"]);
    // `sweep_policy` keeps its sink to itself, so fig5's tail idle comes
    // from the phase pass, which replays the engine's schedule.
    let completions = if batch.completions.is_empty() {
        &phase.completions
    } else {
        &batch.completions
    };
    let tail: f64 = completions
        .iter()
        .map(|(end, done)| spans::tail_idle(*end, done, workers))
        .sum();
    r.listed("engine.batch_s", batch.wall_s)?;
    r.listed("engine.busy_s", busy)?;
    r.listed(
        "engine.worker_util",
        ratio(busy, phase.wall_s * workers as f64),
    )?;
    r.listed("engine.tail_idle_s", tail)?;
    r.listed("engine.runs_per_s", ratio(batch.runs as f64, batch.wall_s))?;

    r.listed(
        "sim.construct_s",
        total(&phase.spans, &["construct", "reset"]),
    )?;
    r.listed("sim.constructs", phase.constructs as f64)?;
    r.listed("sim.resets", phase.resets as f64)?;
    let prewarm = total(&phase.spans, &["prewarm"]);
    let prewarm_insts: u64 = specs
        .iter()
        .map(|s| s.prewarm_insts * s.benches.len() as u64)
        .sum();
    r.listed("sim.prewarm_s", prewarm)?;
    r.listed("sim.prewarm_share", ratio(prewarm, busy))?;
    r.listed(
        "sim.prewarm_minst_per_s",
        ratio(prewarm_insts as f64 / 1e6, prewarm),
    )?;
    r.listed(
        "reuse.same_workload_resets",
        phase.same_workload_resets as f64,
    )?;
    r.listed(
        "reuse.same_workload_reset_pct",
        100.0 * ratio(phase.same_workload_resets as f64, phase.resets as f64),
    )?;

    let warmup = total(&phase.spans, &["warmup"]);
    let measure = total(&phase.spans, &["measure"]);
    let cycles: u64 = specs
        .iter()
        .map(|s| s.warmup_cycles + s.measure_cycles)
        .sum();
    let committed: u64 = phase
        .runs
        .iter()
        .flatten()
        .map(|s| s.result.total_committed())
        .sum();
    r.listed("sim.warmup_s", warmup)?;
    r.listed("sim.measure_s", measure)?;
    r.listed("sim.cycles_per_s", ratio(cycles as f64, warmup + measure))?;
    r.listed("sim.minst_per_s", ratio(committed as f64 / 1e6, measure))?;
    let p = &counted.profile;
    r.listed(
        "sim.skipped_cycles_pct",
        100.0 * ratio(p.skipped as f64, p.cycles as f64),
    )?;
    for (stage, share) in p.shares() {
        r.listed(&format!("sim.stage.{stage}_share"), share)?;
    }
    r.listed(
        "trace.gen_ns_per_inst",
        trace_generation_ns(plan, &phase.runs)?,
    )?;
    model_metrics(r, plan, &phase.runs)?;
    r.listed(
        "trace.overhead_pct",
        100.0 * ratio(batch.wall_s - plain.wall_s, plain.wall_s),
    )?;

    // Workload-specific metrics, printed beside the listed ones.
    if plan.fig5.is_some() {
        r.extra("baselines.s", total(&phase.spans, &["baselines"]), "s");
        let baselines: usize = plan
            .stages
            .iter()
            .filter(|s| s.serial)
            .map(|s| s.specs.len())
            .sum();
        r.extra("baselines.runs", baselines as f64, "count");
        for s in batch
            .spans
            .iter()
            .filter(|s| s.name.starts_with("fig5.sweep."))
        {
            r.extra(format!("{}_s", s.name), s.duration(), "s");
        }
    }
    if plan.workload == Workload::Scenarios {
        r.extra("family.generate_s", plan.family_generate_s, "s");
    }
    if plan.workload == Workload::Steady {
        let labels: Vec<&String> = plan.stages.iter().flat_map(|s| &s.labels).collect();
        for s in phase.spans.iter().filter(|s| s.name == "measure") {
            let (Some(label), Some(spec)) = (
                s.run.and_then(|i| labels.get(i)),
                s.run.and_then(|i| specs.get(i)),
            ) else {
                continue;
            };
            r.extra(
                format!("policy.{label}.cycles_per_s"),
                ratio(spec.measure_cycles as f64, s.duration()),
                "cycles/s",
            );
        }
        r.extra.sort_by(|a, b| a.name.cmp(&b.name));
    }
    Ok(())
}

/// Modelled statistics over the batch's multi-thread runs: deterministic,
/// identical for every change that does not touch the model.
fn model_metrics(r: &mut Report, plan: &Plan, runs: &[Option<RunStats>]) -> Result<(), String> {
    let serial: Vec<bool> = plan
        .stages
        .iter()
        .flat_map(|s| s.specs.iter().map(move |_| s.serial))
        .collect();
    let multi: Vec<&RunStats> = runs
        .iter()
        .zip(&serial)
        .filter(|(_, &serial)| !serial)
        .filter_map(|(r, _)| r.as_ref())
        .collect();
    let threads = || multi.iter().flat_map(|s| &s.result.threads);
    let mems = || multi.iter().flat_map(|s| &s.mem);
    let sum = |f: &dyn Fn(&smt_sim::ThreadStats) -> u64| threads().map(f).sum::<u64>() as f64;
    let msum = |f: &dyn Fn(&smt_mem::ThreadMemStats) -> u64| mems().map(f).sum::<u64>() as f64;
    let thread_cycles: f64 = multi
        .iter()
        .map(|s| (s.result.cycles * s.result.threads.len() as u64) as f64)
        .sum();
    let committed = sum(&|t| t.committed);
    r.listed(
        "model.l1d_miss_pct",
        100.0 * ratio(msum(&|m| m.l1_misses), msum(&|m| m.accesses)),
    )?;
    r.listed(
        "model.l2_miss_pct",
        100.0 * ratio(msum(&|m| m.l2_misses), msum(&|m| m.l2_accesses)),
    )?;
    r.listed(
        "model.mlp",
        ratio(sum(&|t| t.mlp_sum), sum(&|t| t.mlp_cycles)),
    )?;
    r.listed(
        "model.throughput_ipc",
        ratio(
            multi.iter().map(|s| s.throughput()).sum::<f64>(),
            multi.len() as f64,
        ),
    )?;
    r.listed(
        "model.fetch_per_commit",
        ratio(sum(&|t| t.fetched), committed),
    )?;
    r.listed(
        "model.gated_cycles_pct",
        100.0 * ratio(sum(&|t| t.gated_cycles), thread_cycles),
    )?;
    r.listed(
        "model.blocked_per_kinst",
        1000.0
            * ratio(
                sum(&|t| t.blocked_rob + t.blocked_iq + t.blocked_regs + t.blocked_policy),
                committed,
            ),
    )
}

/// Mirrors the simulator's private per-thread seed derivation
/// (`thread_seed` in `smt-sim`'s core), so the standalone trace pass
/// generates the same streams the runs fetched.
fn thread_seed(seed: u64, slot: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9).wrapping_add(slot as u64)
}

/// Standalone trace generation: for every run and thread, a fresh
/// `ThreadTrace` replays as many packed records as the thread fetched.
/// Returns nanoseconds per instruction.
pub fn trace_generation_ns(plan: &Plan, runs: &[Option<RunStats>]) -> Result<f64, String> {
    let clock = Clock::start();
    let mut insts = 0u64;
    for (spec, run) in plan.specs().zip(runs) {
        let Some(stats) = run else { continue };
        let lookback = u64::from(spec.config.rob_entries + spec.config.fetch_queue);
        for (slot, (profile, t)) in phases::profiles(spec)?
            .into_iter()
            .zip(&stats.result.threads)
            .enumerate()
        {
            let mut trace =
                ThreadTrace::new(profile, thread_seed(spec.seed, slot), slot as u64, lookback);
            for seq in 0..t.fetched {
                black_box(trace.packed(seq));
            }
            insts += t.fetched;
        }
    }
    Ok(ratio(clock.now() * 1e9, insts as f64))
}

/// A result file written by `finish`: metadata, then (name, value, unit).
struct ResultFile {
    meta: Vec<(String, String)>,
    metrics: Vec<(String, f64, String)>,
}

impl ResultFile {
    fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let mut file = ResultFile {
            meta: Vec::new(),
            metrics: Vec::new(),
        };
        for line in text.lines() {
            match line.split('\t').collect::<Vec<_>>().as_slice() {
                ["meta", k, v] => file.meta.push((k.to_string(), v.to_string())),
                ["metric", name, value, unit] => {
                    let v = value
                        .parse()
                        .map_err(|e| format!("{path}: bad value for {name}: {e}"))?;
                    file.metrics.push((name.to_string(), v, unit.to_string()));
                }
                _ => return Err(format!("{path}: malformed line {line:?}")),
            }
        }
        Ok(file)
    }

    fn meta(&self, key: &str) -> &str {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map_or("", |(_, v)| v.as_str())
    }
}

/// Prints each metric of result `a` beside result `b`. Refuses results
/// from different workloads, modes or engine worker counts: their times
/// are not comparable.
pub fn compare(a: &str, b: &str) -> Result<(), String> {
    let (fa, fb) = (ResultFile::load(a)?, ResultFile::load(b)?);
    for key in ["workload", "trace", "smoke", "workers"] {
        let (va, vb) = (fa.meta(key), fb.meta(key));
        if va != vb {
            return Err(format!(
                "refusing to compare: {key} is {va:?} in {a} but {vb:?} in {b}"
            ));
        }
    }
    println!("{:<36} {:>16} {:>16} {:>9}", "metric", "a", "b", "b vs a");
    for (name, va, unit) in &fa.metrics {
        if let Some((_, vb, _)) = fb.metrics.iter().find(|(n, _, _)| n == name) {
            let delta = if *va != 0.0 {
                format!("{:+.2}%", 100.0 * (vb - va) / va.abs())
            } else {
                "-".into()
            };
            println!("{name:<36} {va:>16.6} {vb:>16.6} {delta:>9} {unit}");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in BENCHMARK.json must name the same
    /// metrics with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let end = json[start..].find(']').expect("section closes") + start;
            json[start..end].to_string()
        };
        let names = |text: &str| -> Vec<(String, String)> {
            text.split("\"name\": \"")
                .skip(1)
                .map(|rest| {
                    let name = rest.split('"').next().expect("name").to_string();
                    let unit = rest
                        .split("\"unit\": \"")
                        .nth(1)
                        .and_then(|u| u.split('"').next())
                        .expect("unit")
                        .to_string();
                    (name, unit)
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&section("end_to_end")), own(&E2E_METRICS));
        assert_eq!(names(&section("per_layer")), own(&LAYER_METRICS));
    }
}
