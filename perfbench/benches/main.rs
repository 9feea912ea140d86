//! End-to-end benchmark of the dcra-smt artefacts. See README.md for the
//! workloads, the metrics and how to run it.
//!
//! ```text
//! perfbench --workload <fig5|scenarios|steady> [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --smoke [--workload W]
//! perfbench --compare A.tsv B.tsv
//! ```

#![forbid(unsafe_code)]

mod digest;
mod engine;
mod fig5;
mod host;
mod phases;
mod report;
mod spans;
mod workloads;

use report::Report;
use spans::Clock;
use std::process::ExitCode;
use workloads::Workload;

/// Seed used when none is given; its digests are recorded below.
const DEFAULT_SEED: u64 = 1;

/// Results digests at full lengths: the engine pass's for every workload
/// at `DEFAULT_SEED`, and `fig5.runs`, the phase pass's digest of every
/// fig5 run's counters. Only `scenarios` uses the seed; the other digests
/// are checked at every seed.
const RECORDED: [(&str, u64); 4] = [
    ("fig5", 0xc33e_fadc_1164_b71f),
    ("fig5.runs", 0xef24_df3b_3fea_5d16),
    ("scenarios", 0x7e86_c8fc_39fb_6ac8),
    ("steady", 0x50d1_8602_37ac_8d18),
];

/// Batches measured per run at least, whatever `--seconds` says.
const MIN_BATCHES: usize = 3;

/// Set-up probes after every batch (see `setup_probe`).
const PROBES_PER_BATCH: usize = 5;

#[derive(Debug, Clone, Copy)]
struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

enum Action {
    Run(Options),
    /// Set up the workload and exit; see `setup_probe`.
    SetupProbe(Options),
    Smoke(Vec<Workload>),
    Compare(String, String),
}

fn parse_args(args: &[String]) -> Result<Action, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut smoke = false;
    let mut probe = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!(
                    "unknown workload {v:?} (expected fig5, scenarios or steady)"
                ))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--smoke" => smoke = true,
            "--setup-probe" => probe = true,
            "--compare" => {
                let a = value()?.clone();
                let b = value()?.clone();
                return Ok(Action::Compare(a, b));
            }
            _ => return Err(format!("unknown argument {arg:?}")),
        }
    }
    if smoke {
        return Ok(Action::Smoke(
            workload.map_or(Workload::ALL.to_vec(), |w| vec![w]),
        ));
    }
    let workload = workload.ok_or("--workload is required (fig5, scenarios or steady)")?;
    let opts = Options {
        workload,
        seed,
        seconds,
        trace,
        smoke,
    };
    Ok(if probe {
        Action::SetupProbe(opts)
    } else {
        Action::Run(opts)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let action = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match action {
        Action::Compare(a, b) => report::compare(&a, &b).map(|()| true),
        Action::Run(opts) => run(opts).map(|r| r.correct),
        Action::SetupProbe(opts) => {
            workloads::setup(opts.workload, opts.seed, opts.smoke).map(|plan| {
                // The first spec would be submitted here.
                std::hint::black_box(plan);
                true
            })
        }
        Action::Smoke(workloads) => smoke(&workloads),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs every given workload at tiny lengths, untraced then traced, and
/// prints every metric; the digests are not checked against the record.
fn smoke(workloads: &[Workload]) -> Result<bool, String> {
    let mut ok = true;
    for &workload in workloads {
        for trace in [false, true] {
            let report = run(Options {
                workload,
                seed: DEFAULT_SEED,
                seconds: 0.001,
                trace,
                smoke: true,
            })?;
            ok &= report.correct;
        }
    }
    Ok(ok)
}

fn run(opts: Options) -> Result<Report, String> {
    let mut report = Report::new(opts.workload, opts.seed, opts.trace, opts.smoke);
    if opts.trace {
        traced(opts, &mut report)?;
    } else {
        untraced(opts, &mut report)?;
    }
    report.finish()?;
    Ok(report)
}

fn check_recorded(report: &mut Report, opts: Options, key: &str, digest: u64) {
    report.meta(&format!("digest.{key}"), &format!("{digest:#018x}"));
    if opts.smoke || (opts.workload.uses_seed() && opts.seed != DEFAULT_SEED) {
        return;
    }
    if let Some(&(_, want)) = RECORDED.iter().find(|(k, _)| *k == key) {
        report.check(
            digest == want,
            &format!("{key} digest {digest:#018x} differs from the recorded {want:#018x}"),
        );
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn setup(opts: Options) -> Result<workloads::Plan, String> {
    workloads::setup(opts.workload, opts.seed, opts.smoke)
}

/// `setup_s`, one sample: the time from spawning this binary with
/// `--setup-probe` to its exit, i.e. process start to the point where the
/// first spec would be submitted (spec and family generation, `Runner`
/// construction), plus process exit. A fresh process pays set-up cold, as
/// every invocation of a figure binary does.
fn setup_probe(opts: Options) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--setup-probe", "--workload", opts.workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .stdout(std::process::Stdio::null());
    let clock = Clock::start();
    let status = cmd
        .status()
        .map_err(|e| format!("cannot run the set-up probe: {e}"))?;
    let elapsed = clock.now();
    if !status.success() {
        return Err(format!("the set-up probe failed: {status}"));
    }
    Ok(elapsed)
}

/// The end-to-end run: repeated closed batches through the engine, with
/// tracing off, for `--seconds` (at least `MIN_BATCHES` batches).
fn untraced(opts: Options, report: &mut Report) -> Result<(), String> {
    let workers = host::nproc();
    let mut setups = Vec::new();
    let min_batches = if opts.smoke { 1 } else { MIN_BATCHES };
    let clock = Clock::start();
    let mut batches = Vec::new();
    loop {
        let plan = setup(opts)?;
        let batch = engine::run(&plan, workers, false)?;
        println!(
            "batch {}: wall {:.3} s, cpu {:.2} s, {} runs, {} failed, digest {:#018x}",
            batches.len() + 1,
            batch.wall_s,
            batch.cpu_s,
            batch.runs,
            batch.failed,
            batch.digest
        );
        report.record(&plan, workers);
        if opts.smoke {
            // Smoke runs (and the self-tests, whose binary is the test
            // harness) time set-up in-process instead of probing.
            let clock = Clock::start();
            setup(opts)?;
            setups.push(clock.now());
        } else {
            for _ in 0..PROBES_PER_BATCH {
                setups.push(setup_probe(opts)?);
            }
        }
        let last = batch.wall_s;
        batches.push(batch);
        if batches.len() >= min_batches && clock.now() + last > opts.seconds {
            break;
        }
    }
    let first = batches.first().map_or(0, |b| b.digest);
    for b in &batches {
        report.attempt(b.runs, b.failed);
        if b.digest != first {
            report.check(false, "batches of one run produced different digests");
            report.attempt(0, b.runs);
        }
    }
    check_recorded(report, opts, opts.workload.name(), first);
    let per = |f: &dyn Fn(&engine::EngineBatch) -> f64| {
        median(&batches.iter().map(f).collect::<Vec<_>>())
    };
    report.check(
        batches.iter().all(|b| b.committed > 0),
        "a batch committed no instructions",
    );
    report.listed("wall_s", per(&|b| b.wall_s))?;
    report.listed("cpu_s", per(&|b| b.cpu_s))?;
    report.listed("setup_s", median(&setups))?;
    report.listed("peak_rss_mb", host::peak_rss_mb()?)?;
    report.listed(
        "sim_minst_per_s",
        per(&|b| b.committed as f64 / b.wall_s / 1e6),
    )?;
    report.meta("batches", &batches.len().to_string());
    report.meta("setup_samples", &setups.len().to_string());
    println!(
        "set-up samples (s): {}",
        setups
            .iter()
            .map(|s| format!("{s:.6}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    if let Some(last) = batches.last() {
        if !last.sweeps.is_empty() {
            report.paper_comparison(&last.sweeps)?;
        }
    }
    Ok(())
}

/// The traced run: a warm-up batch, one traced engine batch, one untraced
/// batch (the overhead baseline, as warm as the traced one), the phase
/// pass, the profiled counting pass and the standalone trace-generation
/// pass.
fn traced(opts: Options, report: &mut Report) -> Result<(), String> {
    let workers = host::nproc();
    let warm = engine::run(&setup(opts)?, workers, false)?;
    let plan = setup(opts)?;
    report.record(&plan, workers);
    let batch = engine::run(&plan, workers, true)?;
    let plain = engine::run(&setup(opts)?, workers, false)?;
    let phase = phases::run(&plan, workers, phases::Mode::Timed)?;
    let counted = phases::run(&plan, workers, phases::Mode::Profiled)?;
    println!(
        "engine pass: wall {:.3} s (untraced {:.3} s); phase pass: wall {:.3} s; counting pass: wall {:.3} s",
        batch.wall_s, plain.wall_s, phase.wall_s, counted.wall_s
    );

    for pass in [&phase, &counted] {
        for (i, e) in &pass.errors {
            eprintln!("perfbench: run {i} failed: {e}");
        }
    }
    for b in [&warm, &batch, &plain] {
        report.attempt(b.runs, b.failed);
    }
    for pass in [&phase, &counted] {
        report.attempt(pass.runs.len(), pass.errors.len());
    }
    let runs_digest = digest::runs_digest(phase.runs.iter().map(Option::as_ref));
    let phase_digest = match &plan.fig5 {
        Some(_) => digest::sweeps_digest(&fig5::sweeps_from_runs(&plan, &phase.runs)),
        None => runs_digest,
    };
    report.check(
        warm.digest == batch.digest && plain.digest == batch.digest,
        "the traced engine batch's digest differs from the untraced ones'",
    );
    report.check(
        phase_digest == batch.digest,
        "the phase pass's digest differs from the engine pass's",
    );
    report.check(
        digest::runs_digest(counted.runs.iter().map(Option::as_ref)) == runs_digest,
        "the counting pass's digest differs from the phase pass's",
    );
    check_recorded(report, opts, opts.workload.name(), batch.digest);
    if plan.fig5.is_some() {
        check_recorded(report, opts, "fig5.runs", runs_digest);
        report.paper_comparison(&batch.sweeps)?;
    }
    report::layer_metrics(report, &plan, workers, &plain, &batch, &phase, &counted)?;
    let spans_out = [
        spans::to_jsonl("engine", &batch.spans),
        spans::to_jsonl("phase", &phase.spans),
    ]
    .concat();
    report.write_spans(&spans_out)?;
    spans::print_summary("phase-pass", &phase.spans);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The engine pass and the phase pass agree on every workload, and
    /// neither depends on the worker count. (`fig5`'s engine pass always
    /// uses `available_parallelism` workers, as `sweep_policy` does.)
    #[test]
    fn digest_is_the_same_for_one_and_two_workers() {
        for workload in Workload::ALL {
            let plan = || workloads::setup(workload, 7, true).expect("set-up");
            let engine_digest = engine::run(&plan(), 2, false).expect("engine").digest;
            if workload != Workload::Fig5 {
                let one = engine::run(&plan(), 1, false).expect("engine").digest;
                assert_eq!(
                    one,
                    engine_digest,
                    "{}: engine, 1 vs 2 workers",
                    workload.name()
                );
            }
            for workers in [1, 2] {
                let plan = plan();
                let pass = phases::run(&plan, workers, phases::Mode::Timed).expect("phase pass");
                let phase_digest = if workload == Workload::Fig5 {
                    digest::sweeps_digest(&fig5::sweeps_from_runs(&plan, &pass.runs))
                } else {
                    digest::runs_digest(pass.runs.iter().map(Option::as_ref))
                };
                assert_eq!(
                    phase_digest,
                    engine_digest,
                    "{}: phase pass with {workers} workers",
                    workload.name()
                );
            }
        }
    }

    /// Smoke mode runs all three workloads, untraced and traced, correctly;
    /// `Report::finish` fails unless every listed metric was reported.
    #[test]
    fn smoke_runs_every_workload_with_every_metric() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let report = run(Options {
                    workload,
                    seed: DEFAULT_SEED,
                    seconds: 0.001,
                    trace,
                    smoke: true,
                })
                .expect("smoke run");
                assert!(report.correct, "{} trace={trace}", workload.name());
            }
        }
    }
}
