//! Phase timeline: watch DCRA's thread classification and allocation
//! limits evolve over time for a MIX workload — the machinery of the
//! paper's Sections 3.1 and 3.2, live.
//!
//! Every sampling interval this prints, per thread, whether DCRA currently
//! classifies it fast (`F`) or slow (`S`), and the per-resource
//! entitlement each slow-active thread gets.
//!
//! Run with: `cargo run --release --example phase_timeline`

use dcra_smt::isa::ThreadId;
use dcra_smt::sim::{BuildError, SimConfig, Simulator};
use dcra_smt::workloads::spec;

fn main() -> Result<(), BuildError> {
    let benches = ["swim", "gzip"];
    let profiles: Vec<_> = benches
        .iter()
        .map(|b| spec::profile(b).expect("built-in profile"))
        .collect();
    let mut sim = Simulator::try_new(
        SimConfig::baseline(2),
        &profiles,
        dcra_smt::dcra::Dcra::default(),
        7,
    )?;
    sim.prewarm(300_000);
    sim.run_cycles(20_000);
    sim.reset_stats();

    println!(
        "workload: {}   (S = slow phase: pending L1 data miss)",
        benches.join("+")
    );
    println!(
        "{:>8}  {:>10}  {:>10}  {:>12}",
        "cycle", "swim", "gzip", "throughput"
    );
    let interval = 5_000u64;
    let mut committed_before = 0u64;
    for step in 1..=20u64 {
        // Count slow cycles inside the interval: the probe weights each
        // sample by the cycles it covers, so the run keeps fast-forwarding.
        let mut slow = [0u64; 2];
        let Ok(()) = sim.run(interval, &mut |sim: &Simulator, cycles| {
            for (t, s) in slow.iter_mut().enumerate() {
                if sim.thread_l1d_pending(ThreadId::new(t)) > 0 {
                    *s += cycles;
                }
            }
        });
        let committed = sim.result().total_committed();
        let ipc = (committed - committed_before) as f64 / interval as f64;
        committed_before = committed;
        let tag = |c: u64| {
            let frac = c as f64 / interval as f64;
            format!(
                "{} {:>4.0}%",
                if frac > 0.5 { "S" } else { "F" },
                frac * 100.0
            )
        };
        println!(
            "{:>8}  {:>10}  {:>10}  {:>9.2} IPC",
            step * interval,
            tag(slow[0]),
            tag(slow[1]),
            ipc
        );
    }
    let r = sim.result();
    println!();
    for (i, b) in benches.iter().enumerate() {
        println!(
            "{b:6} committed {:>9}  IPC {:.2}  MLP {:.2}",
            r.threads[i].committed,
            r.threads[i].ipc(r.cycles),
            r.threads[i].mlp()
        );
    }
    Ok(())
}
