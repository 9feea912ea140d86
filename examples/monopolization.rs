//! Resource monopolization, observed: run a MIX workload under ICOUNT and
//! under DCRA and compare who holds the shared resources — the paper's
//! central argument (Sections 1–2) made visible.
//!
//! Run with: `cargo run --release --example monopolization`

use dcra_smt::dcra::Dcra;
use dcra_smt::isa::{ResourceKind, ThreadId};
use dcra_smt::policies::Icount;
use dcra_smt::sim::watch::OccupancyRecorder;
use dcra_smt::sim::{policy::AnyPolicy, BuildError, SimConfig, Simulator};
use dcra_smt::workloads::spec;

fn measure(policy: AnyPolicy, label: &str) -> Result<(), BuildError> {
    let benches = ["art", "gzip"];
    let profiles: Vec<_> = benches
        .iter()
        .map(|b| spec::profile(b).expect("built-in profile"))
        .collect();
    let mut sim = Simulator::try_new(SimConfig::baseline(2), &profiles, policy, 42)?;
    sim.prewarm(400_000);
    sim.run_cycles(30_000);
    sim.reset_stats();

    let mut rec = OccupancyRecorder::new(2);
    let Ok(()) = sim.run(150_000, &mut rec);
    let report = rec.report();
    let result = sim.result();

    println!("== {label}");
    println!("   throughput {:.3} IPC", result.throughput());
    for (i, b) in benches.iter().enumerate() {
        let t = ThreadId::new(i);
        println!(
            "   {b:5} ipc={:.2}  mean share of LSQ {:>5.1}%  int-regs {:>5.1}%  peak LSQ {:>2}",
            result.threads[i].ipc(result.cycles),
            report.share(t, ResourceKind::LsQueue, 80) * 100.0,
            report.share(t, ResourceKind::IntRegs, 288) * 100.0,
            report.peak[i][ResourceKind::LsQueue],
        );
    }
    Ok(())
}

fn main() -> Result<(), BuildError> {
    println!("art (memory-bound) + gzip (high ILP) on the baseline machine\n");
    measure(Icount.into(), "ICOUNT — no direct resource control")?;
    measure(Dcra::default().into(), "DCRA — usage-capped slow threads")?;
    println!("\nUnder ICOUNT the missing thread piles entries up in the shared");
    println!("queues; DCRA bounds it to its computed entitlement and returns the");
    println!("slack to the fast thread.");
    Ok(())
}
