//! Quickstart: simulate a 2-thread SMT machine running a high-ILP and a
//! memory-bound benchmark under DCRA, and print the headline statistics.
//!
//! Run with: `cargo run --release --example quickstart`

use dcra_smt::dcra::Dcra;
use dcra_smt::isa::ThreadId;
use dcra_smt::sim::{BuildError, SimConfig, Simulator};
use dcra_smt::workloads::spec;

fn main() -> Result<(), BuildError> {
    // The machine of the paper's Table 2, with two hardware contexts.
    let config = SimConfig::baseline(2);

    // gzip is a high-ILP integer benchmark; mcf is the SPEC2000 poster
    // child for pointer-chasing memory boundedness (29.6% L2 miss rate).
    let gzip = spec::profile("gzip").expect("built-in profile");
    let mcf = spec::profile("mcf").expect("built-in profile");

    let mut sim = Simulator::try_new(config, &[gzip, mcf], Dcra::default(), 42)?;

    // Warm the caches functionally, let the pipeline settle, then measure.
    sim.prewarm(400_000);
    sim.run_cycles(30_000);
    sim.reset_stats();
    sim.run_cycles(200_000);

    let result = sim.result();
    println!("policy            : {}", result.policy);
    println!("cycles measured   : {}", result.cycles);
    println!("IPC throughput    : {:.3}", result.throughput());
    for (i, name) in ["gzip", "mcf"].iter().enumerate() {
        let t = &result.threads[i];
        let mem = sim.memory().thread_stats(ThreadId::new(i));
        println!(
            "  {name:6} IPC {:.3}  L1d miss {:.1}%  L2 miss {:.1}%  MLP {:.2}",
            t.ipc(result.cycles),
            mem.l1_miss_rate() * 100.0,
            mem.l2_miss_rate() * 100.0,
            t.mlp(),
        );
    }
    println!(
        "branch direction accuracy: {:.1}%",
        (1.0 - sim.predictor().stats().mispredict_rate()) * 100.0
    );
    Ok(())
}
