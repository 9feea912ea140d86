//! Stepped-vs-fast-forward equivalence: for randomized machine
//! configurations, workload mixes and seeds, running the simulator with
//! multi-cycle fast-forward (`run_cycles`) must produce *bit-identical*
//! output to the one-cycle-at-a-time reference loop
//! (`run_cycles_stepped`) — for every one of the nine canonical policies.
//!
//! This is the contract that makes fast-forward a pure performance
//! feature: `Policy::on_idle_cycles` replays per-cycle policy state
//! (RR rotation, DCRA activity decay, FLUSH++ pressure windows) and the
//! core replays per-cycle statistics (gated/blocked counters, MLP
//! samples, the commit round-robin origin) arithmetically, so nothing
//! observable may drift. The same holds for probes: a sample taken on the
//! fast-forwarding loop, weighted by the cycles it covers, equals the
//! per-cycle samples of the stepped loop.

use proptest::prelude::*;
use smt_sim::policy::AnyPolicy;
use smt_sim::watch::OccupancyRecorder;
use smt_sim::{Probe, SimConfig, SimResult, Simulator};
use smt_workloads::spec;

/// The nine canonical policies, freshly built (policies are stateful).
fn policies() -> Vec<AnyPolicy> {
    vec![
        smt_sim::policy::RoundRobin::default().into(),
        smt_policies::Icount.into(),
        smt_policies::Stall.into(),
        smt_policies::Flush.into(),
        smt_policies::FlushPlusPlus::default().into(),
        smt_policies::DataGating.into(),
        smt_policies::PredictiveDataGating::default().into(),
        smt_policies::StaticAllocation::new().into(),
        dcra::Dcra::default().into(),
    ]
}

fn benches() -> impl Strategy<Value = Vec<&'static str>> {
    let names = spec::names();
    proptest::collection::vec((0..names.len()).prop_map(move |i| names[i]), 1..5)
}

/// Everything a run can observe: final statistics, the clock, cache and
/// predictor counters.
fn digest(sim: &Simulator) -> (SimResult, u64, String) {
    (
        sim.result(),
        sim.now(),
        format!(
            "{:?} {:?}",
            sim.memory().cache_stats(),
            sim.predictor().stats()
        ),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The equivalence property, including a mid-run `reset_stats` (the
    /// warm-up/measure boundary every experiment uses).
    #[test]
    fn fast_forward_matches_stepped_for_all_policies(
        benches in benches(),
        cfg_seed in 0u64..1000,
        seed in 0u64..1000,
        warm in 200u64..1_200,
        measured in 1_000u64..4_000,
    ) {
        let profiles: Vec<_> = benches.iter().map(|b| spec::profile(b).unwrap()).collect();
        // Derive a config deterministically from cfg_seed via the strategy
        // space: reuse the same strategy machinery by indexing variants.
        let rob = [64u32, 128, 512][(cfg_seed % 3) as usize];
        let fq = [8u32, 16][((cfg_seed / 3) % 2) as usize];
        let iq = [24u32, 80][((cfg_seed / 6) % 2) as usize];
        let lat = [100u32, 300][((cfg_seed / 12) % 2) as usize];
        let mut cfg = SimConfig::baseline(benches.len());
        cfg.rob_entries = rob;
        cfg.fetch_queue = fq;
        cfg.iq_entries = iq;
        cfg.mem.memory_latency = lat;
        cfg.validate().expect("generated config must be valid");

        for i in 0..policies().len() {
            let (mut a, mut b) = (policies(), policies());
            let (pol_a, pol_b) = (a.swap_remove(i), b.swap_remove(i));
            let name = {
                use smt_sim::policy::Policy as _;
                pol_a.name().to_string()
            };
            let mut stepped = Simulator::new(cfg.clone(), &profiles, pol_a, seed);
            let mut fast = Simulator::new(cfg.clone(), &profiles, pol_b, seed);
            stepped.run_cycles_stepped(warm);
            fast.run_cycles(warm);
            stepped.reset_stats();
            fast.reset_stats();
            stepped.run_cycles_stepped(measured);
            fast.run_cycles(measured);
            prop_assert_eq!(
                digest(&stepped),
                digest(&fast),
                "fast-forward diverged from stepped core for {} \
                 (benches {:?}, cfg_seed {}, seed {})",
                name, benches, cfg_seed, seed
            );
        }
    }
}

/// Weighting each probe sample by the cycles it covers is exact: an
/// occupancy recording taken on the fast-forwarding loop equals one taken
/// cycle by cycle on the stepped loop, for every policy.
#[test]
fn occupancy_probe_matches_a_stepped_recording_for_all_policies() {
    let profiles = [spec::profile("mcf").unwrap(), spec::profile("art").unwrap()];
    let cfg = SimConfig::baseline(2);
    let cycles = 20_000;
    for i in 0..policies().len() {
        let (mut a, mut b) = (policies(), policies());
        let (pol_a, pol_b) = (a.swap_remove(i), b.swap_remove(i));
        let name = {
            use smt_sim::policy::Policy as _;
            pol_a.name().to_string()
        };
        let mut stepped = Simulator::new(cfg.clone(), &profiles, pol_a, 3);
        let mut fast = Simulator::new(cfg.clone(), &profiles, pol_b, 3);
        stepped.run_cycles_stepped(2_000);
        fast.run_cycles(2_000);

        let mut reference = OccupancyRecorder::new(2);
        for _ in 0..cycles {
            stepped.step();
            let Ok(()) = reference.probe(&stepped, 1);
        }
        // Count loop iterations alongside, to see the spans being covered.
        let mut rec = OccupancyRecorder::new(2);
        let mut iterations = 0;
        let Ok(()) = fast.run(cycles, &mut |sim: &Simulator, covered| {
            iterations += 1;
            let Ok(()) = rec.probe(sim, covered);
        });

        assert_eq!(digest(&stepped), digest(&fast), "{name}: runs diverged");
        assert_eq!(reference.report(), rec.report(), "{name}: reports differ");
        if name == "STALL" {
            assert!(
                iterations < cycles,
                "STALL on mcf+art must skip cycles, stepped all {cycles}"
            );
        }
    }
}
