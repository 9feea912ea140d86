//! Micro-benchmarks of the simulator substrates: caches, branch
//! prediction, trace generation, functional prewarm and the DCRA sharing
//! model.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dcra::{slow_share, SharingFactor};
use smt_bpred::{BranchPredictor, PredictorConfig};
use smt_isa::{BranchKind, ThreadId};
use smt_mem::{MemoryConfig, MemoryHierarchy};
use smt_sim::policy::RoundRobin;
use smt_sim::{SimConfig, Simulator};
use smt_workloads::{spec, workloads_of, TraceGenerator, WorkloadType};

fn bench_cache(c: &mut Criterion) {
    c.bench_function("mem/dl1_hit", |b| {
        let mut mem = MemoryHierarchy::new(&MemoryConfig::default(), 1);
        let t = ThreadId::new(0);
        mem.access_data(t, 0x1000, false, 0);
        let mut now = 1_000;
        b.iter(|| {
            now += 1;
            black_box(mem.access_data(t, 0x1000, false, now))
        });
    });
    c.bench_function("mem/dl1_miss_stream", |b| {
        let mut mem = MemoryHierarchy::new(&MemoryConfig::default(), 1);
        let t = ThreadId::new(0);
        let mut addr = 0u64;
        let mut now = 0;
        b.iter(|| {
            addr += 64;
            now += 1;
            black_box(mem.access_data(t, addr, false, now))
        });
    });
}

fn bench_bpred(c: &mut Criterion) {
    c.bench_function("bpred/predict_update", |b| {
        let mut bp = BranchPredictor::new(&PredictorConfig::default(), 2);
        let t = ThreadId::new(0);
        let actual = smt_isa::BranchInfo {
            kind: BranchKind::Conditional,
            taken: true,
            target: 0x4000,
        };
        let mut pc = 0x1000u64;
        b.iter(|| {
            pc = pc.wrapping_add(4);
            let p = bp.predict(t, pc, BranchKind::Conditional);
            bp.update(t, pc, actual, p);
            black_box(p)
        });
    });
}

fn bench_generator(c: &mut Criterion) {
    for name in ["gzip", "mcf", "swim"] {
        c.bench_function(format!("workloads/gen_{name}"), |b| {
            let mut g = TraceGenerator::new(spec::profile(name).expect("registry benchmark"), 1, 0);
            b.iter(|| black_box(g.next_inst()));
        });
    }
}

/// Functional warm-up of a 4-thread Table-4 MIX workload at 130k
/// instructions per thread (perfbench's `fig5` length): trace generation
/// plus cache and TLB accesses, the per-run cost a prewarm snapshot hit
/// saves.
fn bench_prewarm(c: &mut Criterion) {
    let workload = workloads_of(WorkloadType::Mix, 4)
        .into_iter()
        .next()
        .expect("Table 4 has 4-thread MIX workloads");
    let profiles: Vec<_> = workload
        .benchmarks
        .iter()
        .map(|b| spec::profile(b).expect("registry benchmark"))
        .collect();
    c.bench_function("sim/prewarm_4t_130k", |b| {
        let mut sim = Simulator::new(SimConfig::baseline(4), &profiles, RoundRobin::default(), 42);
        b.iter(|| sim.prewarm(black_box(130_000)));
    });
}

fn bench_sharing_model(c: &mut Criterion) {
    c.bench_function("dcra/slow_share", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for fa in 0..4 {
                for sa in 1..4 {
                    acc = acc.wrapping_add(slow_share(
                        black_box(80),
                        fa,
                        sa,
                        SharingFactor::InversePlus4,
                    ));
                }
            }
            acc
        });
    });
}

criterion_group!(
    benches,
    bench_cache,
    bench_bpred,
    bench_generator,
    bench_prewarm,
    bench_sharing_model
);
criterion_main!(benches);
