//! Property-based tests of the trace-generation substrate.

use proptest::prelude::*;
use smt_workloads::{spec, BenchmarkProfile, Suite, ThreadTrace, TraceGenerator};

fn any_builtin() -> impl Strategy<Value = &'static BenchmarkProfile> {
    let names = spec::names();
    (0..names.len()).prop_map(move |i| spec::profile(names[i]).expect("registry"))
}

proptest! {
    /// Every generated instruction is internally consistent: memory ops
    /// carry addresses, branches carry targets, destinations match class.
    #[test]
    fn generated_instructions_are_well_formed(
        profile in any_builtin(),
        seed in 0u64..1000,
        n in 100usize..2000,
    ) {
        let mut g = TraceGenerator::new(profile, seed, 0);
        for _ in 0..n {
            let i = g.next_inst();
            if i.class.is_mem() {
                prop_assert!(i.mem.is_some());
            }
            if i.class == smt_isa::InstClass::Branch {
                prop_assert!(i.branch.is_some());
                prop_assert!(i.dest.is_none());
            }
            if i.class.is_fp() {
                prop_assert_eq!(i.dest, Some(smt_isa::RegClass::Fp));
            }
            for d in i.deps().into_iter().flatten() {
                prop_assert!(d >= 1, "dependence distance must be positive");
            }
        }
    }

    /// Determinism: same (profile, seed, slot) gives identical streams.
    #[test]
    fn streams_are_reproducible(profile in any_builtin(), seed in 0u64..100) {
        let mut a = TraceGenerator::new(profile, seed, 1);
        let mut b = TraceGenerator::new(profile, seed, 1);
        for _ in 0..500 {
            prop_assert_eq!(a.next_inst(), b.next_inst());
        }
    }

    /// Integer-suite profiles never generate FP work or FP destinations.
    #[test]
    fn integer_profiles_stay_integer(seed in 0u64..100) {
        for name in spec::names() {
            let p = spec::profile(name).unwrap();
            if p.suite != Suite::Int {
                continue;
            }
            let mut g = TraceGenerator::new(p, seed, 0);
            for _ in 0..500 {
                let i = g.next_inst();
                prop_assert!(!i.class.is_fp(), "{name} generated {}", i.class);
                prop_assert_ne!(i.dest, Some(smt_isa::RegClass::Fp));
            }
        }
    }

    /// Thread slots give disjoint address spaces.
    #[test]
    fn slots_partition_the_address_space(
        profile in any_builtin(),
        seed in 0u64..100,
        slot_a in 0u64..4,
        slot_b in 0u64..4,
    ) {
        prop_assume!(slot_a != slot_b);
        let mut a = TraceGenerator::new(profile, seed, slot_a);
        let mut b = TraceGenerator::new(profile, seed ^ 1, slot_b);
        for _ in 0..300 {
            let (x, y) = (a.next_inst(), b.next_inst());
            if let (Some(ma), Some(mb)) = (x.mem, y.mem) {
                prop_assert_ne!(ma.addr >> 36, mb.addr >> 36);
            }
        }
    }

    /// Store-replayed traces are bit-identical to streamed generation:
    /// for any profile/seed/slot, every record the block store serves
    /// unpacks to exactly what a fresh generator streams — including
    /// within-window lookback re-reads (the squash path).
    #[test]
    fn store_replay_matches_streamed_generation(
        profile in any_builtin(),
        seed in 0u64..1000,
        slot in 0u64..4,
        n in 300u64..2000,
    ) {
        let mut store = ThreadTrace::new(profile, seed, slot, 64);
        let mut gen = TraceGenerator::new(profile, seed, slot);
        for seq in 0..n {
            let rec = store.record(seq);
            prop_assert_eq!(rec.unpack(), gen.next_inst(), "seq {}", seq);
            if seq >= 32 && seq % 97 == 0 {
                // Lookback re-read (squash path) replays identically.
                let back = seq - 32;
                let again = store.record(back);
                prop_assert_eq!(again, store.record(back));
            }
        }
    }

    /// Rebinding the store replays identically: after a same-key or a
    /// changed-key rebind the served stream equals fresh generation for
    /// the bound key.
    #[test]
    fn store_rebind_replays_each_key_exactly(
        profile in any_builtin(),
        seed in 0u64..500,
        slot in 0u64..4,
    ) {
        let mut store = ThreadTrace::new(profile, seed, slot, 64);
        let first: Vec<_> = (0..600).map(|s| store.record(s).unpack()).collect();
        store.rebind(profile, seed, slot);
        let replay: Vec<_> = (0..600).map(|s| store.record(s).unpack()).collect();
        prop_assert_eq!(&first, &replay);
        store.rebind(profile, seed ^ 0xdead, slot);
        let mut gen = TraceGenerator::new(profile, seed ^ 0xdead, slot);
        for seq in 0..600 {
            prop_assert_eq!(store.record(seq).unpack(), gen.next_inst(), "seq {}", seq);
        }
    }

    /// A decorrelated twin visits the same regions but a different cold
    /// path: its stream differs, yet stays well-formed.
    #[test]
    fn decorrelated_twin_differs(profile in any_builtin(), seed in 0u64..100) {
        let base = TraceGenerator::new(profile, seed, 0);
        let mut twin = base.decorrelated(7);
        let mut orig = base.clone();
        let mut diff = false;
        for _ in 0..500 {
            if orig.next_inst() != twin.next_inst() {
                diff = true;
                break;
            }
        }
        prop_assert!(diff, "decorrelated stream must diverge");
    }
}
