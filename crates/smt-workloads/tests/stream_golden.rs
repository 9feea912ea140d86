//! Stream goldens for `TraceGenerator`: FNV-1a digests of the first
//! 200k instructions of every registry profile (seeds 1 and 42, thread
//! slots 0 and 3, plus the `decorrelated(0xCAFE)` prewarm twin) and of a
//! few scenario-family profiles with edge-case knobs.
//!
//! The generator's samplers are table-driven integer rewrites of float
//! expressions; these digests pin that every draw still consumes the same
//! random output and returns the same value. Any intentional change to the
//! generated streams must regenerate the table below (a failing test
//! prints its actual rows) and say why in CHANGES.md.

use smt_isa::DecodedInst;
use smt_workloads::{
    spec, BenchmarkProfile, FamilySpec, PolicyTarget, ScenarioFamily, TraceGenerator,
};

const RECORDS: usize = 200_000;

/// Salt of the simulator's functional-warm-up twin (`Simulator::prewarm`).
const PREWARM_SALT: u64 = 0xCAFE;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over 64-bit words (not bytes): a quarter of the work per
/// record, which matters for a 200k-record stream in a debug build.
fn fnv(h: &mut u64, v: u64) {
    *h = (*h ^ v).wrapping_mul(FNV_PRIME);
}

fn fold(h: &mut u64, inst: &DecodedInst, in_memory_phase: bool) {
    fnv(h, inst.pc);
    fnv(h, inst.class as u64);
    fnv(h, inst.dest.map_or(u64::MAX, |d| d as u64));
    for d in inst.deps() {
        fnv(h, d.map_or(0, u64::from));
    }
    match inst.mem {
        Some(m) => {
            fnv(h, m.addr);
            fnv(h, u64::from(m.size));
        }
        None => fnv(h, u64::MAX),
    }
    match inst.branch {
        Some(b) => {
            fnv(h, b.kind as u64);
            fnv(h, u64::from(b.taken));
            fnv(h, b.target);
        }
        None => fnv(h, u64::MAX),
    }
    fnv(h, u64::from(in_memory_phase));
}

fn digest(mut g: TraceGenerator) -> u64 {
    let mut h = FNV_OFFSET;
    for _ in 0..RECORDS {
        let inst = g.next_inst();
        fold(&mut h, &inst, g.in_memory_phase());
    }
    h
}

/// One covered stream: `(label, profile, seed, thread slot)`.
type Stream = (String, BenchmarkProfile, u64, u64);

/// Every registry profile at `seed`, in thread slots 0 and 3.
fn registry_streams(seed: u64) -> Vec<Stream> {
    let mut out = Vec::new();
    for name in spec::names() {
        let p = spec::profile(name).expect("registry profile");
        for slot in [0u64, 3] {
            out.push((format!("{name}/s{seed}/t{slot}"), p.clone(), seed, slot));
        }
    }
    out
}

/// Profiles drawn from scenario families, plus edge-case variants of one
/// of them that the families never emit on their own: `dep_mean` of 1
/// (the dependence sampler's draw-free short cut) and data-dependent
/// branches that are never or always taken.
fn scenario_streams() -> Vec<Stream> {
    let specs = [
        FamilySpec::expected(2),
        FamilySpec::stress(3),
        FamilySpec::adversarial(PolicyTarget::Dcra, 1),
        FamilySpec::adversarial(PolicyTarget::Flush, 1),
    ];
    let mut out = Vec::new();
    for fs in &specs {
        let fam = ScenarioFamily::generate(fs, 7).expect("valid family");
        for mix in fam.mixes() {
            for (slot, p) in mix.profiles.iter().enumerate() {
                let label = format!("{}/t{slot}/{}", mix.id, p.name);
                out.push((label, p.clone(), mix.seed, slot as u64));
            }
        }
    }
    let base = out[0].1.clone();
    let mut edge = |label: &str, edit: &dyn Fn(&mut BenchmarkProfile)| {
        let mut p = base.clone();
        edit(&mut p);
        p.validate().expect("edge profile stays valid");
        out.push((format!("edge/{label}"), p, 5, 1));
    };
    edge("dep_mean_1", &|p| p.dep_mean = 1.0);
    edge("taken_rate_0", &|p| p.branches.random_taken_rate = 0.0);
    edge("taken_rate_1", &|p| p.branches.random_taken_rate = 1.0);
    out
}

/// `(label, stream digest, twin digest)`, recorded from the generator's
/// float samplers, which the integer-domain ones must reproduce.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, u64)] = &[
    ("mcf/s1/t0", 0x329903a957e57e60, 0x5d2e8a3c2d82fbcd),
    ("mcf/s1/t3", 0xd6ad58fb76af5e20, 0x581e3ce77a1b0d8d),
    ("art/s1/t0", 0x7f75dc102f4913cd, 0xf7457d574a1a8541),
    ("art/s1/t3", 0xb9c20a2862a2144d, 0xd6225172b8420041),
    ("swim/s1/t0", 0x1fb989ee2f85d6c5, 0x4959b28b24881418),
    ("swim/s1/t3", 0xa9de01380a419e05, 0xb2c2b3307d6e4fd8),
    ("lucas/s1/t0", 0x40080a8433581f8d, 0xbf6502797bfe40ee),
    ("lucas/s1/t3", 0xbaa820d230e39bcd, 0x646948625e70422e),
    ("equake/s1/t0", 0x2a1ec7d2bd6d3885, 0xb197569945eb8482),
    ("equake/s1/t3", 0x31129ef2cade8745, 0xd5a2becd7ac98542),
    ("twolf/s1/t0", 0x75a14aaf90ef08c2, 0x2127bc01e253dc1b),
    ("twolf/s1/t3", 0x77849515b03bb182, 0xad664f22f456611b),
    ("vpr/s1/t0", 0x00fa1c2e5ba3b9d7, 0x6b0c7a3f1b144736),
    ("vpr/s1/t3", 0x49b7431dc6920c57, 0xe36255a54e96a3b6),
    ("parser/s1/t0", 0xeaf132d7a4d97c4b, 0x0a6318efc9e0bdf6),
    ("parser/s1/t3", 0x4a0cdc34b4ab82cb, 0xa4d5bfdf0484dbb6),
    ("gap/s1/t0", 0x416a1eb3e640fe6c, 0x608a0765f6875ac6),
    ("gap/s1/t3", 0xa9b1dbbaf482032c, 0xd590e505b3458586),
    ("vortex/s1/t0", 0x44283a5b6fc5d51b, 0x5e8341e371a14254),
    ("vortex/s1/t3", 0x04179e490d1f685b, 0xe469f426f1be75d4),
    ("gcc/s1/t0", 0x6728938fb7cb14c3, 0x8e4a68a5c710270f),
    ("gcc/s1/t3", 0xcdae16949f159d83, 0x618e3e95060d488f),
    ("perl/s1/t0", 0x5bb62572175b37a1, 0xf5bdc07eebdabe61),
    ("perl/s1/t3", 0xc6de328cf3e8eea1, 0x21dd48ca58eecea1),
    ("bzip2/s1/t0", 0x4febae24565daa50, 0xdddd64af6ddd9be5),
    ("bzip2/s1/t3", 0x5e3dd45090995e50, 0x886514db0c5d0ea5),
    ("crafty/s1/t0", 0xd9b81f5e83eea517, 0x8791787f9b41bd94),
    ("crafty/s1/t3", 0x448cd80889623197, 0xcb3701369cdd6414),
    ("gzip/s1/t0", 0xbbffc3a535d2d6bc, 0xdeb10dfeab782893),
    ("gzip/s1/t3", 0x9e5b90bbbd0ac0fc, 0xb4782df5622390d3),
    ("eon/s1/t0", 0xeb5d619bbbd1a24a, 0x77d3cdb5fa6c0732),
    ("eon/s1/t3", 0x67dd1d06c225be4a, 0xb9c90ec9b67f6cf2),
    ("apsi/s1/t0", 0x0ebb3cc8d2f23670, 0x52294cceb477c35a),
    ("apsi/s1/t3", 0x7a5d301ecf7b0870, 0xf16f3c00377ade1a),
    ("wupwise/s1/t0", 0xf9e056d3cc4e8929, 0xad1acfb62ccdf25c),
    ("wupwise/s1/t3", 0xe038859027ffa329, 0xb8ed7bf8deccfc1c),
    ("mesa/s1/t0", 0x59939b433648caf3, 0x0cb8f6df0bf84438),
    ("mesa/s1/t3", 0x8087d754a4275fb3, 0xcae5f7bdf35d5838),
    ("fma3d/s1/t0", 0x79514dae2e8fa6d2, 0xfa21635f84a9f2e1),
    ("fma3d/s1/t3", 0x550f4742ab82ff92, 0x05e2c7a52d9ad261),
    ("mcf/s42/t0", 0x0423acc0040299f9, 0x3afaa3ff8cb105d0),
    ("mcf/s42/t3", 0x4ea81b18fc4e9b79, 0x7f246bd0cc8f5750),
    ("art/s42/t0", 0x8a4abbbe4b245a84, 0x4be0a40967f64707),
    ("art/s42/t3", 0xb34bb48f6fbe9a84, 0x42edb192aa29fe87),
    ("swim/s42/t0", 0xd3e9c84b1b0a7c7c, 0x249dbbffc159938d),
    ("swim/s42/t3", 0xd3baea6bd5f0093c, 0x8eaf61052d37858d),
    ("lucas/s42/t0", 0x82b11ef2cd372187, 0xca5a9dbcd8e6a20c),
    ("lucas/s42/t3", 0x262b39577850b987, 0x1fe7f54c24dced8c),
    ("equake/s42/t0", 0x4f02b88fe185660b, 0x58ad0faaf2590f58),
    ("equake/s42/t3", 0x79685bbe224d294b, 0x9e6cb2d11bd99318),
    ("twolf/s42/t0", 0x7810138234e2bac3, 0x3b504d53c5acf385),
    ("twolf/s42/t3", 0x393c0e2e827ec143, 0x7ec6a2fc019ccc45),
    ("vpr/s42/t0", 0x7f0e5a0ded04a0b0, 0xee531e3229c1e660),
    ("vpr/s42/t3", 0xad7d6026bdb13130, 0x09a85cf3cad8f7a0),
    ("parser/s42/t0", 0x912dac14474ae693, 0x19ac31dd54cb016a),
    ("parser/s42/t3", 0x2121046489e8a453, 0x94201b03c0e1fdea),
    ("gap/s42/t0", 0x2379d87a598a6269, 0xddf1074ae1e17df1),
    ("gap/s42/t3", 0xff13249d2582dea9, 0xf3a31e7256291571),
    ("vortex/s42/t0", 0xc139d1823cbad4fd, 0x8b59bc1d8adc3b6e),
    ("vortex/s42/t3", 0xd1bb6732504b063d, 0x447a9bdf10d3beae),
    ("gcc/s42/t0", 0x23446f5222f749ea, 0x3432c6211120015e),
    ("gcc/s42/t3", 0x073a4d6a3fc2adaa, 0xa06eca3380bb1a5e),
    ("perl/s42/t0", 0xca682a58d0f3d59f, 0x3810f18364725634),
    ("perl/s42/t3", 0x78e302bb83f9db1f, 0xb0fe3fdbf3b588b4),
    ("bzip2/s42/t0", 0x87a9c147e33045b7, 0x5ea27f63568511fe),
    ("bzip2/s42/t3", 0x8d50b14a597bda37, 0xb9e9dff49e625f7e),
    ("crafty/s42/t0", 0x33d986068a891e30, 0xb17cd52071ff541b),
    ("crafty/s42/t3", 0xd2f451d696097c70, 0xba33d1f407a9985b),
    ("gzip/s42/t0", 0xdb1e1694316dcca3, 0xf3409b33ecd65ff9),
    ("gzip/s42/t3", 0x1f815cae4d354723, 0xac5a740c35dedd39),
    ("eon/s42/t0", 0xd49e370485ed96bd, 0xbfd08f0dfc02e90c),
    ("eon/s42/t3", 0x7a2bff41352fd1fd, 0x615e8683d4e42acc),
    ("apsi/s42/t0", 0xcca988357b4e9ef5, 0x3c455e3e8358bc34),
    ("apsi/s42/t3", 0x52867af88efc5fb5, 0x2a797d33562595f4),
    ("wupwise/s42/t0", 0x1472e4e0528e3480, 0x7046c67164012948),
    ("wupwise/s42/t3", 0x4e2c3eeb5612c9c0, 0x0ca6a4bdbe05ba08),
    ("mesa/s42/t0", 0x075cba2352188e9e, 0x82acf0789c7e90b8),
    ("mesa/s42/t3", 0xd0f29f832013e45e, 0xdfd800629c007778),
    ("fma3d/s42/t0", 0x74b97de169800464, 0xf34e89e87e53b492),
    ("fma3d/s42/t3", 0xf0b972b649ad8164, 0xc8aa5397db426192),
    ("expected-s7-m000/t0/mesa", 0x3db5df715f7721a5, 0x5bec965e095eb038),
    ("expected-s7-m000/t1/vortex", 0xb5a1febf7be172ec, 0x73a5dcfe5aeafc8a),
    ("expected-s7-m000/t2/fma3d", 0x030aea28464dec7e, 0x77e67ed83122a82f),
    ("expected-s7-m001/t0/equake", 0xc1a1ccaa789adc7f, 0x403b95b410205130),
    ("expected-s7-m001/t1/bzip2", 0x52bc2606e5012e3d, 0x6d3863f811ee9ad3),
    ("stress-s7-m000/t0/stress-mshr-t0", 0xec29dbefd6f435e0, 0x560438da6c4c0537),
    ("stress-s7-m000/t1/stress-mshr-t1", 0x5f3110b3bcea090c, 0xb1515c36bb916c80),
    ("stress-s7-m000/t2/stress-mshr-t2", 0xaa018bc6d68ee6c1, 0x94292f5c90ada4ea),
    ("stress-s7-m000/t3/stress-mshr-t3", 0x0fb86b55c9a9fe99, 0x7b0696f8c26f8e9c),
    ("stress-s7-m001/t0/stress-tlb-t0", 0xca8afa17be2c0df8, 0x6dbff25ef2f9138e),
    ("stress-s7-m001/t1/stress-tlb-t1", 0x8ff76e01ab257b2b, 0x9b281c7ae7edb0da),
    ("stress-s7-m001/t2/stress-tlb-t2", 0xfb038efa391df334, 0xa880463d5c94ec82),
    ("stress-s7-m002/t0/stress-mem-equake-t0", 0x1e0d28b070454b88, 0x26aa32663b08ee7c),
    ("stress-s7-m002/t1/stress-mem-swim-t1", 0x58378982950e9ca3, 0x17570bd5d6f0847b),
    ("stress-s7-m002/t2/stress-mem-swim-t2", 0xdca41745932bd277, 0x0dd7e0f00fbfc0b1),
    ("stress-s7-m002/t3/stress-mem-swim-t3", 0x199e1f1a64cdec89, 0xab367cc4f4f7e8f0),
    ("adversarial-DCRA-s7-m000/t0/adv-dcra", 0xdc71f69500b2a467, 0xa962922ee4d439c7),
    ("adversarial-DCRA-s7-m000/t1/bzip2", 0x580e804cabb0e717, 0xeb349c2b44ca9545),
    ("adversarial-FLUSH-s7-m000/t0/adv-flush", 0x69ae40e14a09a3a3, 0x15811fe7bd9a03b0),
    ("adversarial-FLUSH-s7-m000/t1/mesa", 0x63fc52e152f78564, 0x7eae199b06833d08),
    ("edge/dep_mean_1", 0x756e9e29db5aa13e, 0x55793b835545112f),
    ("edge/taken_rate_0", 0xfdeb6e69a0f0d948, 0x937494c0c90b7068),
    ("edge/taken_rate_1", 0xbb4fa5c3ac522301, 0x5c04946662ef36f9),
];

/// Digests every stream and its prewarm twin and compares them with
/// [`GOLDEN`]; on a mismatch the message prints the actual rows.
fn check(streams: Vec<Stream>) {
    let mut table = String::new();
    let mut mismatches = 0;
    for (label, p, seed, slot) in streams {
        let g = TraceGenerator::new(&p, seed, slot);
        let twin = g.decorrelated(PREWARM_SALT);
        let (d, t) = (digest(g), digest(twin));
        if !GOLDEN.contains(&(label.as_str(), d, t)) {
            mismatches += 1;
        }
        table.push_str(&format!("    (\"{label}\", {d:#018x}, {t:#018x}),\n"));
    }
    assert_eq!(
        mismatches, 0,
        "stream digests changed; actual rows:\n{table}"
    );
}

#[test]
fn registry_streams_seed_1_match_goldens() {
    check(registry_streams(1));
}

#[test]
fn registry_streams_seed_42_match_goldens() {
    check(registry_streams(42));
}

#[test]
fn scenario_streams_match_goldens() {
    check(scenario_streams());
}
