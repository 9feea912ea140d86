//! The paper's Table-4 multiprogrammed workloads.

/// Workload class by the cache behaviour of its member threads (Section 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WorkloadType {
    /// Only high-ILP threads.
    Ilp,
    /// A mixture of ILP and MEM threads.
    Mix,
    /// Only memory-bounded threads.
    Mem,
}

impl WorkloadType {
    /// All workload types in the paper's presentation order.
    pub const ALL: [WorkloadType; 3] = [WorkloadType::Ilp, WorkloadType::Mix, WorkloadType::Mem];
}

impl std::fmt::Display for WorkloadType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadType::Ilp => f.write_str("ILP"),
            WorkloadType::Mix => f.write_str("MIX"),
            WorkloadType::Mem => f.write_str("MEM"),
        }
    }
}

/// One multiprogrammed workload: a named set of benchmarks run together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// Class (ILP/MIX/MEM).
    pub kind: WorkloadType,
    /// Group index within the class (1..=4, Table 4's four groups).
    pub group: u8,
    /// Benchmark names, one per hardware thread.
    pub benchmarks: Vec<String>,
}

impl Workload {
    /// Number of threads in this workload.
    pub fn threads(&self) -> usize {
        self.benchmarks.len()
    }

    /// Canonical identifier, e.g. `"MEM2-g1"` for the 2-thread MEM group-1
    /// workload.
    pub fn id(&self) -> String {
        format!("{}{}-g{}", self.kind, self.threads(), self.group)
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [{}]", self.id(), self.benchmarks.join("+"))
    }
}

/// Raw Table 4 of the paper: (threads, type, group) → benchmarks.
const TABLE4: &[(WorkloadType, u8, &[&str])] = &[
    // 2 threads
    (WorkloadType::Ilp, 1, &["gzip", "bzip2"]),
    (WorkloadType::Ilp, 2, &["wupwise", "gcc"]),
    (WorkloadType::Ilp, 3, &["fma3d", "mesa"]),
    (WorkloadType::Ilp, 4, &["apsi", "gcc"]),
    (WorkloadType::Mix, 1, &["gzip", "twolf"]),
    (WorkloadType::Mix, 2, &["wupwise", "twolf"]),
    (WorkloadType::Mix, 3, &["lucas", "crafty"]),
    (WorkloadType::Mix, 4, &["equake", "bzip2"]),
    (WorkloadType::Mem, 1, &["mcf", "twolf"]),
    (WorkloadType::Mem, 2, &["art", "vpr"]),
    (WorkloadType::Mem, 3, &["art", "twolf"]),
    (WorkloadType::Mem, 4, &["swim", "mcf"]),
    // 3 threads
    (WorkloadType::Ilp, 1, &["gcc", "eon", "gap"]),
    (WorkloadType::Ilp, 2, &["gcc", "apsi", "gzip"]),
    (WorkloadType::Ilp, 3, &["crafty", "perl", "wupwise"]),
    (WorkloadType::Ilp, 4, &["mesa", "vortex", "fma3d"]),
    (WorkloadType::Mix, 1, &["twolf", "eon", "vortex"]),
    (WorkloadType::Mix, 2, &["lucas", "gap", "apsi"]),
    (WorkloadType::Mix, 3, &["equake", "perl", "gcc"]),
    (WorkloadType::Mix, 4, &["mcf", "apsi", "fma3d"]),
    (WorkloadType::Mem, 1, &["mcf", "twolf", "vpr"]),
    (WorkloadType::Mem, 2, &["swim", "twolf", "equake"]),
    (WorkloadType::Mem, 3, &["art", "twolf", "lucas"]),
    (WorkloadType::Mem, 4, &["equake", "vpr", "swim"]),
    // 4 threads
    (WorkloadType::Ilp, 1, &["gzip", "bzip2", "eon", "gcc"]),
    (WorkloadType::Ilp, 2, &["mesa", "gzip", "fma3d", "bzip2"]),
    (WorkloadType::Ilp, 3, &["crafty", "fma3d", "apsi", "vortex"]),
    (WorkloadType::Ilp, 4, &["apsi", "gap", "wupwise", "perl"]),
    (WorkloadType::Mix, 1, &["gzip", "twolf", "bzip2", "mcf"]),
    (WorkloadType::Mix, 2, &["mcf", "mesa", "lucas", "gzip"]),
    (WorkloadType::Mix, 3, &["art", "gap", "twolf", "crafty"]),
    (WorkloadType::Mix, 4, &["swim", "fma3d", "vpr", "bzip2"]),
    (WorkloadType::Mem, 1, &["mcf", "twolf", "vpr", "parser"]),
    (WorkloadType::Mem, 2, &["art", "twolf", "equake", "mcf"]),
    (WorkloadType::Mem, 3, &["equake", "parser", "mcf", "lucas"]),
    (WorkloadType::Mem, 4, &["art", "mcf", "vpr", "swim"]),
];

/// All 36 workloads of the paper's Table 4.
pub fn table4_workloads() -> Vec<Workload> {
    TABLE4
        .iter()
        .map(|(kind, group, benchmarks)| Workload {
            kind: *kind,
            group: *group,
            benchmarks: benchmarks.iter().map(|b| b.to_string()).collect(),
        })
        .collect()
}

/// The four workload groups of the given class and thread count, e.g.
/// `workloads_of(WorkloadType::Mem, 2)` = the paper's "MEM2" set.
pub fn workloads_of(kind: WorkloadType, threads: usize) -> Vec<Workload> {
    table4_workloads()
        .into_iter()
        .filter(|w| w.kind == kind && w.threads() == threads)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn table4_has_36_workloads() {
        let all = table4_workloads();
        assert_eq!(all.len(), 36);
        for threads in [2, 3, 4] {
            for kind in WorkloadType::ALL {
                assert_eq!(
                    workloads_of(kind, threads).len(),
                    4,
                    "{kind}{threads} needs 4 groups"
                );
            }
        }
    }

    #[test]
    fn every_benchmark_in_table4_has_a_profile() {
        for w in table4_workloads() {
            for b in &w.benchmarks {
                assert!(spec::profile(b).is_some(), "missing profile for {b}");
            }
        }
    }

    #[test]
    fn workload_types_match_member_cache_behaviour() {
        for w in table4_workloads() {
            let mem_count = w
                .benchmarks
                .iter()
                .filter(|b| spec::mem_names().contains(&b.as_ref()))
                .count();
            match w.kind {
                WorkloadType::Ilp => {
                    assert_eq!(mem_count, 0, "{w} labelled ILP but has MEM threads")
                }
                WorkloadType::Mem => assert_eq!(
                    mem_count,
                    w.threads(),
                    "{w} labelled MEM but has ILP threads"
                ),
                WorkloadType::Mix => {
                    assert!(mem_count > 0 && mem_count < w.threads(), "{w} is not mixed")
                }
            }
        }
    }

    #[test]
    fn ids_are_unique() {
        let all = table4_workloads();
        let mut ids: Vec<String> = all.iter().map(|w| w.id()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), all.len());
    }

    #[test]
    fn display_mentions_members() {
        let w = &workloads_of(WorkloadType::Mem, 2)[0];
        let s = w.to_string();
        assert!(s.contains("mcf") && s.contains("twolf"));
    }
}
