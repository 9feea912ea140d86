//! The DCRA sharing model (paper Section 3.2).

/// The sharing factor `C`: how much of their share fast threads lend to
/// each slow thread.
///
/// The paper tunes `C` to the memory latency (Section 5.3): at short
/// latencies slow threads release resources quickly, so lending can be
/// generous (`1/A`); at the baseline 300-cycle latency `1/(A+4)` works
/// best; at 500 cycles the issue queues should not be lent at all (`0`)
/// while registers still use `1/(A+4)`. (`A` is the number of active
/// threads competing for the resource, per the paper's re-definition of
/// `C = 1/(FA+SA)` in Section 3.2.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SharingFactor {
    /// `C = 1/A` — generous lending (best at low memory latency; also the
    /// factor behind the paper's Table 1).
    Inverse,
    /// `C = 1/(A+4)` — moderate lending (best at 300-cycle latency).
    InversePlus4,
    /// `C = 0` — no lending: slow threads get exactly the even share.
    Zero,
}

impl SharingFactor {
    /// The numeric value of `C` for `active` competing threads.
    pub fn value(self, active: u32) -> f64 {
        match self {
            SharingFactor::Inverse => {
                if active == 0 {
                    0.0
                } else {
                    1.0 / f64::from(active)
                }
            }
            SharingFactor::InversePlus4 => 1.0 / f64::from(active + 4),
            SharingFactor::Zero => 0.0,
        }
    }
}

/// Per-resource-class sharing factors.
///
/// The paper uses one circuit for the issue queues and one for the
/// registers (Section 3.4) and gives them different factors at high
/// latency (Section 5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharingConfig {
    /// Factor applied to the three issue queues.
    pub queue_factor: SharingFactor,
    /// Factor applied to the two rename-register pools.
    pub reg_factor: SharingFactor,
}

impl SharingConfig {
    /// The factors the paper found best for a given main-memory latency
    /// (Section 5.3): 100 cycles → `1/A`; 300 cycles → `1/(A+4)`;
    /// 500 cycles and beyond → queues `0`, registers `1/(A+4)`.
    pub fn for_memory_latency(latency: u32) -> Self {
        if latency <= 150 {
            SharingConfig {
                queue_factor: SharingFactor::Inverse,
                reg_factor: SharingFactor::Inverse,
            }
        } else if latency <= 400 {
            SharingConfig {
                queue_factor: SharingFactor::InversePlus4,
                reg_factor: SharingFactor::InversePlus4,
            }
        } else {
            SharingConfig {
                queue_factor: SharingFactor::Zero,
                reg_factor: SharingFactor::InversePlus4,
            }
        }
    }
}

impl Default for SharingConfig {
    /// Factors for the baseline 300-cycle memory.
    fn default() -> Self {
        SharingConfig::for_memory_latency(300)
    }
}

/// Entries of a resource that each **slow active** thread may allocate
/// (paper equation 3):
///
/// `E_slow = R/(FA+SA) · (1 + C·FA)`
///
/// where `R = total`, `FA`/`SA` are the fast-active and slow-active thread
/// counts for this resource. Inactive threads do not compete; fast threads
/// are left unrestricted and use whatever the slow threads leave them.
///
/// Returns `total` when no thread is active or no thread is slow (no limit
/// needs enforcing).
///
/// # Examples
///
/// ```
/// use dcra::{slow_share, SharingFactor};
///
/// // Paper Table 1, entry 7: 32 entries, 3 fast + 1 slow, C = 1/A.
/// assert_eq!(slow_share(32, 3, 1, SharingFactor::Inverse), 14);
/// ```
pub fn slow_share(total: u32, fast_active: u32, slow_active: u32, factor: SharingFactor) -> u32 {
    let active = fast_active + slow_active;
    if active == 0 || slow_active == 0 {
        return total;
    }
    let c = factor.value(active);
    let share = f64::from(total) / f64::from(active) * (1.0 + c * f64::from(fast_active));
    (share.round() as u32).min(total)
}

/// One row of a pre-computed allocation table (the paper's Table 1 and the
/// read-only-table implementation of Section 3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableEntry {
    /// Fast-active thread count.
    pub fast_active: u32,
    /// Slow-active thread count.
    pub slow_active: u32,
    /// Entries each slow-active thread may allocate.
    pub e_slow: u32,
}

/// The full pre-computed allocation table for a resource with `total`
/// entries on a `threads`-context machine: one row per `(FA, SA)` with
/// `SA ≥ 1` and `FA + SA ≤ threads`, in the paper's Table-1 order
/// (ascending `FA + SA`, then ascending `FA`... descending? — Table 1
/// orders by total active then by `SA`; we order rows exactly like the
/// paper: by `FA+SA`, then descending `SA`).
pub fn allocation_table(total: u32, threads: u32, factor: SharingFactor) -> Vec<TableEntry> {
    let mut rows = Vec::new();
    for active in 1..=threads {
        for sa in (1..=active).rev() {
            let fa = active - sa;
            rows.push(TableEntry {
                fast_active: fa,
                slow_active: sa,
                e_slow: slow_share(total, fa, sa, factor),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Table 1 verbatim: (entry, FA, SA, E_slow) for a
    /// 32-entry resource on a 4-thread processor.
    const PAPER_TABLE1: &[(u32, u32, u32)] = &[
        (0, 1, 32),
        (1, 1, 24),
        (0, 2, 16),
        (2, 1, 18),
        (1, 2, 14),
        (0, 3, 11),
        (3, 1, 14),
        (2, 2, 12),
        (1, 3, 10),
        (0, 4, 8),
    ];

    #[test]
    fn reproduces_paper_table1() {
        for &(fa, sa, expect) in PAPER_TABLE1 {
            assert_eq!(
                slow_share(32, fa, sa, SharingFactor::Inverse),
                expect,
                "FA={fa} SA={sa}"
            );
        }
    }

    #[test]
    fn allocation_table_has_paper_rows() {
        let table = allocation_table(32, 4, SharingFactor::Inverse);
        assert_eq!(table.len(), 10, "4-context machine has 10 (FA,SA) rows");
        for &(fa, sa, expect) in PAPER_TABLE1 {
            let row = table
                .iter()
                .find(|r| r.fast_active == fa && r.slow_active == sa)
                .expect("row missing");
            assert_eq!(row.e_slow, expect, "FA={fa} SA={sa}");
        }
    }

    #[test]
    fn no_slow_threads_means_no_limit() {
        assert_eq!(slow_share(80, 3, 0, SharingFactor::Inverse), 80);
        assert_eq!(slow_share(80, 0, 0, SharingFactor::Inverse), 80);
    }

    #[test]
    fn zero_factor_gives_even_share() {
        assert_eq!(slow_share(80, 2, 2, SharingFactor::Zero), 20);
        assert_eq!(slow_share(80, 3, 1, SharingFactor::Zero), 20);
    }

    #[test]
    fn share_never_exceeds_total() {
        for factor in [
            SharingFactor::Inverse,
            SharingFactor::InversePlus4,
            SharingFactor::Zero,
        ] {
            for fa in 0..=4 {
                for sa in 0..=4 {
                    let s = slow_share(32, fa, sa, factor);
                    assert!(s <= 32, "share {s} > total (FA={fa},SA={sa})");
                }
            }
        }
    }

    #[test]
    fn more_fast_threads_lend_more() {
        // With one slow thread, its share grows with the number of fast
        // threads lending to it... per share of the *smaller pool*. What
        // must hold: the slow share always exceeds the even split.
        for fa in 1..=3u32 {
            let even = 32 / (fa + 1);
            let s = slow_share(32, fa, 1, SharingFactor::Inverse);
            assert!(s > even, "FA={fa}: {s} ≤ even share {even}");
        }
    }

    #[test]
    fn latency_presets_match_section_5_3() {
        let low = SharingConfig::for_memory_latency(100);
        assert_eq!(low.queue_factor, SharingFactor::Inverse);
        let base = SharingConfig::for_memory_latency(300);
        assert_eq!(base.queue_factor, SharingFactor::InversePlus4);
        assert_eq!(base.reg_factor, SharingFactor::InversePlus4);
        let high = SharingConfig::for_memory_latency(500);
        assert_eq!(high.queue_factor, SharingFactor::Zero);
        assert_eq!(high.reg_factor, SharingFactor::InversePlus4);
        assert_eq!(SharingConfig::default(), base);
    }

    #[test]
    fn factor_values() {
        assert_eq!(SharingFactor::Inverse.value(2), 0.5);
        assert_eq!(SharingFactor::InversePlus4.value(2), 1.0 / 6.0);
        assert_eq!(SharingFactor::Zero.value(2), 0.0);
        assert_eq!(SharingFactor::Inverse.value(0), 0.0);
    }
}
