//! Fault-domain vocabulary for the experiment engine: the typed error a
//! single run can die with, the retry/backoff policy for transient
//! failures, and the per-engine options (budgets, admission control) the
//! isolated work queue enforces.
//!
//! The design goal is the property the paper assumes of real SMT
//! hardware: a misbehaving workload degrades *its own* results, never the
//! machine running the other threads. Every failure mode of a run —
//! panicking policy code, invalid machine configuration, unknown
//! benchmark, livelock, cycle-budget exhaustion, queue rejection — maps
//! to one [`RunError`] variant carried in a
//! [`RunOutcome::Failed`](crate::runner::RunOutcome::Failed), and sibling
//! runs in the same sweep are unaffected.

use smt_sim::watch::BudgetBreach;
use smt_sim::RunBudget;
use std::time::Duration;

/// Why a single run failed. Clonable and comparable so sweep reports can
/// carry, deduplicate and assert on failures.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// A benchmark name resolved to no registry profile (and the spec
    /// carried no profile overrides).
    UnknownBenchmark {
        /// The unresolvable benchmark name.
        bench: String,
    },
    /// The spec's machine configuration or profiles could not build a
    /// simulator ([`BuildError`](smt_sim::BuildError)), or its profile
    /// overrides did not cover every thread.
    InvalidSpec {
        /// The validation message.
        message: String,
    },
    /// Policy or simulator code panicked mid-run. The worker's simulator
    /// is discarded (its state may be arbitrarily corrupt); the panic is
    /// contained to this run.
    Panicked {
        /// The panic payload, if it was a string.
        message: String,
    },
    /// The run advanced a full livelock window without committing a
    /// single instruction (see
    /// [`RunBudget::livelock_window`]).
    Livelock {
        /// The configured window.
        window: u64,
        /// Cycle at which the breach was observed.
        at_cycle: u64,
        /// Last checkpoint with visible commit progress.
        last_progress_cycle: u64,
        /// Committed instructions at the breach.
        committed: u64,
    },
    /// The run hit its hard cycle cap (see [`RunBudget::max_cycles`]).
    CycleBudget {
        /// The configured cap.
        limit: u64,
        /// Committed instructions when the cap was hit.
        committed: u64,
    },
    /// The work queue was full: admission control rejected the run before
    /// it ever executed (see [`EngineOptions::queue_capacity`]).
    QueueFull {
        /// The configured capacity.
        capacity: usize,
        /// The depth the submission would have required.
        depth: usize,
    },
}

impl RunError {
    /// `true` for failures worth retrying: the failure may not reproduce
    /// on a fresh simulator (panics — which can be environmental or
    /// injected). Deterministic failures (invalid specs, unknown
    /// benchmarks, budget breaches, queue rejection) would fail
    /// identically on every attempt and are never retried.
    pub fn is_transient(&self) -> bool {
        matches!(self, RunError::Panicked { .. })
    }

    pub(crate) fn from_breach(breach: BudgetBreach) -> Self {
        match breach {
            BudgetBreach::CycleCap {
                limit, committed, ..
            } => RunError::CycleBudget { limit, committed },
            BudgetBreach::Livelock {
                window,
                at_cycle,
                last_progress_cycle,
                committed,
            } => RunError::Livelock {
                window,
                at_cycle,
                last_progress_cycle,
                committed,
            },
        }
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::UnknownBenchmark { bench } => write!(f, "unknown benchmark `{bench}`"),
            RunError::InvalidSpec { message } => {
                write!(f, "invalid run spec configuration: {message}")
            }
            RunError::Panicked { message } => write!(f, "run panicked: {message}"),
            RunError::Livelock {
                window,
                at_cycle,
                last_progress_cycle,
                committed,
            } => write!(
                f,
                "livelock: no commit progress for {window} cycles (at cycle \
                 {at_cycle}, last progress checkpoint {last_progress_cycle}, \
                 {committed} committed)"
            ),
            RunError::CycleBudget { limit, committed } => write!(
                f,
                "cycle budget exhausted: limit {limit}, {committed} committed"
            ),
            RunError::QueueFull { capacity, depth } => write!(
                f,
                "work queue full: capacity {capacity}, submission depth {depth}"
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// Bounded retry-with-backoff for transient run failures.
///
/// Attempts are deterministic: the retried run replays the same spec and
/// seed on a fresh simulator, so a successful retry is bit-identical to a
/// first-attempt success (pinned by the retry-determinism test in the
/// golden suite). Backoff is exponential from `base_backoff`, capped at
/// `max_backoff`; the default base is zero so tests never sleep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per run, including the first (minimum 1).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
}

impl RetryPolicy {
    /// No retries: one attempt, fail fast. The engine default.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    /// Up to `attempts` attempts with no backoff sleeps — deterministic
    /// wall-clock behaviour for tests and soak harnesses.
    pub fn immediate(attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: attempts.max(1),
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    /// The backoff to sleep before retry number `retry` (1-based: the
    /// sleep before the second attempt is `backoff_for(1)`). Exponential
    /// doubling from `base_backoff`, saturating at `max_backoff`.
    pub fn backoff_for(&self, retry: u32) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let factor = 1u32 << retry.saturating_sub(1).min(16);
        self.base_backoff
            .saturating_mul(factor)
            .min(self.max_backoff)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// Options for the fault-isolated work queue
/// ([`Runner::run_isolated`](crate::runner::Runner::run_isolated)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineOptions {
    /// Default per-run budget for specs that carry none of their own
    /// ([`RunSpec::budget`](crate::runner::RunSpec::budget) overrides).
    pub budget: RunBudget,
    /// Retry policy for transient failures.
    pub retry: RetryPolicy,
    /// Admission control: maximum queue depth. Submissions beyond this
    /// are rejected up front with [`RunError::QueueFull`] instead of
    /// executing (`None` = unbounded).
    pub queue_capacity: Option<usize>,
}

/// What the isolated engine observed while draining one queue — the
/// sweep-level fault report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineReport {
    /// Runs that completed and delivered statistics.
    pub completed: usize,
    /// Runs that failed with a typed [`RunError`] (including rejections).
    pub failed: usize,
    /// Spec indices rejected by admission control (a subset of `failed`).
    pub rejected: usize,
    /// Spec indices whose *sink callback* panicked. The outcome of such a
    /// run is lost to the consumer, but the panic was contained: sibling
    /// runs kept draining the queue and the shared sink lock was recovered
    /// rather than poisoned. Sorted ascending.
    pub sink_panics: Vec<usize>,
}

/// A deterministic fault to inject into a run — the hook the chaos
/// harness (see [`crate::chaos`]) uses to make runs fail on purpose.
/// Carried on [`RunSpec::fault`](crate::runner::RunSpec::fault); `None`
/// everywhere outside fault-injection tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Wrap the run's policy so it panics once the simulation reaches
    /// `at_cycle` — but only while the attempt number is below
    /// `fail_attempts`, so a transient fault (`fail_attempts: 1`) panics
    /// on the first attempt and completes cleanly on the retry.
    PanicAtCycle {
        /// Cycle at (or after) which the wrapped policy panics.
        at_cycle: u64,
        /// Number of leading attempts that panic; later attempts run the
        /// unwrapped policy.
        fail_attempts: u32,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_panics_are_transient() {
        assert!(RunError::Panicked {
            message: "boom".into()
        }
        .is_transient());
        for err in [
            RunError::UnknownBenchmark { bench: "x".into() },
            RunError::InvalidSpec {
                message: "bad".into(),
            },
            RunError::Livelock {
                window: 8,
                at_cycle: 8,
                last_progress_cycle: 0,
                committed: 0,
            },
            RunError::CycleBudget {
                limit: 100,
                committed: 5,
            },
            RunError::QueueFull {
                capacity: 4,
                depth: 9,
            },
        ] {
            assert!(!err.is_transient(), "{err} must not be retried");
            assert!(!format!("{err}").is_empty());
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let r = RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(35),
        };
        assert_eq!(r.backoff_for(1), Duration::from_millis(10));
        assert_eq!(r.backoff_for(2), Duration::from_millis(20));
        assert_eq!(r.backoff_for(3), Duration::from_millis(35), "capped");
        assert_eq!(RetryPolicy::none().backoff_for(1), Duration::ZERO);
        assert_eq!(RetryPolicy::immediate(3).backoff_for(2), Duration::ZERO);
    }

    #[test]
    fn immediate_clamps_to_one_attempt() {
        assert_eq!(RetryPolicy::immediate(0).max_attempts, 1);
    }
}
