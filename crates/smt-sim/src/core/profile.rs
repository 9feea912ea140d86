//! Run observation: the [`Probe`] hooks of [`Simulator::run`], and the
//! per-stage wall-clock attribution probe [`StageProfile`].

use super::Simulator;
use std::convert::Infallible;
use std::time::{Duration, Instant};

/// A boundary in one iteration of [`Simulator::run`], reported to
/// [`Probe::mark`] in this order. Each but `Start` ends the part of the
/// iteration timed by the [`StageProfile`] field of the same name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// [`Simulator::step`] begins.
    Start,
    /// View refresh, `begin_cycle` and `fetch_order` are done.
    Policy,
    /// The event drain is done.
    Events,
    /// The commit stage is done.
    Commit,
    /// The issue stage is done.
    Issue,
    /// The dispatch stage is done.
    Dispatch,
    /// The fetch stage is done.
    Fetch,
    /// MLP sampling and cycle bookkeeping are done; `step` returns.
    Other,
    /// The fast-forward jump after the step is done.
    Forward,
}

/// An observer of [`Simulator::run`].
///
/// After each stepped cycle and the fast-forward span that follows it,
/// `run` calls [`Probe::probe`] once with the cycles the iteration
/// covered: `1 + skipped`. Weighting a sample by that count is exact: a
/// fast-forward span ends before any event, MSHR fill, I-cache or
/// dispatch deadline, so no state a probe can read (per-thread usage,
/// pending misses) changes inside it. A closure
/// `|sim: &Simulator, cycles: u64| ...` is a probe that never breaches.
pub trait Probe {
    /// Why a probe stops a run ([`Infallible`] for probes that never do).
    type Breach;

    /// Observes the machine after one iteration of the run loop that
    /// advanced the clock by `cycles`.
    ///
    /// # Errors
    ///
    /// Returns a breach to stop the run.
    fn probe(&mut self, sim: &Simulator, cycles: u64) -> Result<(), Self::Breach>;

    /// Called as each [`Stage`] of the iteration finishes. Does nothing
    /// unless the probe times stages.
    #[inline(always)]
    fn mark(&mut self, _stage: Stage) {}
}

/// The no-op probe: [`Simulator::run`] with `&mut ()` is the plain
/// fast-forwarding loop of [`Simulator::run_cycles`].
impl Probe for () {
    type Breach = Infallible;

    #[inline(always)]
    fn probe(&mut self, _sim: &Simulator, _cycles: u64) -> Result<(), Infallible> {
        Ok(())
    }
}

impl<F: FnMut(&Simulator, u64)> Probe for F {
    type Breach = Infallible;

    fn probe(&mut self, sim: &Simulator, cycles: u64) -> Result<(), Infallible> {
        self(sim, cycles);
        Ok(())
    }
}

/// Accumulated wall-clock time per pipeline stage of the cycle loop: a
/// [`Probe`] that reads the clock at every [`Stage`] mark. Simulation
/// output is bit-identical to an unprofiled run; only speed differs (nine
/// timer reads per loop iteration).
///
/// `policy` covers the per-cycle policy work that precedes the stages
/// (`begin_cycle` + `fetch_order` + the view refresh); `other` is the
/// residue of the loop (MLP sampling, cycle bookkeeping).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageProfile {
    /// Cycles accumulated into this profile — stepped *and* skipped, so
    /// `cycles` always equals simulated time.
    pub cycles: u64,
    /// Cycles covered by fast-forward jumps instead of steps (a subset of
    /// `cycles`).
    pub skipped: u64,
    /// View refresh + `begin_cycle` + `fetch_order`.
    pub policy: Duration,
    /// Event drain (timing wheel + wakeup scoreboard).
    pub events: Duration,
    /// Commit stage.
    pub commit: Duration,
    /// Issue stage.
    pub issue: Duration,
    /// Dispatch stage.
    pub dispatch: Duration,
    /// Fetch stage.
    pub fetch: Duration,
    /// Fast-forward: idle-deadline computation + policy/statistics replay.
    pub forward: Duration,
    /// MLP sampling and loop bookkeeping.
    pub other: Duration,
    /// Clock reading at the last stage mark.
    last_mark: Option<Instant>,
}

impl StageProfile {
    /// Total attributed wall-clock time.
    pub fn total(&self) -> Duration {
        self.policy
            + self.events
            + self.commit
            + self.issue
            + self.dispatch
            + self.fetch
            + self.forward
            + self.other
    }

    /// The stages as `(name, share_of_total)` pairs, in pipeline order.
    /// Shares sum to ~1.0 (all zero when nothing was profiled).
    pub fn shares(&self) -> [(&'static str, f64); 8] {
        let total = self.total().as_secs_f64();
        let of = |d: Duration| {
            if total > 0.0 {
                d.as_secs_f64() / total
            } else {
                0.0
            }
        };
        [
            ("policy", of(self.policy)),
            ("events", of(self.events)),
            ("commit", of(self.commit)),
            ("issue", of(self.issue)),
            ("dispatch", of(self.dispatch)),
            ("fetch", of(self.fetch)),
            ("forward", of(self.forward)),
            ("other", of(self.other)),
        ]
    }
}

impl Probe for StageProfile {
    type Breach = Infallible;

    fn probe(&mut self, _sim: &Simulator, cycles: u64) -> Result<(), Infallible> {
        self.cycles += cycles;
        self.skipped += cycles - 1;
        Ok(())
    }

    fn mark(&mut self, stage: Stage) {
        let now = Instant::now();
        let since = self.last_mark.map_or(Duration::ZERO, |t| now - t);
        self.last_mark = Some(now);
        let bucket = match stage {
            Stage::Start => return,
            Stage::Policy => &mut self.policy,
            Stage::Events => &mut self.events,
            Stage::Commit => &mut self.commit,
            Stage::Issue => &mut self.issue,
            Stage::Dispatch => &mut self.dispatch,
            Stage::Fetch => &mut self.fetch,
            Stage::Other => &mut self.other,
            Stage::Forward => &mut self.forward,
        };
        *bucket += since;
    }
}
