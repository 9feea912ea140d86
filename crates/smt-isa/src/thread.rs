//! Hardware-thread (context) identifiers.

/// Identifier of a hardware thread (SMT context).
///
/// The evaluated machine supports up to four contexts, matching the paper's
/// workloads (2, 3 and 4 threads; Section 4 explains why larger workloads are
/// not considered). The identifier is a dense index usable directly for
/// per-thread storage.
///
/// # Examples
///
/// ```
/// use smt_isa::ThreadId;
///
/// let t = ThreadId::new(2);
/// assert_eq!(t.index(), 2);
/// assert_eq!(t.to_string(), "T2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(u8);

impl ThreadId {
    /// Maximum number of hardware contexts supported by the simulator.
    pub const MAX_THREADS: usize = 8;

    /// Creates a thread identifier.
    ///
    /// # Panics
    ///
    /// Panics if `index >= ThreadId::MAX_THREADS`.
    #[inline]
    pub fn new(index: usize) -> Self {
        assert!(
            index < Self::MAX_THREADS,
            "thread index {index} exceeds MAX_THREADS ({})",
            Self::MAX_THREADS
        );
        ThreadId(index as u8)
    }

    /// Dense index of this thread, in `0..MAX_THREADS`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterator over the first `n` thread identifiers.
    ///
    /// # Panics
    ///
    /// Panics if `n > ThreadId::MAX_THREADS`.
    pub fn first(n: usize) -> impl Iterator<Item = ThreadId> {
        assert!(n <= Self::MAX_THREADS);
        (0..n).map(ThreadId::new)
    }
}

impl From<ThreadId> for usize {
    #[inline]
    fn from(t: ThreadId) -> usize {
        t.index()
    }
}

impl std::fmt::Display for ThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_and_index_round_trip() {
        for i in 0..ThreadId::MAX_THREADS {
            assert_eq!(ThreadId::new(i).index(), i);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_THREADS")]
    fn new_rejects_out_of_range() {
        let _ = ThreadId::new(ThreadId::MAX_THREADS);
    }

    #[test]
    fn first_yields_dense_ids() {
        let ids: Vec<usize> = ThreadId::first(4).map(|t| t.index()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(ThreadId::new(0).to_string(), "T0");
        assert_eq!(ThreadId::new(3).to_string(), "T3");
    }
}
