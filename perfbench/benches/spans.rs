//! In-memory spans for the traced run: recorded by the benchmark around its
//! own calls into each layer, kept in memory, and written out at the end.

use std::fmt::Write as _;
use std::time::Instant;

/// Seconds since a fixed origin; every span of a pass shares one clock.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    pub fn now(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// One timed interval. Its id is its index in the span list; `parent` is
/// the id of the span that caused it, and `run` the spec index that all
/// spans of one run share.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub run: Option<usize>,
    pub worker: usize,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Appends `src` (ids local to `src`) to `dst`, re-basing ids; spans of
/// `src` without a parent become children of `root`.
pub fn append(dst: &mut Vec<Span>, src: Vec<Span>, root: usize) {
    let base = dst.len();
    dst.extend(src.into_iter().map(|mut s| {
        s.parent = Some(s.parent.map_or(root, |p| p + base));
        s
    }));
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may overlap (runs on parallel
/// workers), so the covered part is the length of their union.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(kids) = s.parent.and_then(|p| children.get_mut(p)) {
            kids.push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Idle time at the end of a batch of `completions.len()` runs on
/// `workers` workers: the batch end minus the (N - w + 1)-th completion,
/// where w is the number of workers the engine actually starts
/// (`min(workers, N)`). After that completion some worker has no run left.
pub fn tail_idle(end: f64, completions: &[f64], workers: usize) -> f64 {
    if completions.is_empty() {
        return 0.0;
    }
    let mut sorted = completions.to_vec();
    sorted.sort_by(f64::total_cmp);
    let w = workers.clamp(1, sorted.len());
    sorted
        .get(sorted.len() - w)
        .map_or(0.0, |&t| (end - t).max(0.0))
}

/// Prints each span name's count, total time and self time.
pub fn print_summary(title: &str, spans: &[Span]) {
    println!("{title} spans: name, count, total s, self s");
    for (name, n, total, own) in summary(spans) {
        println!("  {name:<22} {n:>6} {total:>10.4} {own:>10.4}");
    }
}

/// Per span name: (name, count, total seconds, self seconds), in order of
/// first appearance.
pub fn summary(spans: &[Span]) -> Vec<(String, usize, f64, f64)> {
    let selfs = self_times(spans);
    let mut rows: Vec<(String, usize, f64, f64)> = Vec::new();
    for (s, own) in spans.iter().zip(selfs) {
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += s.duration();
                r.3 += own;
            }
            None => rows.push((s.name.clone(), 1, s.duration(), own)),
        }
    }
    rows
}

/// JSON lines, one span per line, tagged with the pass that recorded it.
pub fn to_jsonl(pass: &str, spans: &[Span]) -> String {
    let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let _ = writeln!(
            out,
            "{{\"pass\":\"{pass}\",\"id\":{id},\"parent\":{},\"run\":{},\"name\":\"{}\",\"worker\":{},\"start_s\":{},\"end_s\":{}}}",
            opt(s.parent),
            opt(s.run),
            s.name,
            s.worker,
            s.start,
            s.end
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name: name.into(),
            parent,
            run: None,
            worker: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("batch", None, 0.0, 10.0),
            // Two overlapping runs on parallel workers: union is [1, 7].
            span("run", Some(0), 1.0, 5.0),
            span("run", Some(0), 3.0, 7.0),
            // A child sticking out of its parent only counts inside it.
            span("run", Some(0), 9.0, 12.0),
            span("prewarm", Some(1), 1.0, 2.0),
            span("measure", Some(1), 2.5, 5.0),
        ];
        let selfs = self_times(&spans);
        let expect = [10.0 - 6.0 - 1.0, 4.0 - 3.5, 4.0, 3.0, 1.0, 2.5];
        for (got, want) in selfs.iter().zip(expect) {
            assert!((got - want).abs() < 1e-12, "{selfs:?}");
        }
        let rows = summary(&spans);
        assert_eq!(rows[1].0, "run");
        assert_eq!(rows[1].1, 3);
        assert!((rows[1].2 - 11.0).abs() < 1e-12);
        assert!((rows[1].3 - 7.5).abs() < 1e-12);
    }

    #[test]
    fn tail_idle_counts_from_the_first_worker_to_run_dry() {
        // Five runs on two workers: after the 4th completion (t = 6) only
        // one run is left, so one worker idles until the end (t = 9).
        let done = [2.0, 6.0, 1.0, 9.0, 4.0];
        assert!((tail_idle(9.0, &done, 2) - 3.0).abs() < 1e-12);
        // One worker never idles before the last completion.
        assert_eq!(tail_idle(9.0, &done, 1), 0.0);
        // Fewer runs than workers: the engine starts only N workers.
        assert!((tail_idle(5.0, &[1.0, 5.0], 8) - 4.0).abs() < 1e-12);
        assert_eq!(tail_idle(5.0, &[], 2), 0.0);
    }

    #[test]
    fn append_rebases_ids_and_roots_orphans() {
        let mut all = vec![span("batch", None, 0.0, 4.0)];
        let local = vec![
            span("run", None, 0.0, 2.0),
            span("prewarm", Some(0), 0.0, 1.0),
        ];
        append(&mut all, local, 0);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[2].parent, Some(1));
    }
}
