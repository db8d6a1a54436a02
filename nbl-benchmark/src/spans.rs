//! The traced run's span recorder. Spans are taken from outside the
//! simulator: each one wraps a call into one layer's public API. They are
//! kept in memory and analysed (or written out) when the run ends.

use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// One timed call: `[start, end)` in nanoseconds since the recorder's
/// origin, on the thread that made it.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name (`driver.replay`, `store.tape_write`, ...).
    pub name: &'static str,
    /// Index of the enclosing span, if any (may live on another thread:
    /// a pool job's parent is the pool call that ran it).
    pub parent: Option<usize>,
    /// Traced pass this span belongs to (0 = setup, 1.. = passes).
    pub pass: u32,
    /// The thread that made the call.
    pub thread: ThreadId,
    /// Start, ns since the recorder origin.
    pub start: u64,
    /// End, ns since the recorder origin.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Thread-safe in-memory span log.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn log(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("span log lock poisoned")
    }

    /// Opens a span; close it with [`Recorder::exit`].
    pub fn enter(&self, name: &'static str, parent: Option<usize>, pass: u32) -> usize {
        let start = self.now();
        let mut log = self.log();
        log.push(Span {
            name,
            parent,
            pass,
            thread: std::thread::current().id(),
            start,
            end: start,
        });
        log.len() - 1
    }

    /// Closes span `id`.
    pub fn exit(&self, id: usize) {
        let end = self.now();
        if let Some(span) = self.log().get_mut(id) {
            span.end = end;
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// it can parent nested calls.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        pass: u32,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let id = self.enter(name, parent, pass);
        let out = f(id);
        self.exit(id);
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.log().clone()
    }
}

/// Total length of the union of `intervals` (overlaps counted once).
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children counted once, children
/// clipped to the parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.len() - union_len(kids).min(s.len()))
        .collect()
}

/// Spans as JSON lines (one object per span) for `--spans FILE`.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut threads: Vec<ThreadId> = Vec::new();
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let worker = threads
            .iter()
            .position(|&t| t == s.thread)
            .unwrap_or_else(|| {
                threads.push(s.thread);
                threads.len() - 1
            });
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"pass\":{},\"worker\":{worker},\"start_ns\":{},\"end_ns\":{}}}\n",
            s.name, s.pass, s.start, s.end
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            pass: 1,
            thread: std::thread::current().id(),
            start,
            end,
        }
    }

    #[test]
    fn union_counts_overlap_once() {
        assert_eq!(union_len(&mut []), 0);
        assert_eq!(union_len(&mut [(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(&mut [(20, 25), (0, 10), (10, 12)]), 17);
    }

    #[test]
    fn self_time_with_overlapping_children() {
        // A pool call [0, 100) whose two workers run overlapping jobs
        // [10, 60) and [40, 90): the children cover [10, 90), so the
        // call's own time is 20, not 100 - 50 - 50 = 0.
        let spans = vec![
            span("pool.call", None, 0, 100),
            span("sweep.job", Some(0), 10, 60),
            span("sweep.job", Some(0), 40, 90),
            // A grandchild inside the first job, and one that sticks out
            // of its parent (clipped to the parent's interval).
            span("driver.replay", Some(1), 20, 50),
            span("driver.replay", Some(2), 80, 95),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![20, 20, 40, 30, 15]);
    }

    #[test]
    fn recorder_nests_and_closes_spans() {
        let rec = Recorder::default();
        rec.time("outer", None, 0, |outer| {
            rec.time("inner", Some(outer), 0, |_| std::hint::black_box(1 + 1))
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert!(to_json_lines(&spans).lines().count() == 2);
    }
}
