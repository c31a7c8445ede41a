//! In-memory span recorder of the traced run.  Spans are recorded from the
//! benchmark's side of each public call into a layer; nothing inside the
//! program under test is instrumented.  Everything here runs on the one
//! generator thread, so the recorder is a plain `&mut` value.

use crate::json::Json;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the recorder was created.
    pub start: f64,
    pub end: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one build, sweep or request share an id.
    pub work: u64,
}

pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    work: u64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            work: 0,
        }
    }

    /// Seconds since the recorder was created.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Start a new unit of work (one build, one sweep, one operation);
    /// spans opened until the next call carry its id.
    pub fn next_work(&mut self) -> u64 {
        self.work += 1;
        self.work
    }

    /// Units of work started so far.
    pub fn work_units(&self) -> u64 {
        self.work
    }

    pub fn begin(&mut self, name: &'static str) -> usize {
        let at = self.now();
        self.spans.push(Span {
            name,
            start: at,
            end: f64::NAN,
            parent: self.open.last().copied(),
            work: self.work,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`; returns its length.
    pub fn end(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let at = self.now();
        self.spans[id].end = at;
        at - self.spans[id].start
    }

    /// One call into a layer as a span; returns the result and its seconds.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name);
        let out = f();
        (out, self.end(id))
    }

    /// A finished span whose start and end were read elsewhere (a request
    /// whose reply was collected later), as offsets from `origin`.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        work: u64,
    ) {
        self.spans.push(Span {
            name,
            start: start.duration_since(self.origin).as_secs_f64(),
            end: end.duration_since(self.origin).as_secs_f64(),
            parent,
            work,
        });
    }

    /// Sum of the lengths of the spans that have no parent.
    pub fn top_level_seconds(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Self time per span name: a span's length minus what its children cover.
    pub fn self_times(&self) -> Vec<(&'static str, f64, usize)> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end - s.start;
            }
        }
        let mut by_name: Vec<(&'static str, f64, usize)> = Vec::new();
        for (s, t) in self.spans.iter().zip(own) {
            match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(entry) => {
                    entry.1 += t;
                    entry.2 += 1;
                }
                None => by_name.push((s.name, t, 1)),
            }
        }
        by_name
    }

    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj(vec![
                    ("id", Json::Num(id as f64)),
                    ("name", Json::str(s.name)),
                    ("start_s", Json::Num(s.start)),
                    ("end_s", Json::Num(s.end)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("work", Json::Num(s.work as f64)),
                ])
            })
            .collect();
        let self_times = self
            .self_times()
            .into_iter()
            .map(|(name, secs, count)| {
                Json::obj(vec![
                    ("name", Json::str(name)),
                    ("self_s", Json::Num(secs)),
                    ("spans", Json::Num(count as f64)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::str("matrox-benchmark-trace/1")),
            ("workload", Json::str(workload)),
            ("top_level_s", Json::Num(self.top_level_seconds())),
            ("self_time_by_name", Json::Arr(self_times)),
            ("spans", Json::Arr(spans)),
        ])
    }
}
