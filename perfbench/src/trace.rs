//! The benchmark's span recorder.
//!
//! A [`Tracer`] wraps each call into a layer's public API in a named
//! span (start, end, parent span, run id, CPU time) and records work
//! counts at the same boundaries. Everything stays in memory until the
//! run ends. A disabled tracer calls straight through, so untraced
//! passes pay one branch per layer call.

use crate::json::Json;
use crate::sys::process_cpu_s;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Building a workload's inputs.
    Setup,
    /// One timed pass over the inputs.
    Pass,
}

impl Phase {
    fn label(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Pass => "pass",
        }
    }
}

pub struct Span {
    pub name: &'static str,
    pub run: usize,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
    pub cpu_s: f64,
}

pub struct Run {
    pub phase: Phase,
    pub start_s: f64,
    pub end_s: f64,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
    runs: Vec<Run>,
    /// `(run, counter, amount)`.
    counts: Vec<(usize, &'static str, f64)>,
}

/// Per-layer totals, averaged per run of the phase the spans ran in.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layer {
    pub self_s: f64,
    pub total_s: f64,
    pub cpu_s: f64,
    pub calls: f64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    state: RefCell<State>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            state: RefCell::default(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let idx = {
            let mut st = self.state.borrow_mut();
            let run = st.runs.len().checked_sub(1).expect("span outside a run");
            let parent = st.stack.last().copied();
            let idx = st.spans.len();
            st.spans.push(Span {
                name,
                run,
                parent,
                start_s: self.now(),
                end_s: 0.0,
                cpu_s: process_cpu_s(),
            });
            st.stack.push(idx);
            idx
        };
        let out = f();
        let (end, cpu) = (self.now(), process_cpu_s());
        let mut st = self.state.borrow_mut();
        assert_eq!(st.stack.pop(), Some(idx), "spans close in order");
        let span = &mut st.spans[idx];
        span.end_s = end;
        span.cpu_s = cpu - span.cpu_s;
        out
    }

    /// Adds `amount` to the counter `name` in the current run.
    pub fn count(&self, name: &'static str, amount: f64) {
        if !self.on {
            return;
        }
        let mut st = self.state.borrow_mut();
        let run = st.runs.len().checked_sub(1).expect("count outside a run");
        st.counts.push((run, name, amount));
    }

    /// Runs `f` as one run (a set-up or a pass) of the trace.
    pub fn run<T>(&self, phase: Phase, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start_s = self.now();
        self.state.borrow_mut().runs.push(Run {
            phase,
            start_s,
            end_s: 0.0,
        });
        let out = f();
        let end = self.now();
        self.state.borrow_mut().runs.last_mut().expect("run").end_s = end;
        out
    }

    fn runs_in(&self, phase: Phase) -> f64 {
        let st = self.state.borrow();
        st.runs.iter().filter(|r| r.phase == phase).count().max(1) as f64
    }

    /// Self time, total time, CPU time and calls per span name, each
    /// averaged over the runs of its phase (a set-up layer per set-up,
    /// a pass layer per pass).
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let (setups, passes) = (self.runs_in(Phase::Setup), self.runs_in(Phase::Pass));
        let st = self.state.borrow();
        let mut child_s = vec![0.0; st.spans.len()];
        for s in &st.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.end_s - s.start_s;
            }
        }
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (i, s) in st.spans.iter().enumerate() {
            let per = match st.runs[s.run].phase {
                Phase::Setup => setups,
                Phase::Pass => passes,
            };
            let l = out.entry(s.name).or_default();
            let dur = s.end_s - s.start_s;
            l.self_s += (dur - child_s[i]) / per;
            l.total_s += dur / per;
            l.cpu_s += s.cpu_s / per;
            l.calls += 1.0 / per;
        }
        out
    }

    /// Counters summed per name, averaged over the runs of their phase.
    pub fn counts(&self) -> BTreeMap<&'static str, f64> {
        let (setups, passes) = (self.runs_in(Phase::Setup), self.runs_in(Phase::Pass));
        let st = self.state.borrow();
        let mut out = BTreeMap::new();
        for &(run, name, amount) in &st.counts {
            let per = match st.runs[run].phase {
                Phase::Setup => setups,
                Phase::Pass => passes,
            };
            *out.entry(name).or_insert(0.0) += amount / per;
        }
        out
    }

    /// Share of traced pass wall time that no top-level span covers.
    pub fn unaccounted_share(&self) -> f64 {
        let st = self.state.borrow();
        let in_pass = |run: usize| st.runs[run].phase == Phase::Pass;
        let wall: f64 = st
            .runs
            .iter()
            .filter(|r| r.phase == Phase::Pass)
            .map(|r| r.end_s - r.start_s)
            .sum();
        let covered: f64 = st
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && in_pass(s.run))
            .map(|s| s.end_s - s.start_s)
            .sum();
        if wall > 0.0 {
            (wall - covered) / wall
        } else {
            0.0
        }
    }

    /// Every run, span and count, for the trace file.
    pub fn to_json(&self) -> Json {
        let st = self.state.borrow();
        let runs = st
            .runs
            .iter()
            .enumerate()
            .map(|(id, r)| {
                Json::obj(vec![
                    ("id", Json::Int(id as i64)),
                    ("phase", Json::str(r.phase.label())),
                    ("start_s", Json::Num(r.start_s)),
                    ("end_s", Json::Num(r.end_s)),
                ])
            })
            .collect();
        let spans = st
            .spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::str(s.name)),
                    ("run", Json::Int(s.run as i64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Int(-1), |p| Json::Int(p as i64)),
                    ),
                    ("start_s", Json::Num(s.start_s)),
                    ("end_s", Json::Num(s.end_s)),
                    ("cpu_s", Json::Num(s.cpu_s)),
                ])
            })
            .collect();
        let counts = st
            .counts
            .iter()
            .map(|&(run, name, amount)| {
                Json::obj(vec![
                    ("run", Json::Int(run as i64)),
                    ("name", Json::str(name)),
                    ("amount", Json::Num(amount)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("runs", Json::Arr(runs)),
            ("spans", Json::Arr(spans)),
            ("counts", Json::Arr(counts)),
        ])
    }
}
