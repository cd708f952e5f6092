//! The reference every decoded context is checked against, derived from
//! the recorded [`WorkloadTrace`] alone — it never consults a tracker.
//!
//! The benchmark replays threads one after another in start order, so a
//! child registers after its parent's whole stream ran and its open frames
//! were unwound: the child's context starts with its parent's root context
//! (the parent's own spawn chain plus its root), then the spawn site into
//! the child's root, then the child's stack of open calls.

use std::collections::HashMap;

use dacce_program::{ContextPath, PathStep, ThreadId};
use dacce_workloads::batch::{TraceOp, WorkloadTrace};

/// Expected contexts of one recorded trace.
pub struct TraceOracle<'a> {
    trace: &'a WorkloadTrace,
    /// Each thread's root context: its spawn chain plus its root step.
    roots: HashMap<ThreadId, Vec<PathStep>>,
}

impl<'a> TraceOracle<'a> {
    /// Builds the per-thread root contexts from the spawn topology.
    ///
    /// # Panics
    ///
    /// Panics if a thread's parent starts after it.
    pub fn new(trace: &'a WorkloadTrace) -> Self {
        let mut roots: HashMap<ThreadId, Vec<PathStep>> = HashMap::new();
        for start in &trace.threads {
            let path = match start.parent {
                None => vec![PathStep {
                    site: None,
                    func: start.root,
                }],
                Some((parent, site)) => {
                    let mut path = roots
                        .get(&parent)
                        .expect("parents start before their children")
                        .clone();
                    path.push(PathStep {
                        site: Some(site),
                        func: start.root,
                    });
                    path
                }
            };
            roots.insert(start.tid, path);
        }
        TraceOracle { trace, roots }
    }

    /// The contexts of thread `tid` after the first `pos` ops of its stream,
    /// for each of the non-decreasing `positions` (at most the stream's
    /// length).
    ///
    /// # Panics
    ///
    /// Panics on an unknown thread, a position past the stream's end,
    /// decreasing positions, or a return without an open call.
    pub fn paths_at(&self, tid: ThreadId, positions: &[usize]) -> Vec<ContextPath> {
        let ops = &self.trace.traces[&tid];
        let mut stack = self.roots[&tid].clone();
        let mut applied = 0usize;
        let mut out = Vec::with_capacity(positions.len());
        for &pos in positions {
            assert!(
                pos >= applied && pos <= ops.len(),
                "position {pos} out of order"
            );
            for op in &ops[applied..pos] {
                match *op {
                    TraceOp::Call { site, target, .. } => stack.push(PathStep {
                        site: Some(site),
                        func: target,
                    }),
                    TraceOp::Ret => {
                        assert!(
                            stack.len() > self.roots[&tid].len(),
                            "{tid}: return without an open call"
                        );
                        stack.pop();
                    }
                }
            }
            applied = pos;
            out.push(ContextPath(stack.clone()));
        }
        out
    }
}

/// Checks decoded paths whose ids were assigned by another tracker (the
/// journal recorder defines functions and sites in its own order) against
/// oracle paths: the two id spaces must be related by one consistent
/// one-to-one renaming across every line checked.
#[derive(Default)]
pub struct Renaming {
    fns: HashMap<u32, u32>,
    fns_back: HashMap<u32, u32>,
    sites: HashMap<u32, u32>,
    sites_back: HashMap<u32, u32>,
}

fn bind(fwd: &mut HashMap<u32, u32>, back: &mut HashMap<u32, u32>, from: u32, to: u32) -> bool {
    *fwd.entry(from).or_insert(to) == to && *back.entry(to).or_insert(from) == from
}

impl Renaming {
    /// Whether `rendered` (a path as `ContextPath::display` renders it with
    /// `f<id>` names, e.g. `f0 -(cs3)-> f7`) is `expected` under the
    /// renaming built so far, extending it with any ids seen first here.
    pub fn matches(&mut self, rendered: &str, expected: &ContextPath) -> bool {
        let Some(steps) = parse_rendered(rendered) else {
            return false;
        };
        steps.len() == expected.0.len()
            && steps.iter().zip(&expected.0).all(|(&(site, func), want)| {
                let site_ok = match (site, want.site) {
                    (None, None) => true,
                    (Some(s), Some(w)) => bind(&mut self.sites, &mut self.sites_back, s, w.raw()),
                    _ => false,
                };
                site_ok && bind(&mut self.fns, &mut self.fns_back, func, want.func.raw())
            })
    }
}

/// Parses `f0 -(cs3)-> f7 -> f9` into `(site, function)` raw ids.
fn parse_rendered(text: &str) -> Option<Vec<(Option<u32>, u32)>> {
    let mut steps = Vec::new();
    let mut rest = text;
    let mut site = None;
    loop {
        let end = rest.find(' ').unwrap_or(rest.len());
        steps.push((site, rest[..end].strip_prefix('f')?.parse().ok()?));
        rest = &rest[end..];
        if rest.is_empty() {
            return Some(steps);
        }
        if let Some(r) = rest.strip_prefix(" -> ") {
            site = None;
            rest = r;
        } else {
            let r = rest.strip_prefix(" -(cs")?;
            let close = r.find(")-> ")?;
            site = Some(r[..close].parse().ok()?);
            rest = &r[close + 4..];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacce_callgraph::{CallSiteId, FunctionId};
    use dacce_workloads::batch::ThreadStart;

    fn call(site: u32, target: u32) -> TraceOp {
        TraceOp::Call {
            site: CallSiteId::new(site),
            target: FunctionId::new(target),
            indirect: false,
        }
    }

    fn step(site: Option<u32>, func: u32) -> PathStep {
        PathStep {
            site: site.map(CallSiteId::new),
            func: FunctionId::new(func),
        }
    }

    /// main (f0) spawns t1 (f10) at cs90; t1 spawns t2 (f20) at cs91 and
    /// recurses through f11; t2 exits with two frames still open.
    fn hand_built() -> WorkloadTrace {
        let t = |n| ThreadId::new(n);
        let mut burst = vec![call(3, 11)];
        burst.extend([call(4, 11), call(4, 11), call(4, 11)]);
        burst.extend([TraceOp::Ret; 4]);
        WorkloadTrace {
            threads: vec![
                ThreadStart {
                    tid: t(0),
                    root: FunctionId::new(0),
                    parent: None,
                },
                ThreadStart {
                    tid: t(1),
                    root: FunctionId::new(10),
                    parent: Some((t(0), CallSiteId::new(90))),
                },
                ThreadStart {
                    tid: t(2),
                    root: FunctionId::new(20),
                    parent: Some((t(1), CallSiteId::new(91))),
                },
            ],
            traces: [
                (
                    t(0),
                    vec![call(1, 1), call(2, 2), TraceOp::Ret, TraceOp::Ret],
                ),
                (t(1), burst),
                (
                    t(2),
                    vec![call(5, 21), TraceOp::Ret, call(5, 21), call(6, 22)],
                ),
            ]
            .into_iter()
            .collect(),
        }
    }

    #[test]
    fn main_thread_follows_its_open_calls() {
        let trace = hand_built();
        let oracle = TraceOracle::new(&trace);
        let got = oracle.paths_at(ThreadId::new(0), &[0, 1, 2, 3, 4]);
        assert_eq!(got[0].0, vec![step(None, 0)]);
        assert_eq!(got[1].0, vec![step(None, 0), step(Some(1), 1)]);
        assert_eq!(
            got[2].0,
            vec![step(None, 0), step(Some(1), 1), step(Some(2), 2)]
        );
        assert_eq!(got[3], got[1]);
        assert_eq!(got[4], got[0]);
    }

    #[test]
    fn recursion_burst_keeps_every_frame() {
        let trace = hand_built();
        let oracle = TraceOracle::new(&trace);
        let got = oracle.paths_at(ThreadId::new(1), &[4, 4, 8]);
        let root = vec![step(None, 0), step(Some(90), 10)];
        let mut deep = root.clone();
        deep.push(step(Some(3), 11));
        deep.extend([step(Some(4), 11); 3]);
        assert_eq!(got[0].0, deep, "three recursive frames over the entry");
        assert_eq!(got[1], got[0], "repeated positions repeat the path");
        assert_eq!(got[2].0, root);
    }

    #[test]
    fn nested_spawn_chains_through_the_parents_root() {
        let trace = hand_built();
        let oracle = TraceOracle::new(&trace);
        let got = oracle.paths_at(ThreadId::new(2), &[0, 2]);
        let chain = vec![step(None, 0), step(Some(90), 10), step(Some(91), 20)];
        assert_eq!(got[0].0, chain);
        assert_eq!(got[1].0, chain, "call and return leave the root context");
    }

    #[test]
    fn thread_exiting_mid_stack_reports_its_open_frames() {
        let trace = hand_built();
        let oracle = TraceOracle::new(&trace);
        let got = oracle.paths_at(ThreadId::new(2), &[4]);
        assert_eq!(
            got[0].0,
            vec![
                step(None, 0),
                step(Some(90), 10),
                step(Some(91), 20),
                step(Some(5), 21),
                step(Some(6), 22),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn positions_past_the_stream_are_refused() {
        let trace = hand_built();
        TraceOracle::new(&trace).paths_at(ThreadId::new(0), &[5]);
    }

    #[test]
    fn renaming_accepts_a_consistent_relabelling_only() {
        let want = ContextPath(vec![step(None, 0), step(Some(90), 10), step(Some(3), 11)]);
        let mut r = Renaming::default();
        assert!(r.matches("f4 -(cs0)-> f5 -(cs1)-> f6", &want));
        assert!(r.matches("f4 -(cs0)-> f5 -(cs1)-> f6", &want), "stable");
        // f6 is already bound to trace f11; binding it to f10 is refused.
        let other = ContextPath(vec![step(None, 0), step(Some(90), 10)]);
        assert!(!r.matches("f4 -(cs0)-> f6", &other));
        // A second name for trace f0 is refused too.
        assert!(!Renaming::default().matches("f1 -(cs0)-> f1", &other));
        assert!(!r.matches("f4 -(cs0)-> f5", &want), "depth must match");
        assert!(
            !r.matches("f4 -> f5", &other),
            "root-style edge where a site is due"
        );
        assert!(!r.matches("decode-error bad id", &want));
    }

    #[test]
    fn rendered_paths_parse() {
        assert_eq!(parse_rendered("f3"), Some(vec![(None, 3)]));
        assert_eq!(
            parse_rendered("f0 -(cs12)-> f7 -> f9"),
            Some(vec![(None, 0), (Some(12), 7), (None, 9)])
        );
        assert_eq!(parse_rendered("f0 -(cs1"), None);
        assert_eq!(parse_rendered(""), None);
    }
}
