//! The drive plan: each recorded thread's stream cut, before any timing,
//! into the calls the measured drive makes — `run_batch` windows, guard
//! calls and drops for the deep spine, and decode points.
//!
//! The cut follows the batched replay of `dacce_workloads::batch`: a call
//! whose matching return lies within [`BATCH_WINDOW`] ops is queued, and
//! the queue is flushed once it is balanced and at least a window long;
//! any other call is a guard. Decode points fall at the first flush or
//! guard op at or after every [`SAMPLE_EVERY`] ops of the thread, and at
//! thread exit before the open spine is unwound, so they depend on the
//! trace alone. The tracker defines every function and site id in order,
//! so trace ids are tracker ids and the plan is built once per run.

use dacce::BatchOp;
use dacce_callgraph::{CallSiteId, FunctionId};
use dacce_program::ThreadId;
use dacce_workloads::batch::{ThreadStart, TraceOp, WorkloadTrace};

/// Ops folded into one `run_batch` call, as in the batched replay.
pub const BATCH_WINDOW: usize = 64;

/// A decode point is due every this many replayed ops of a thread (prime,
/// like the chaos harness cadence).
const SAMPLE_EVERY: usize = 127;

/// One call of the drive into the tracker.
#[derive(Clone, Copy, Debug)]
pub enum Step {
    /// `run_batch` over `batch[start..end]` of the thread.
    Batch {
        /// First op of the window run.
        start: usize,
        /// One past its last op.
        end: usize,
    },
    /// A guard call (`call` or `call_indirect`) for a spine frame.
    Call {
        /// The call site.
        site: CallSiteId,
        /// The callee.
        target: FunctionId,
        /// Whether the site dispatches indirectly.
        indirect: bool,
    },
    /// Dropping the innermost guard.
    Ret,
    /// `sample` + `decode` + `format_path`.
    Sample,
}

/// The plan of one recorded thread.
pub struct ThreadPlan {
    /// The recorded thread id.
    pub tid: ThreadId,
    /// Its root function.
    pub root: FunctionId,
    /// Index of the parent's plan and the spawn site, for spawned threads.
    pub parent: Option<(usize, CallSiteId)>,
    /// The ops of every batched window, in order.
    pub batch: Vec<BatchOp>,
    /// The calls of the drive, in order.
    pub steps: Vec<Step>,
    /// For each `Step::Sample`, the number of trace ops applied before it.
    pub sample_at: Vec<usize>,
    /// Ops replayed through `run_batch`.
    pub batched_ops: usize,
    /// Guard calls and drops, including the exit unwind of the spine.
    pub guard_ops: usize,
}

/// Plans the drive of every thread of `trace`, in start order.
///
/// # Panics
///
/// Panics on a return without an open call or a parent that starts after
/// its child.
pub fn plan(trace: &WorkloadTrace) -> Vec<ThreadPlan> {
    let mut plans: Vec<ThreadPlan> = Vec::with_capacity(trace.threads.len());
    for &ThreadStart { tid, root, parent } in &trace.threads {
        let parent = parent.map(|(ptid, site)| {
            let idx = plans
                .iter()
                .position(|p| p.tid == ptid)
                .expect("parents start before their children");
            (idx, site)
        });
        plans.push(plan_thread(tid, root, parent, &trace.traces[&tid]));
    }
    plans
}

fn plan_thread(
    tid: ThreadId,
    root: FunctionId,
    parent: Option<(usize, CallSiteId)>,
    ops: &[TraceOp],
) -> ThreadPlan {
    let mut match_ret = vec![usize::MAX; ops.len()];
    let mut open = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            TraceOp::Call { .. } => open.push(i),
            TraceOp::Ret => match_ret[open.pop().expect("return matches a call")] = i,
        }
    }

    let mut p = ThreadPlan {
        tid,
        root,
        parent,
        batch: Vec::new(),
        steps: Vec::new(),
        sample_at: Vec::new(),
        batched_ops: 0,
        guard_ops: 0,
    };
    let mut queued_from = 0usize;
    let mut queue_depth = 0usize;
    let mut spine = 0usize;
    let mut done = 0usize;
    let mut next_sample = SAMPLE_EVERY;

    // Flushes the queued windows, then places a decode point if one is due.
    let flush = |p: &mut ThreadPlan, queued_from: &mut usize, done: &mut usize| {
        let end = p.batch.len();
        if end > *queued_from {
            p.steps.push(Step::Batch {
                start: *queued_from,
                end,
            });
            p.batched_ops += end - *queued_from;
            *done += end - *queued_from;
            *queued_from = end;
        }
    };
    let sample_due = |p: &mut ThreadPlan, done: usize, next_sample: &mut usize| {
        if done >= *next_sample {
            while *next_sample <= done {
                *next_sample += SAMPLE_EVERY;
            }
            p.steps.push(Step::Sample);
            p.sample_at.push(done);
        }
    };

    for (i, op) in ops.iter().enumerate() {
        match *op {
            TraceOp::Call {
                site,
                target,
                indirect,
            } => {
                let j = match_ret[i];
                if j != usize::MAX && j - i < BATCH_WINDOW {
                    p.batch.push(if indirect {
                        BatchOp::CallIndirect { site, target }
                    } else {
                        BatchOp::Call { site, target }
                    });
                    queue_depth += 1;
                } else {
                    debug_assert_eq!(queue_depth, 0, "far calls only occur between windows");
                    flush(&mut p, &mut queued_from, &mut done);
                    p.steps.push(Step::Call {
                        site,
                        target,
                        indirect,
                    });
                    p.guard_ops += 1;
                    spine += 1;
                    done += 1;
                    sample_due(&mut p, done, &mut next_sample);
                }
            }
            TraceOp::Ret if queue_depth > 0 => {
                p.batch.push(BatchOp::Ret);
                queue_depth -= 1;
                if queue_depth == 0 && p.batch.len() - queued_from >= BATCH_WINDOW {
                    flush(&mut p, &mut queued_from, &mut done);
                    sample_due(&mut p, done, &mut next_sample);
                }
            }
            TraceOp::Ret => {
                flush(&mut p, &mut queued_from, &mut done);
                p.steps.push(Step::Ret);
                p.guard_ops += 1;
                spine -= 1;
                done += 1;
                sample_due(&mut p, done, &mut next_sample);
            }
        }
    }
    flush(&mut p, &mut queued_from, &mut done);
    debug_assert_eq!(done, ops.len());
    // The exit decode point, taken with the spine still open: a thread the
    // recording cut mid-stack reports its open frames.
    if !ops.is_empty() {
        p.steps.push(Step::Sample);
        p.sample_at.push(done);
    }
    for _ in 0..spine {
        p.steps.push(Step::Ret);
        p.guard_ops += 1;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(site: u32, target: u32) -> TraceOp {
        TraceOp::Call {
            site: CallSiteId::new(site),
            target: FunctionId::new(target),
            indirect: false,
        }
    }

    #[test]
    fn short_frames_batch_and_the_spine_guards() {
        // One spine frame around 100 short leaf pairs, then a frame left
        // open at exit.
        let mut ops = vec![call(0, 1)];
        for _ in 0..100 {
            ops.extend([call(1, 2), TraceOp::Ret]);
        }
        ops.extend([TraceOp::Ret, call(0, 1)]);
        let p = plan_thread(ThreadId::MAIN, FunctionId::new(0), None, &ops);
        assert_eq!(p.batched_ops, 200);
        assert_eq!(p.guard_ops, 4, "two calls, one return, one exit unwind");
        assert_eq!(p.batched_ops + p.guard_ops, ops.len() + 1);
        assert!(matches!(p.steps[0], Step::Call { .. }));
        assert!(matches!(p.steps.last(), Some(Step::Ret)));
        // Decode points: the first flush past 127 ops, and exit.
        assert_eq!(p.sample_at.len(), 2);
        assert!(p.sample_at[0] >= SAMPLE_EVERY && p.sample_at[0] < SAMPLE_EVERY + BATCH_WINDOW);
        assert_eq!(p.sample_at[1], ops.len());
        let samples = p.steps.iter().filter(|s| matches!(s, Step::Sample)).count();
        assert_eq!(samples, p.sample_at.len());
    }

    #[test]
    fn batches_are_balanced() {
        let mut ops = Vec::new();
        for d in 0..10u32 {
            ops.push(call(d, d + 1));
        }
        ops.extend([TraceOp::Ret; 10]);
        let p = plan_thread(ThreadId::MAIN, FunctionId::new(0), None, &ops);
        for s in &p.steps {
            if let Step::Batch { start, end } = *s {
                let calls = p.batch[start..end]
                    .iter()
                    .filter(|op| !matches!(op, BatchOp::Ret))
                    .count();
                assert_eq!(calls * 2, end - start);
            }
        }
        assert_eq!(p.batched_ops, 20);
    }
}
