//! Work migration (§5.3): calling contexts that follow tasks across
//! threads.
//!
//! A producer enqueues tasks from meaningful calling contexts; a pool of
//! executor threads runs them. Without migration support, a sample taken
//! inside an executor decodes to `executor -> task_body` — useless for
//! attributing the work. With [`dacce::Tracker::capture_task`] /
//! `ThreadHandle::adopt`, the origin context travels with the task, and
//! samples decode to the *logical* context:
//! `main -> producer_path -> (handoff) -> executor frames`.
//!
//! ```text
//! cargo run --release --example task_pool
//! ```

use std::collections::VecDeque;
use std::sync::Mutex;

use dacce::{TaskContext, Tracker};

struct Task {
    name: &'static str,
    origin: TaskContext,
}

fn main() {
    let tracker = Tracker::new();
    let f_main = tracker.define_function("main");
    let f_ingest = tracker.define_function("ingest");
    let f_render = tracker.define_function("render");
    let f_executor = tracker.define_function("executor");
    let f_work = tracker.define_function("do_work");
    let s_ingest = tracker.define_call_site();
    let s_render = tracker.define_call_site();
    let s_handoff = tracker.define_call_site();
    let s_spawn = tracker.define_call_site();
    let s_work = tracker.define_call_site();

    let queue: Mutex<VecDeque<Task>> = Mutex::new(VecDeque::new());

    // Producer: enqueue tasks from two different calling contexts.
    let main_th = tracker.register_thread(f_main);
    {
        let _g = main_th.call(s_ingest, f_ingest);
        for _ in 0..3 {
            queue.lock().unwrap().push_back(Task {
                name: "parse-record",
                origin: main_th.capture_task(s_handoff),
            });
        }
    }
    {
        let _g = main_th.call(s_render, f_render);
        for _ in 0..2 {
            queue.lock().unwrap().push_back(Task {
                name: "rasterise-tile",
                origin: main_th.capture_task(s_handoff),
            });
        }
    }

    // Executors: adopt each task's origin context while running it.
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let tracker = &tracker;
            let queue = &queue;
            let main_th = &main_th;
            scope.spawn(move || {
                let th = tracker.register_spawned_thread(f_executor, main_th, s_spawn);
                loop {
                    let Some(task) = queue.lock().unwrap().pop_front() else {
                        break;
                    };
                    let _adopted = th.adopt(&task.origin);
                    let _g = th.call(s_work, f_work);
                    let ctx = th.sample();
                    println!(
                        "{:<15} attributed to: {}",
                        task.name,
                        tracker.format_path(&tracker.decode(&ctx).expect("decodes"))
                    );
                }
            });
        }
    });
}
