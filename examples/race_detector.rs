//! A miniature happens-before-free data-race *reporter* built on DACCE —
//! the paper's headline use case (§1: race detectors must record context
//! per memory access, and stack walking at every access is far too slow).
//!
//! Worker threads perform simulated shared-memory accesses. For every
//! access the detector logs `(address, thread, is_write, encoded context)` —
//! the encoded context being one integer plus a usually-empty stack, cheap
//! enough to record on *every* access. After the run, conflicting accesses
//! (same address, different threads, at least one write) are reported with
//! both *full calling contexts*, decoded on demand, across thread-creation
//! boundaries.
//!
//! ```text
//! cargo run --example race_detector
//! ```

use std::sync::Mutex;

use dacce::{EncodedContext, Tracker};
use dacce_program::ThreadId;

/// One logged shared-memory access.
struct Access {
    addr: usize,
    tid: ThreadId,
    write: bool,
    ctx: EncodedContext,
}

fn main() {
    let tracker = Tracker::new();
    let f_main = tracker.define_function("main");
    let f_worker = tracker.define_function("worker");
    let f_update = tracker.define_function("update_stats");
    let f_publish = tracker.define_function("publish_result");
    let s_spawn = tracker.define_call_site();
    let s_update = tracker.define_call_site();
    let s_publish = tracker.define_call_site();

    let log: Mutex<Vec<Access>> = Mutex::new(Vec::new());
    let main_thread = tracker.register_thread(f_main);

    std::thread::scope(|scope| {
        for w in 0..3usize {
            let tracker = &tracker;
            let log = &log;
            let main_thread = &main_thread;
            scope.spawn(move || {
                let th = tracker.register_spawned_thread(f_worker, main_thread, s_spawn);
                for i in 0..40usize {
                    // Each worker updates its own counter slot (no race)...
                    {
                        let _g = th.call(s_update, f_update);
                        log.lock().unwrap().push(Access {
                            addr: 0x1000 + w,
                            tid: th.id(),
                            write: true,
                            ctx: th.sample(),
                        });
                    }
                    // ...but every 13th iteration publishes to a shared
                    // slot without synchronisation (the race).
                    if i % 13 == 0 {
                        let _g = th.call(s_publish, f_publish);
                        log.lock().unwrap().push(Access {
                            addr: 0x2000,
                            tid: th.id(),
                            write: true,
                            ctx: th.sample(),
                        });
                    }
                }
            });
        }
    });

    // Offline analysis: group by address, report cross-thread write
    // conflicts with decoded contexts.
    let log = log.into_inner().unwrap();
    println!("logged {} accesses", log.len());
    let mut reported = 0;
    for (i, a) in log.iter().enumerate() {
        for b in log.iter().skip(i + 1) {
            if a.addr == b.addr && a.tid != b.tid && (a.write || b.write) && reported < 1 {
                reported += 1;
                println!("\nPOSSIBLE RACE on {:#x}:", a.addr);
                println!(
                    "  {} wrote at: {}",
                    a.tid,
                    tracker.format_path(&tracker.decode(&a.ctx).expect("decodes"))
                );
                println!(
                    "  {} wrote at: {}",
                    b.tid,
                    tracker.format_path(&tracker.decode(&b.ctx).expect("decodes"))
                );
            }
        }
    }
    assert!(reported > 0, "the seeded race must be found");

    let per_event_words: usize = log.iter().map(|a| a.ctx.space()).sum::<usize>() / log.len();
    println!(
        "\ncontext cost: ~{per_event_words} machine words/access (a full backtrace would be \
         the entire stack, walked at access time)"
    );
}
