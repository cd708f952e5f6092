//! `dacce-lint` — audit exported DACCE engine states.
//!
//! Usage: `dacce-lint [--metrics <prometheus-file>] [--dispatch] [--superops] [--degraded] <export-file>...`
//! or: `dacce-lint --fleet <tenant-export> <twin-export>`
//! or: `dacce-lint --postmortem <dump-file> [<export-file>...]`
//! or: `dacce-lint --fragments <journal-file> [<export-file>...]`
//! or: `dacce-lint --list-rules`
//!
//! Each argument is a `dacce-export v1` file (see `dacce::export`). Every
//! file is imported and run through the encoding verifier; findings are
//! printed with their rule id, severity and witness path. With
//! `--metrics`, a Prometheus document exported by the same run (e.g.
//! `dacce-top --prom-out`) is additionally cross-checked against each
//! export: dictionary counts, generation `maxID`s and the
//! traps/edges/re-encodes arithmetic must agree. With `--dispatch`, the
//! export's compiled dispatch table (the flat slot-indexed fast path) is
//! verified edge-for-edge against the latest dictionary (rule
//! `dispatch-table`). With `--superops`, every superop of the export's
//! compiled table is re-folded over the dispatch actions of its window
//! and checked against the net effect it memoizes (rule
//! `superop-net-effect`). With `--degraded`, the exported degraded-state
//! counters are checked for internal consistency (rule `degraded-state`).
//! With `--fleet`, exactly two exports are expected — a shared-lineage
//! fleet tenant and its standalone twin — and the pair is cross-checked
//! for identity (rule `fleet-twin`) on top of the per-file audits.
//! With `--postmortem`, a flight-recorder dump (`dacce-postmortem v1`,
//! see `dacce::DacceEngine::postmortem`) is validated for structure and
//! internal consistency (rules `postmortem-*`); export files are then
//! optional.
//! With `--fragments`, a recorded decode journal (`dacce-journal v1`,
//! see `dacce::fragment`) is parsed and its seam-seed chain is verified
//! by independent fragment replay (rules `fragment-journal`,
//! `fragment-seam`) — a clean run means the fragment-parallel decoder
//! proves every seam without serial fallbacks; export files are then
//! optional.
//! With `--list-rules`, prints the full rule catalogue (id, severity,
//! enabling flag, invariant) and exits. Exits 1 if any file fails to
//! parse or any finding — error **or** warning severity — is reported
//! (see `dacce_analyze::lint::exit_code`). Malformed input of any kind is
//! such a failure: the parsers report it with a line number and never
//! panic, so exit code 101 (a Rust panic) always means a bug in the
//! tool, not in its input. Usage errors exit 2.

use std::process::ExitCode;

use dacce_analyze::lint;
use dacce_analyze::metrics::{verify_metrics, PromDoc};
use dacce_analyze::postmortem::verify_postmortem;
use dacce_analyze::verifier::{
    verify_degraded, verify_dispatch, verify_export, verify_fleet_twin, verify_fragments,
    verify_superops,
};

fn main() -> ExitCode {
    let mut metrics: Option<String> = None;
    let mut postmortem: Option<String> = None;
    let mut fragments: Option<String> = None;
    let mut dispatch = false;
    let mut superops = false;
    let mut degraded = false;
    let mut fleet = false;
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--list-rules" {
            for r in lint::RULES {
                println!(
                    "{:22} {:8} [{}] {}",
                    r.id, r.severity, r.enabled_by, r.summary
                );
            }
            return ExitCode::SUCCESS;
        } else if arg == "--metrics" {
            match args.next() {
                Some(path) => metrics = Some(path),
                None => {
                    eprintln!("--metrics requires a file path");
                    return ExitCode::from(2);
                }
            }
        } else if arg == "--postmortem" {
            match args.next() {
                Some(path) => postmortem = Some(path),
                None => {
                    eprintln!("--postmortem requires a file path");
                    return ExitCode::from(2);
                }
            }
        } else if arg == "--fragments" {
            match args.next() {
                Some(path) => fragments = Some(path),
                None => {
                    eprintln!("--fragments requires a file path");
                    return ExitCode::from(2);
                }
            }
        } else if arg == "--dispatch" {
            dispatch = true;
        } else if arg == "--superops" {
            superops = true;
        } else if arg == "--degraded" {
            degraded = true;
        } else if arg == "--fleet" {
            fleet = true;
        } else {
            files.push(arg);
        }
    }
    if files.is_empty() && postmortem.is_none() && fragments.is_none() {
        eprintln!(
            "usage: dacce-lint [--metrics <prometheus-file>] [--dispatch] [--superops] \
             [--degraded] [--postmortem <dump-file>] [--fragments <journal-file>] \
             <export-file>... \
             | dacce-lint --fleet <tenant-export> <twin-export>"
        );
        return ExitCode::from(2);
    }
    if fleet && files.len() != 2 {
        eprintln!(
            "--fleet compares exactly two exports (tenant, standalone twin); got {}",
            files.len()
        );
        return ExitCode::from(2);
    }

    let mut errors = 0usize;
    let mut warnings = 0usize;

    let prom: Option<PromDoc> = match &metrics {
        None => None,
        Some(path) => match std::fs::read_to_string(path).map_err(|e| e.to_string()) {
            Ok(text) => match PromDoc::parse(&text) {
                Ok(doc) => Some(doc),
                Err(e) => {
                    eprintln!("{path}: malformed metrics export: {e}");
                    errors += 1;
                    None
                }
            },
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                errors += 1;
                None
            }
        },
    };

    if let Some(path) = &postmortem {
        match std::fs::read_to_string(path) {
            Ok(text) => {
                let diags = verify_postmortem(&text);
                for d in &diags {
                    println!("{path}: {d}");
                    if d.is_error() {
                        errors += 1;
                    } else {
                        warnings += 1;
                    }
                }
                if diags.is_empty() {
                    println!("{path}: postmortem ok");
                }
            }
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                errors += 1;
            }
        }
    }

    if let Some(path) = &fragments {
        match std::fs::read_to_string(path) {
            Ok(text) => {
                let diags = verify_fragments(&text);
                for d in &diags {
                    println!("{path}: {d}");
                    if d.is_error() {
                        errors += 1;
                    } else {
                        warnings += 1;
                    }
                }
                if diags.is_empty() {
                    println!("{path}: fragment seams ok");
                }
            }
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                errors += 1;
            }
        }
    }

    let mut decoders = Vec::with_capacity(files.len());
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{file}: cannot read: {e}");
                errors += 1;
                decoders.push(None);
                continue;
            }
        };
        let decoder = match dacce::import(&text) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("{file}: cannot import: {e}");
                errors += 1;
                decoders.push(None);
                continue;
            }
        };
        let mut diags = verify_export(&decoder);
        if let Some(doc) = &prom {
            diags.extend(verify_metrics(doc, &decoder));
        }
        if dispatch {
            if decoder.dispatch().is_empty() {
                eprintln!("{file}: --dispatch requested but export carries no dispatch records");
                errors += 1;
            }
            diags.extend(verify_dispatch(&decoder));
        }
        if superops {
            if decoder.superops().is_empty() {
                eprintln!("{file}: --superops requested but export carries no superop records");
                errors += 1;
            }
            diags.extend(verify_superops(&decoder));
        }
        if degraded {
            diags.extend(verify_degraded(&decoder));
        }
        for d in &diags {
            println!("{file}: {d}");
            if d.is_error() {
                errors += 1;
            } else {
                warnings += 1;
            }
        }
        if diags.is_empty() {
            println!(
                "{file}: ok ({} dictionaries, {} samples{})",
                decoder.dicts().len(),
                decoder.samples().len(),
                if prom.is_some() {
                    ", metrics consistent"
                } else {
                    ""
                }
            );
        }
        decoders.push(Some(decoder));
    }

    if fleet {
        if let [Some(tenant), Some(twin)] = &decoders[..] {
            let diags = verify_fleet_twin(tenant, twin);
            for d in &diags {
                println!("{} vs {}: {d}", files[0], files[1]);
                if d.is_error() {
                    errors += 1;
                } else {
                    warnings += 1;
                }
            }
            if diags.is_empty() {
                println!(
                    "{} vs {}: fleet twin ok (shared-lineage export matches standalone twin)",
                    files[0], files[1]
                );
            }
        }
    }
    println!(
        "dacce-lint: {} file(s), {errors} error(s), {warnings} warning(s)",
        files.len()
    );
    ExitCode::from(lint::exit_code(errors, warnings))
}
