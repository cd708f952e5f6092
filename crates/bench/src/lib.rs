//! Shared plumbing for the table/figure binaries.
//!
//! Every binary accepts `--scale <f64>` (default 1.0) to multiply the
//! benchmark call budgets, `--out <dir>` (default `results/`) for CSV
//! output, and `--bench <substring>` to restrict the benchmark set. The
//! wall-clock benches under `benches/` share [`harness`].

pub mod harness;

use std::path::{Path, PathBuf};

use dacce_workloads::BenchSpec;

/// Parsed command-line options common to all experiment binaries.
#[derive(Clone, Debug)]
pub struct Options {
    /// Budget multiplier.
    pub scale: f64,
    /// Output directory for CSV artifacts.
    pub out: PathBuf,
    /// Substring filters on benchmark names (empty = all).
    pub filters: Vec<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scale: 1.0,
            out: PathBuf::from("results"),
            filters: Vec::new(),
        }
    }
}

impl Options {
    /// Parses `std::env::args`, panicking with usage on malformed input.
    pub fn from_args() -> Options {
        let mut opts = Options::default();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--scale" => {
                    let v = args.next().expect("--scale needs a value");
                    opts.scale = v.parse().expect("--scale needs a number");
                }
                "--out" => {
                    opts.out = PathBuf::from(args.next().expect("--out needs a dir"));
                }
                "--bench" => {
                    opts.filters
                        .push(args.next().expect("--bench needs a name"));
                }
                other => panic!("unknown argument {other}; use --scale/--out/--bench"),
            }
        }
        opts
    }

    /// Applies the name filters to a benchmark list.
    pub fn select(&self, specs: Vec<BenchSpec>) -> Vec<BenchSpec> {
        if self.filters.is_empty() {
            return specs;
        }
        specs
            .into_iter()
            .filter(|s| self.filters.iter().any(|f| s.name.contains(f)))
            .collect()
    }

    /// Writes a CSV artifact under the output directory.
    pub fn write_csv(&self, name: &str, content: &str) -> PathBuf {
        std::fs::create_dir_all(&self.out).expect("create output dir");
        let path = self.out.join(name);
        std::fs::write(&path, content).expect("write CSV");
        path
    }
}

/// Formats a path for user-facing logs.
pub fn display_path(p: &Path) -> String {
    p.display().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacce_workloads::all_benchmarks;

    #[test]
    fn filters_select_by_substring() {
        let opts = Options {
            filters: vec!["perl".into(), "x264".into()],
            ..Options::default()
        };
        let selected = opts.select(all_benchmarks());
        let names: Vec<&str> = selected.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["400.perlbench", "x264"]);
    }

    #[test]
    fn no_filters_selects_all() {
        let opts = Options::default();
        assert_eq!(opts.select(all_benchmarks()).len(), 41);
    }
}
