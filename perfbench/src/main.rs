//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload million-cold --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Workloads (see `perfbench/README.md` for why each was chosen):
//!
//! * `million-cold` — a generated ~1.06M-line C tree on disk, analyzed
//!   cold from sources through `analyze`;
//! * `million-analyze` — the same tree compiled and linked once into a
//!   `.clao` during set-up, then the analyze phase alone;
//! * `hub-skewed` — one `cla-hub` over TCP with 12 generated tenants behind
//!   capacity 6, a skewed closed-loop query mix and occasional edits.
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` runs the traced
//! variant and prints the per-layer metrics. Both print a `{"record": …}`
//! line with the inputs and configuration, then the result as the last
//! line of standard output. `--size small` runs every workload at
//! `ci-small` size (the benchmark's self-check uses it).

mod hub;
mod million;
mod report;
mod trace;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Small,
}

pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Compile pool size, worker threads and connections: `nproc`.
    pub jobs: usize,
    /// Scratch directory for generated inputs; removed when the run ends.
    pub work: PathBuf,
}

impl Config {
    fn parse(args: &[String]) -> Result<Config, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace, mut size) = (None, None, None, Size::Full);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?.clone()),
                "--seed" => {
                    seed = Some(
                        value()?
                            .parse::<u64>()
                            .map_err(|e| format!("--seed: {e}"))?,
                    )
                }
                "--seconds" => {
                    seconds = Some(
                        value()?
                            .parse::<f64>()
                            .map_err(|e| format!("--seconds: {e}"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v}")),
                    })
                }
                "--size" => {
                    size = match value()?.as_str() {
                        "full" => Size::Full,
                        "small" => Size::Small,
                        v => return Err(format!("--size takes full or small, not {v}")),
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload} (one of {WORKLOADS:?})"
            ));
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds} out of range"));
        }
        let jobs = std::thread::available_parallelism().map_or(1, usize::from);
        let work =
            PathBuf::from(".perfbench_work").join(format!("{workload}-{}", std::process::id()));
        Ok(Config {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            size,
            jobs,
            work,
        })
    }

    /// The environment part of the run record.
    pub fn record(&self, r: &mut Report) {
        r.record_str("workload", &self.workload);
        r.record_num("seed", self.seed);
        r.record_str(
            "size",
            match self.size {
                Size::Full => "full",
                Size::Small => "ci-small",
            },
        );
        r.record_num("trace", u8::from(self.trace));
        r.record_num("seconds", self.seconds);
        r.record_num("nproc", self.jobs);
        r.record_num("jobs", self.jobs);
        r.record_str("git_rev", &git_rev());
    }

    /// Whether another measuring cycle as long as `last` still ends within
    /// `--seconds` of `start`, so a run measures for about `--seconds`
    /// however long one cycle is.
    pub fn room_for(&self, start: Instant, last: Duration) -> bool {
        (start.elapsed() + last).as_secs_f64() <= self.seconds
    }

    /// Where the traced run writes its spans.
    pub fn trace_path(&self) -> PathBuf {
        PathBuf::from(".perfbench_out")
            .join(format!("trace-{}-seed{}.jsonl", self.workload, self.seed))
    }
}

const WORKLOADS: [&str; 3] = ["million-cold", "million-analyze", "hub-skewed"];

/// The checked-out revision, read from `.git` when the run happens inside
/// a git checkout (without spawning git); `unknown` otherwise.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    if let Some(r) = head.strip_prefix("ref: ") {
        std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string())
    } else if head.is_empty() {
        "unknown".to_string()
    } else {
        head.to_string()
    }
}

/// Removes the scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match Config::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.work) {
        eprintln!("perfbench: {}: {e}", cfg.work.display());
        return ExitCode::from(2);
    }
    let _work = WorkDir(cfg.work.clone());
    let result = match cfg.workload.as_str() {
        "million-cold" => million::cold(&cfg),
        "million-analyze" => million::analyze_object(&cfg),
        _ => hub::skewed(&cfg),
    };
    match result {
        Ok(mut r) => {
            r.complete(cfg.trace);
            for why in &r.failures {
                eprintln!("perfbench: wrong: {why}");
            }
            println!("{}", r.record_line());
            println!("{}", r.result_line());
            if r.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
