//! # cla — ultra-fast aliasing analysis using compile-link-analyze
//!
//! A Rust reproduction of Heintze & Tardieu, *"Ultra-fast Aliasing Analysis
//! using CLA: A Million Lines of C Code in a Second"* (PLDI 2001).
//!
//! This facade crate re-exports the whole system:
//!
//! * [`cfront`] — a hand-written C frontend (lexer, preprocessor, parser).
//! * [`ir`] — lowering to the paper's five primitive assignment forms.
//! * [`cladb`] — the indexed object-file database, linker, demand loader.
//! * [`core`] — the pre-transitive points-to solver and the baselines
//!   (worklist Andersen, Steensgaard) plus the compile-link-analyze
//!   pipeline.
//! * [`depend`] — the forward data-dependence (type migration) tool.
//! * [`genc`] — the declarative million-line codebase generator behind the
//!   "million lines in a second" harness (profiles in `profiles/`).
//! * [`obs`] — zero-dependency tracing (Chrome `trace_event` JSONL) and
//!   metrics (counters, gauges, histograms, Prometheus text exposition)
//!   wired through every layer above.
//! * [`prof`] — the in-process sampling profiler (span-stack sampling,
//!   collapsed-stack/flamegraph output), the feature-gated counting
//!   allocator (`count-alloc`), and the `BENCH_history.jsonl` tooling
//!   behind `cla-tool bench-diff`.
//! * [`serve`] — a long-running query server (in-process [`prelude::Session`]
//!   or newline-delimited JSON over a Unix socket) that keeps the solved
//!   graph warm between queries.
//! * [`hub`] — the multi-tenant TCP front end: many named sessions behind
//!   one server, with an LRU of resident graphs that evicts to `.clasnap`
//!   snapshots and warm-starts on demand.
//! * [`snap`] — persistent analysis snapshots (`.clasnap`) and the
//!   content-addressed on-disk build cache, for instant warm starts.
//! * [`workload`] — synthetic benchmarks calibrated to the paper's Table 2.
//!
//! ## Quickstart
//!
//! ```
//! use cla::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut fs = MemoryFs::new();
//! fs.add("a.c", "int x; int *p; void f(void) { p = &x; }");
//! fs.add("b.c", "extern int *p; int *q; void g(void) { q = p; }");
//! let analysis = analyze(&fs, &["a.c", "b.c"], &PipelineOptions::default())?;
//! let q = analysis.database.targets("q")[0];
//! let x = analysis.database.targets("x")[0];
//! assert!(analysis.points_to.may_point_to(q, x));
//! # Ok(())
//! # }
//! ```

pub use cla_cfront as cfront;
pub use cla_cladb as cladb;
pub use cla_core as core;
pub use cla_depend as depend;
pub use cla_genc as genc;
pub use cla_hub as hub;
pub use cla_ir as ir;
pub use cla_obs as obs;
pub use cla_prof as prof;
pub use cla_serve as serve;
pub use cla_snap as snap;
pub use cla_workload as workload;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use cla_cfront::{FileProvider, FrontendLimits, MemoryFs, OsFs, PpOptions};
    pub use cla_cladb::{dump, link, write_object, Database};
    pub use cla_core::pipeline::{
        analyze, analyze_with, Analysis, AnalyzeHooks, PipelineError, PipelineOptions,
        QuarantineReason, Quarantined, Report,
    };
    pub use cla_core::{solve_database, solve_unit, PointsTo, SolveOptions};
    pub use cla_depend::{DependOptions, DependenceAnalysis};
    pub use cla_genc::{generate_to_dir, generate_with, measure_tree, GenReport, Measure, Profile};
    pub use cla_hub::{Hub, HubOptions};
    pub use cla_ir::{
        compile_file, compile_source, AssignKind, CompiledUnit, FieldModel, LowerOptions, ObjId,
        ObjKind, Strength,
    };
    pub use cla_serve::{Client, Endpoint, Session, SessionSource, SessionSpec, SessionStats};
    pub use cla_snap::{DiskCache, Snapshot, SnapshotStore};
    pub use cla_workload::{by_name, generate, GenOptions, PAPER_BENCHMARKS};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exports_work() {
        let unit = compile_source(
            "int x, *p; void f(void) { p = &x; }",
            "a.c",
            &LowerOptions::default(),
        )
        .unwrap();
        let (pts, _) = solve_unit(&unit, SolveOptions::default());
        assert_eq!(pts.pointer_variables(), 1);
    }
}
