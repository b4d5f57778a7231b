//! The two pipeline workloads over one generated million-line tree:
//!
//! * `million-cold` — sources on disk → every points-to set through the
//!   `analyze` entry point, with the compile pool at `jobs = nproc` and
//!   through the fully serial path. The frontend does most of the work.
//! * `million-analyze` — set-up compiles and links the tree once into a
//!   `.clao` on disk; the timed part is the analyze phase alone (object
//!   file → every points-to set). The solver and the object reader do all
//!   the work.
//!
//! Every answer is checked against the independent worklist solver run on
//! the same linked database, outside the timed region.

use crate::report::{median, peak_rss_mb, reset_peak_rss, Fnv, Report};
use crate::trace::Tracer;
use crate::{Config, Size};
use cla_cfront::{OsFs, PpOptions};
use cla_cladb::{write_object, Database, LoadStats, StreamLinker};
use cla_core::pipeline::{analyze, PipelineOptions};
use cla_core::{solve_database, worklist, PointsTo, SolveOptions, SolveStats, Warm};
use cla_genc::{GenReport, Profile};
use cla_ir::{compile_file, LowerOptions};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The `profiles/million.toml` shape (~1.06M LOC over 320 files), kept here
/// so the benchmark's input never changes with the repository's profiles.
const MILLION: &str = "name = \"million\"\nseed = 1\ntotal_loc = 1_050_000\nfiles = 320\n\
call_fanout = 3.0\ncall_depth = 8\ncross_file_fraction = 0.15\nindirect_call_rate = 0.03\n\
pointer_density = 0.30\nstruct_types = 96\nstruct_field_ptr_mix = 0.5\nglobal_traffic = 0.06\n";

/// The same rates at ~1% of the lines (`profiles/ci-small.toml`).
pub const CI_SMALL: &str = "name = \"ci_small\"\nseed = 1\ntotal_loc = 12_000\nfiles = 8\n\
call_fanout = 3.0\ncall_depth = 8\ncross_file_fraction = 0.15\nindirect_call_rate = 0.03\n\
pointer_density = 0.30\nstruct_types = 12\nstruct_field_ptr_mix = 0.5\nglobal_traffic = 0.06\n";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// A generated tree on disk.
pub struct Tree {
    pub gen: GenReport,
    /// Source files, sorted.
    pub files: Vec<String>,
}

impl Tree {
    pub fn refs(&self) -> Vec<&str> {
        self.files.iter().map(String::as_str).collect()
    }
}

pub fn profile(text: &str) -> Profile {
    Profile::parse(text).expect("built-in profile parses")
}

/// Writes the tree for (`profile`, `seed`) into `dir`, replacing whatever
/// was there.
pub fn generate(profile: &Profile, seed: u64, dir: &Path) -> Result<Tree, String> {
    let _ = std::fs::remove_dir_all(dir);
    let gen = cla_genc::generate_to_dir(profile, seed, dir).map_err(|e| format!("genc: {e}"))?;
    let mut files: Vec<String> = (0..profile.files)
        .map(|i| {
            dir.join(cla_genc::file_name(profile, i))
                .display()
                .to_string()
        })
        .collect();
    files.sort();
    Ok(Tree { gen, files })
}

fn tree_profile(cfg: &Config) -> Profile {
    profile(match cfg.size {
        Size::Full => MILLION,
        Size::Small => CI_SMALL,
    })
}

/// Fingerprint of every points-to set, in object order.
pub fn fingerprint(pts: &PointsTo) -> u64 {
    let mut h = Fnv::new();
    for (o, set) in pts.iter() {
        h.u32(o.0);
        h.u32(set.len() as u32);
        for t in set {
            h.u32(t.0);
        }
    }
    h.finish()
}

/// The reference answer: the worklist Andersen solver over the fully
/// decoded database. Returns its fingerprint.
fn oracle(db: &Database) -> Result<u64, String> {
    let unit = db.to_unit().map_err(|e| format!("oracle decode: {e}"))?;
    Ok(fingerprint(&worklist::solve(&unit)))
}

fn cold_options(parallel: bool, jobs: usize) -> PipelineOptions {
    PipelineOptions {
        parallel_compile: parallel,
        jobs,
        ..PipelineOptions::default()
    }
}

fn record_env(r: &mut Report, cfg: &Config, tree: &Tree, assigns: usize, relations: usize) {
    cfg.record(r);
    r.record_str("tree_hash", &format!("{:016x}", tree.gen.tree_hash));
    r.record_num("loc", tree.gen.loc);
    r.record_num("files", tree.gen.files);
    r.record_num("assignments", assigns);
    r.record_num("relations", relations);
    r.record_num("threads", cfg.jobs);
    r.record_num("connections", 0);
}

fn gen_setups(cfg: &Config, dir: &Path) -> Result<(Tree, Vec<f64>), String> {
    let profile = tree_profile(cfg);
    let mut times = Vec::new();
    let mut tree = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let fresh = generate(&profile, cfg.seed, dir)?;
        times.push(t.elapsed().as_secs_f64());
        if tree
            .as_ref()
            .is_some_and(|prev: &Tree| prev.gen.tree_hash != fresh.gen.tree_hash)
        {
            return Err("the generator is not deterministic for one seed".into());
        }
        tree = Some(fresh);
    }
    Ok((tree.expect("at least one set-up"), times))
}

// ---- million-cold ---------------------------------------------------------

pub fn cold(cfg: &Config) -> Result<Report, String> {
    let dir = cfg.work.join("tree");
    let r = Report::default();
    if cfg.trace {
        let (tree, _) = gen_setups(cfg, &dir)?;
        return cold_traced(cfg, &tree, r);
    }
    cold_untraced(cfg, &dir, r)
}

/// Pooled analyses for `--seconds`, each after a fresh generation of the
/// tree, so the set-up samples span the run as the analyses do.
fn cold_untraced(cfg: &Config, dir: &Path, mut r: Report) -> Result<Report, String> {
    let profile = tree_profile(cfg);
    // The fully serial path (`cold_serial_s`) takes two to three times as
    // long; it is measured once per traced run, as that run's untraced
    // baseline, so that this run fits several pooled analyses.
    let mut setup = Vec::new();
    let mut pooled = Vec::new();
    let mut fps = Vec::new();
    let mut peaks = Vec::new();
    let mut last: Option<(Tree, _)> = None;
    let start = Instant::now();
    let mut cycle = Instant::now();
    while pooled.is_empty() || cfg.room_for(start, cycle.elapsed()) {
        // Free the previous analysis first: its memory is not this one's.
        let prev = last.take().map(|(tree, _)| tree.gen.tree_hash);
        let t = Instant::now();
        let tree = generate(&profile, cfg.seed, dir)?;
        setup.push(t.elapsed().as_secs_f64());
        if prev.is_some_and(|h| h != tree.gen.tree_hash) {
            return Err("the generator is not deterministic for one seed".into());
        }
        reset_peak_rss();
        cycle = Instant::now();
        let a = analyze(&OsFs, &tree.refs(), &cold_options(true, cfg.jobs))
            .map_err(|e| format!("analyze: {e}"))?;
        pooled.push(cycle.elapsed().as_secs_f64() * 1e3);
        peaks.push(peak_rss_mb());
        fps.push(fingerprint(&a.points_to));
        last = Some((tree, a));
    }
    let (tree, a) = last.expect("at least one analysis");
    let want = oracle(&a.database)?;
    for fp in &fps {
        r.check(check_fp("analyze", *fp, want));
    }

    record_env(
        &mut r,
        cfg,
        &tree,
        a.report.assign_counts.total(),
        a.points_to.relations(),
    );
    r.record_num("samples", pooled.len());
    r.record_num("setup_samples", setup.len());
    r.named("cold_s", median(&pooled) / 1e3, "s");
    r.named("peak_rss_mb", median(&peaks), "MB");
    r.metric("setup_s", median(&setup), "s");
    r.metric("op_p50_ms", median(&pooled), "ms");
    r.metric("peak_rss_mb", median(&peaks), "MB");
    Ok(r)
}

/// Layer counters gathered by a traced pipeline run.
#[derive(Default)]
struct Counts {
    pp_bytes: u64,
    tokens: u64,
    macro_expansions: u64,
    assigns: u64,
    symbols_merged: usize,
    object_bytes: usize,
}

/// The pipeline's calls composed serially, each under its layer's span:
/// pp → parse → lower → link, then encode → open → fixpoint → seal →
/// extract.
fn traced_pipeline(
    t: &mut Tracer,
    files: &[&str],
    c: &mut Counts,
) -> Result<(Solved, Database), String> {
    let pp = PpOptions::default();
    let lower = LowerOptions::default();
    let mut linker = StreamLinker::new("a.out");
    for (i, f) in files.iter().enumerate() {
        let pre = t
            .span("cfront.pp", || cla_cfront::pp::preprocess(&OsFs, f, &pp))
            .map_err(|e| format!("pp {f}: {e}"))?;
        c.pp_bytes += pre.stats.bytes_in;
        c.tokens += pre.stats.tokens_out as u64;
        c.macro_expansions += pre.stats.macro_expansions as u64;
        let sources = pre.sources;
        let tokens = pre.tokens;
        let tu = t
            .span("cfront.parse", || {
                cla_cfront::parser::parse_with(tokens, *f, &pp.limits)
            })
            .map_err(|e| format!("parse {f}: {e}"))?;
        let unit = t.span("ir.lower", || cla_ir::lower_unit(&tu, &sources, &lower));
        c.assigns += unit.assigns.len() as u64;
        t.span("cladb.link", || linker.push(i, unit));
    }
    let (program, link_stats) = t.span("cladb.link", || linker.finish());
    c.symbols_merged = link_stats.symbols_merged;
    let bytes = t.span("cladb.encode", || write_object(&program));
    drop(program);
    c.object_bytes = bytes.len();
    let db = t
        .span("cladb.open", || Database::open(bytes))
        .map_err(|e| format!("open: {e}"))?;
    Ok((solve_traced(t, &db), db))
}

/// The answers of a traced solve, with the solver counters at fixpoint and
/// after the seal, and the demand loading the solve did.
struct Solved {
    pts: PointsTo,
    fix: SolveStats,
    sealed: SolveStats,
    load: LoadStats,
}

/// Fixpoint → seal → extract under their spans.
fn solve_traced(t: &mut Tracer, db: &Database) -> Solved {
    let warm = t.span("core.fixpoint", || {
        Warm::from_database(db, SolveOptions::default())
    });
    let fix = warm.stats();
    let sealed = t.span("core.seal", || warm.seal());
    let pts = t.span("core.extract", || sealed.extract_points_to(db.objects()));
    Solved {
        pts,
        fix,
        sealed: sealed.stats(),
        // Read now: the oracle's full decode adds to the same counters.
        load: db.load_stats(),
    }
}

/// Per-layer metrics of a pipeline trace; layers the workload never runs
/// report 0.
fn layer_metrics(r: &mut Report, t: &Tracer, c: &Counts, db: &Database, solved: &Solved) {
    let Solved {
        pts,
        fix,
        sealed,
        load,
    } = solved;
    let busy = t.busy_s();
    let b = |n: &str| busy.get(n).copied().unwrap_or(0.0);
    let rate = |x: f64, s: f64| if s > 0.0 { x / s } else { 0.0 };
    r.metric("cfront.pp.busy_s", b("cfront.pp"), "s");
    r.metric(
        "cfront.pp.mb_per_s",
        rate(c.pp_bytes as f64 / 1e6, b("cfront.pp")),
        "MB/s",
    );
    r.metric(
        "cfront.pp.macro_expansions",
        c.macro_expansions as f64,
        "count",
    );
    r.metric("cfront.parse.busy_s", b("cfront.parse"), "s");
    r.metric(
        "cfront.parse.mtok_per_s",
        rate(c.tokens as f64 / 1e6, b("cfront.parse")),
        "Mtok/s",
    );
    r.metric("ir.lower.busy_s", b("ir.lower"), "s");
    r.metric(
        "ir.lower.kassigns_per_s",
        rate(c.assigns as f64 / 1e3, b("ir.lower")),
        "kassign/s",
    );
    r.metric("cladb.link.busy_s", b("cladb.link"), "s");
    r.metric(
        "cladb.link.symbols_merged",
        c.symbols_merged as f64,
        "count",
    );
    r.metric("cladb.encode.busy_s", b("cladb.encode"), "s");
    r.metric(
        "cladb.encode.mb_per_s",
        rate(c.object_bytes as f64 / 1e6, b("cladb.encode")),
        "MB/s",
    );
    r.metric("cladb.object_mb", db.file_size() as f64 / 1e6, "MB");
    r.metric("cladb.open.busy_s", b("cladb.open"), "s");
    r.metric(
        "cladb.load.block_fetches",
        load.block_fetches as f64,
        "count",
    );
    r.metric(
        "cladb.load.assigns_loaded_ratio",
        load.assigns_loaded as f64 / load.assigns_in_file.max(1) as f64,
        "ratio",
    );
    r.metric("core.fixpoint.busy_s", b("core.fixpoint"), "s");
    r.metric("core.fixpoint.passes", fix.passes as f64, "count");
    r.metric(
        "core.fixpoint.cache_hit_ratio",
        fix.cache_hits as f64 / fix.getlvals_calls.max(1) as f64,
        "ratio",
    );
    r.metric("core.fixpoint.dfs_visits", fix.dfs_visits as f64, "count");
    r.metric(
        "core.fixpoint.unifications",
        fix.unifications as f64,
        "count",
    );
    r.metric("core.fixpoint.edges_added", fix.edges_added as f64, "count");
    r.metric("core.seal.busy_s", b("core.seal"), "s");
    r.metric("core.seal.sets_shared", sealed.sets_shared as f64, "count");
    r.metric("core.extract.busy_s", b("core.extract"), "s");
    r.metric("core.relations", pts.relations() as f64, "count");
}

fn cold_traced(cfg: &Config, tree: &Tree, mut r: Report) -> Result<Report, String> {
    let refs = tree.refs();
    // Untraced reference: the fully serial `analyze` path.
    let t0 = Instant::now();
    let a = analyze(&OsFs, &refs, &cold_options(false, cfg.jobs))
        .map_err(|e| format!("analyze: {e}"))?;
    let untraced_s = t0.elapsed().as_secs_f64();
    let untraced_fp = fingerprint(&a.points_to);
    drop(a);

    let mut t = Tracer::new();
    let mut c = Counts::default();
    let t0 = Instant::now();
    let (solved, db) = traced_pipeline(&mut t, &refs, &mut c)?;
    let traced_s = t0.elapsed().as_secs_f64();
    r.named("cold_serial_s", untraced_s, "s");

    let want = oracle(&db)?;
    r.check(check_fp("untraced", untraced_fp, want));
    r.check(check_fp("traced", fingerprint(&solved.pts), want));
    record_env(
        &mut r,
        cfg,
        tree,
        c.assigns as usize,
        solved.pts.relations(),
    );
    layer_metrics(&mut r, &t, &c, &db, &solved);
    t.report(cfg, &mut r, traced_s, untraced_s)?;
    Ok(r)
}

fn check_fp(what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what} fingerprint {got:016x} != oracle {want:016x}"
        ))
    }
}

// ---- million-analyze ------------------------------------------------------

/// Compiles `files` one by one and links them in input order, like
/// `cla-tool compile`, returning the encoded object.
fn compile_link(files: &[&str]) -> Result<(Vec<u8>, usize), String> {
    let (pp, lower) = (PpOptions::default(), LowerOptions::default());
    let mut linker = StreamLinker::new("a.out");
    for (i, f) in files.iter().enumerate() {
        let (unit, _) =
            compile_file(&OsFs, f, &pp, &lower).map_err(|e| format!("compile {f}: {e}"))?;
        linker.push(i, unit);
    }
    let (program, _) = linker.finish();
    Ok((write_object(&program), program.assign_counts().total()))
}

/// Set-up for `million-analyze`: the tree generated `SETUPS` times (as
/// for `million-cold`), then compiled and linked once into the object.
/// Returns the set-up time: the generation median plus the compile+link.
fn analyze_setup(cfg: &Config, dir: &Path, object: &Path) -> Result<(Tree, usize, f64), String> {
    let (tree, gen) = gen_setups(cfg, dir)?;
    let t = Instant::now();
    let (bytes, assigns) = compile_link(&tree.refs())?;
    std::fs::write(object, &bytes).map_err(|e| format!("{}: {e}", object.display()))?;
    Ok((tree, assigns, median(&gen) + t.elapsed().as_secs_f64()))
}

pub fn analyze_object(cfg: &Config) -> Result<Report, String> {
    let dir = cfg.work.join("tree");
    let object: PathBuf = cfg.work.join("program.clao");
    let (tree, assigns, setup_s) = analyze_setup(cfg, &dir, &object)?;
    let mut r = Report::default();
    if cfg.trace {
        return analyze_traced(cfg, &tree, assigns, &object, r);
    }

    let mut demand = Vec::new();
    let mut fps = Vec::new();
    let mut peaks = Vec::new();
    let mut relations = 0;
    let start = Instant::now();
    let mut cycle = Instant::now();
    while demand.is_empty() || cfg.room_for(start, cycle.elapsed()) {
        // The analyze phase: demand-loaded solve from the object on disk.
        reset_peak_rss();
        cycle = Instant::now();
        let db = Database::open_path(&object).map_err(|e| format!("open: {e}"))?;
        let (pts, _) = solve_database(&db, SolveOptions::default());
        demand.push(cycle.elapsed().as_secs_f64() * 1e3);
        peaks.push(peak_rss_mb());
        fps.push(fingerprint(&pts));
        relations = pts.relations();
    }
    let db = Database::open_path(&object).map_err(|e| format!("open: {e}"))?;
    let want = oracle(&db)?;
    for fp in &fps {
        r.check(check_fp("analyze", *fp, want));
    }

    record_env(&mut r, cfg, &tree, assigns, relations);
    r.record_num("samples", demand.len());
    r.record_num("setup_samples", SETUPS);
    r.named("analyze_s", median(&demand) / 1e3, "s");
    r.named("peak_rss_mb", median(&peaks), "MB");
    r.metric("setup_s", setup_s, "s");
    r.metric("op_p50_ms", median(&demand), "ms");
    r.metric("peak_rss_mb", median(&peaks), "MB");
    Ok(r)
}

fn analyze_traced(
    cfg: &Config,
    tree: &Tree,
    assigns: usize,
    object: &Path,
    mut r: Report,
) -> Result<Report, String> {
    let t0 = Instant::now();
    let db = Database::open_path(object).map_err(|e| format!("open: {e}"))?;
    let (pts, _) = solve_database(&db, SolveOptions::default());
    let untraced_s = t0.elapsed().as_secs_f64();
    let untraced_fp = fingerprint(&pts);
    drop((db, pts));

    let mut t = Tracer::new();
    let t0 = Instant::now();
    let db = t
        .span("cladb.open", || Database::open_path(object))
        .map_err(|e| format!("open: {e}"))?;
    let solved = solve_traced(&mut t, &db);
    let traced_s = t0.elapsed().as_secs_f64();
    r.named("analyze_s", untraced_s, "s");

    let want = oracle(&db)?;
    r.check(check_fp("untraced", untraced_fp, want));
    r.check(check_fp("traced", fingerprint(&solved.pts), want));
    record_env(&mut r, cfg, tree, assigns, solved.pts.relations());
    layer_metrics(&mut r, &t, &Counts::default(), &db, &solved);
    t.report(cfg, &mut r, traced_s, untraced_s)?;
    Ok(r)
}
