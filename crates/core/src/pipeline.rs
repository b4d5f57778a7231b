//! The end-to-end compile-link-analyze pipeline.
//!
//! Drives the three CLA phases over a set of source files: parallel
//! per-file compilation (the architecture explicitly supports separate
//! and/or parallel compilation — paper §1), linking into one program
//! database, and demand-driven points-to analysis. Produces the timing and
//! space measurements the paper's Tables 2 and 3 report.

use crate::pretransitive::{solve_database, SealedGraph, SolveOptions, SolveStats, Warm};
use crate::solution::PointsTo;
use cla_cfront::{CError, FileProvider, PpOptions, Preprocessed};
use cla_cladb::{fnv64, write_object, Database, DbError, LinkStats, LoadStats, StreamLinker};
use cla_ir::{
    compile_file, compile_preprocessed, AssignCounts, CompileStats, CompiledUnit, LowerOptions,
};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::{mpsc, Condvar, Mutex};
use std::time::Duration;

/// An error from any phase of the pipeline.
///
/// Compile errors come from the frontend; database errors come from opening
/// the linked object file. The latter were previously treated as impossible
/// (`expect`), but a pipeline whose output goes through a filesystem — or a
/// caller that routes pre-built object bytes here — must surface corruption
/// as a value, not a panic (DESIGN.md §10).
#[derive(Debug)]
pub enum PipelineError {
    /// A frontend (preprocess/parse/lower) error.
    Frontend(CError),
    /// The linked database failed to open or verify.
    Db(DbError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Frontend(e) => write!(f, "{e}"),
            PipelineError::Db(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<CError> for PipelineError {
    fn from(e: CError) -> Self {
        PipelineError::Frontend(e)
    }
}

impl From<DbError> for PipelineError {
    fn from(e: DbError) -> Self {
        PipelineError::Db(e)
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    pub pp: PpOptions,
    pub lower: LowerOptions,
    pub solver: SolveOptions,
    /// Compile source files on a thread pool.
    pub parallel_compile: bool,
    /// Cap on the compile thread pool: at most this many worker threads
    /// (0 = one thread per CPU). Only consulted with `parallel_compile`.
    pub jobs: usize,
    /// Fail fast: the first frontend error (or compile panic, surfaced as a
    /// typed error) aborts the run. When false, failing units are
    /// quarantined into [`Report::quarantined`] and the analysis continues
    /// over every unit that survived (DESIGN.md §14). The library default
    /// stays fail-fast; `cla-tool analyze` runs quarantine-and-continue
    /// unless `--strict` is passed.
    pub strict: bool,
    /// With quarantined units present, give every referenced-but-undefined
    /// global symbol a conservative PIP-style unknown summary at link time
    /// (see `add_unknown_summaries`): sound-leaning answers instead of
    /// silently missing flows. Off by default — answers stay minimal.
    pub unknown_summaries: bool,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            pp: PpOptions::default(),
            lower: LowerOptions::default(),
            solver: SolveOptions::default(),
            parallel_compile: false,
            jobs: 0,
            strict: true,
            unknown_summaries: false,
        }
    }
}

/// Why a unit landed in the quarantine ledger.
#[derive(Debug, Clone)]
pub enum QuarantineReason {
    /// A typed frontend error, including [`CError::Budget`] overruns.
    Error(CError),
    /// The compile panicked; the payload carries the panic message. The
    /// pool catches the panic, so one poisoned unit never kills a worker
    /// (or strands the backpressure condvar).
    Panic(String),
}

impl QuarantineReason {
    /// True when the unit exceeded a [`cla_cfront::FrontendLimits`] budget.
    pub fn is_budget(&self) -> bool {
        matches!(self, QuarantineReason::Error(e) if e.is_budget())
    }
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuarantineReason::Error(e) => write!(f, "{e}"),
            QuarantineReason::Panic(msg) => write!(f, "compile panicked: {msg}"),
        }
    }
}

/// One entry of the per-file quarantine ledger.
#[derive(Debug, Clone)]
pub struct Quarantined {
    /// The input file as given to [`analyze`].
    pub file: String,
    pub reason: QuarantineReason,
}

/// Resolves a `jobs` cap (0 = auto) to a concrete thread count.
#[must_use]
pub fn effective_jobs(jobs: usize) -> usize {
    if jobs > 0 {
        jobs
    } else {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4)
    }
}

/// A persistent compile cache: preprocessed-source key → serialized object
/// file. [`analyze_with`] consults it before compiling each file and feeds
/// it after each miss, so compiles skip across process restarts (the on-disk
/// implementation lives in `cla-snap`). Implementations must tolerate
/// concurrent use — the pipeline calls them from its compile thread pool.
pub trait CompileCache: Send + Sync {
    /// The object bytes previously stored under `key`, if any. Returning
    /// damaged bytes is safe: the pipeline re-opens them through the
    /// checksummed reader and falls back to a fresh compile on any error.
    fn load(&self, key: u64) -> Option<Vec<u8>>;
    /// Persists object bytes under `key` (best effort; errors are the
    /// implementation's to swallow — a failed store only costs a future
    /// recompile).
    fn store(&self, key: u64, bytes: &[u8]);
}

/// Identity of one analysis run: what was analyzed and with which options.
///
/// A snapshot saved under one provenance may only be loaded under an equal
/// provenance — any edited input (headers included: input hashes cover the
/// whole preprocessed closure), changed preprocessor/lowering option, or
/// changed solver option forces a full re-solve instead of stale answers.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Provenance {
    /// Per input file, in command order: (file name, hash of the file's
    /// preprocessed closure — every source read while preprocessing it,
    /// see [`closure_hash`]).
    pub inputs: Vec<(String, u64)>,
    /// Fingerprint of the non-solver options
    /// (see [`options_fingerprint`]).
    pub options_fp: u64,
    /// Solver options the graph was (or will be) solved with.
    pub solver: SolveOptions,
}

/// Short-circuits the solve phase of [`analyze_with`] with a persisted
/// result (the on-disk snapshot store lives in `cla-snap`).
pub trait SnapshotHook: Send + Sync {
    /// A sealed graph previously saved under exactly this provenance, or
    /// `None` (missing, corrupt, or provenance mismatch — the caller
    /// re-solves in every case).
    fn load(&self, prov: &Provenance) -> Option<SealedGraph>;
    /// Persists a freshly solved graph under `prov` (best effort). `names`
    /// holds the per-object display names, so a snapshot can answer
    /// by-name queries without the source or the linked database.
    fn save(&self, prov: &Provenance, sealed: &SealedGraph, names: &[String]);
}

/// Optional persistence hooks for [`analyze_with`]. The default (no hooks)
/// makes `analyze_with` behave exactly like [`analyze`].
#[derive(Default)]
pub struct AnalyzeHooks<'a> {
    /// Consulted per file before compiling.
    pub compile_cache: Option<&'a dyn CompileCache>,
    /// Consulted once before solving.
    pub snapshots: Option<&'a dyn SnapshotHook>,
}

/// Fingerprint of the options that shape compiled objects: include dirs,
/// defines, include depth, and the lowering configuration. Folded into
/// compile-cache keys and snapshot provenance.
#[must_use]
pub fn options_fingerprint(pp: &PpOptions, lower: &LowerOptions) -> u64 {
    // Debug formatting is stable within one build of the tool, which is the
    // strongest guarantee a cache keyed on in-memory options can need; the
    // object-format version is folded in so cache entries from an older
    // format are never decoded.
    fnv64(format!("clav{}|{pp:?}|{lower:?}", cla_cladb::VERSION).as_bytes())
}

/// Hash of one file's preprocessed closure: every source the preprocessor
/// read for it (main file and all headers, names and contents, in read
/// order) plus the options fingerprint. Editing the file, any header it
/// includes, an include path, or a define all change the hash.
#[must_use]
pub fn closure_hash(pre: &Preprocessed, file: &str, options_fp: u64) -> u64 {
    let mut acc = Vec::new();
    acc.extend_from_slice(&options_fp.to_le_bytes());
    acc.extend_from_slice(&(file.len() as u64).to_le_bytes());
    acc.extend_from_slice(file.as_bytes());
    for (_, sf) in pre.sources.iter() {
        acc.extend_from_slice(&(sf.name.len() as u64).to_le_bytes());
        acc.extend_from_slice(sf.name.as_bytes());
        acc.extend_from_slice(&fnv64(sf.src.as_bytes()).to_le_bytes());
    }
    fnv64(&acc)
}

/// Everything measured across one pipeline run (one row of Table 2+3).
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub files: usize,
    /// Bytes of source consumed by the compile phase (after include
    /// expansion — the paper's "LOC preproc." proxy).
    pub source_bytes: u64,
    /// Approximate preprocessed line count.
    pub preprocessed_lines: usize,
    /// Program variables (Table 2).
    pub program_variables: usize,
    /// Counts of the five assignment forms (Table 2).
    pub assign_counts: AssignCounts,
    /// Linked object file size in bytes (Table 2 "object size").
    pub object_size: usize,
    pub link_stats: LinkStats,
    /// Demand-loading counters (Table 3 in-core/loaded/in-file).
    pub load_stats: LoadStats,
    pub solve_stats: SolveStats,
    /// Table 3 "pointer variables".
    pub pointer_variables: usize,
    /// Table 3 "points-to relations".
    pub relations: usize,
    pub compile_time: Duration,
    pub link_time: Duration,
    pub solve_time: Duration,
    /// Files whose object came out of the compile cache (0 without a cache).
    pub compile_cache_hits: usize,
    /// Files that were actually compiled this run.
    pub compile_cache_misses: usize,
    /// Whether the solve phase was skipped by loading a snapshot.
    pub snapshot_loaded: bool,
    /// Compile worker threads actually used (1 without `parallel_compile`).
    pub jobs: usize,
    /// High-water mark of compiled units held in memory while the
    /// streaming link waited for an earlier unit: the compile+link phase's
    /// real memory exposure, bounded by twice the thread-pool size, never
    /// by the codebase.
    pub peak_buffered_units: usize,
    /// Process peak resident set size in bytes at the end of the run
    /// (Linux `VmHWM`; 0 where unavailable).
    pub peak_rss_bytes: u64,
    /// The most expensive files of the compile phase, costliest first
    /// (wall time of each file's preprocess+parse+lower, capped at
    /// [`SLOWEST_FILES_CAP`] entries). On generated codebases this is how
    /// a profile names the outlier files worth shrinking.
    pub slowest_files: Vec<(String, Duration)>,
    /// Files whose compile failed, panicked, or overran a budget, in input
    /// order with typed reasons. Empty in strict mode (the run would have
    /// aborted instead) and on clean runs.
    pub quarantined: Vec<Quarantined>,
    /// Referenced-but-undefined globals that received conservative unknown
    /// summaries at link time (0 unless quarantine fired with
    /// [`PipelineOptions::unknown_summaries`] on).
    pub unknown_summaries: usize,
}

/// Number of entries retained in [`Report::slowest_files`].
pub const SLOWEST_FILES_CAP: usize = 10;

impl Report {
    /// Table 3 "in core": complex assignments retained by the solver.
    pub fn assigns_in_core(&self) -> usize {
        self.solve_stats.complex_in_core
    }

    /// A rough analysis-memory figure: solver structures plus resident
    /// object metadata (the object file itself is demand-paged).
    pub fn approx_analysis_bytes(&self) -> usize {
        self.solve_stats.approx_bytes
    }

    /// True when any unit was quarantined: every answer derived from this
    /// run covers only the surviving units and must be marked partial.
    pub fn is_partial(&self) -> bool {
        !self.quarantined.is_empty()
    }
}

/// The outcome of a full compile-link-analyze run.
#[derive(Debug)]
pub struct Analysis {
    /// Points-to sets over the linked program's objects.
    pub points_to: PointsTo,
    /// The linked program database (shared with the dependence analysis).
    pub database: Database,
    /// Measurements.
    pub report: Report,
}

/// Compiles `files` from `fs`, links them, writes the program database, and
/// runs the demand-driven pre-transitive solver.
///
/// # Errors
///
/// Returns the first frontend error encountered, or a database error if the
/// freshly linked object file fails to open (which would indicate damage
/// between write and read, or a writer bug — either way a typed error, not
/// a panic).
pub fn analyze(
    fs: &dyn FileProvider,
    files: &[&str],
    opts: &PipelineOptions,
) -> Result<Analysis, PipelineError> {
    analyze_with(fs, files, opts, &AnalyzeHooks::default())
}

/// [`analyze`] with persistence hooks: an optional compile cache (per-file
/// object reuse keyed by the preprocessed closure) and an optional snapshot
/// hook (skip the solve entirely when a saved graph's provenance matches).
/// With both hooks a warm restart does no parsing, no lowering, and no
/// fixpoint — it relinks cached objects and loads the sealed graph.
///
/// # Errors
///
/// Same as [`analyze`]. Hook failures are never errors: a missing or
/// mismatched cache entry or snapshot just falls back to the real work.
pub fn analyze_with(
    fs: &dyn FileProvider,
    files: &[&str],
    opts: &PipelineOptions,
    hooks: &AnalyzeHooks<'_>,
) -> Result<Analysis, PipelineError> {
    // Phase times come from the same spans that emit trace events, so the
    // `Report` and a recorded trace can never disagree about a duration.
    let obs = cla_obs::global();
    // Closure hashes are needed by both hooks; without hooks the keying
    // preprocess is skipped and the pipeline runs exactly as before.
    let keyed = hooks.compile_cache.is_some() || hooks.snapshots.is_some();
    let options_fp = options_fingerprint(&opts.pp, &opts.lower);

    // The streaming compile+link: each unit folds into the program the
    // moment it (and every earlier unit) is compiled, then drops. Folding
    // overlaps compilation, so `compile_time` covers both and `link_time`
    // covers finalization + serialization + open.
    let mut sp = obs.span("pipeline", "pipeline.compile");
    sp.set("files", files.len());
    let mut linker = StreamLinker::new("a.out");
    let mut stats = Vec::with_capacity(files.len());
    let mut keys = Vec::with_capacity(files.len());
    let mut durs = Vec::with_capacity(files.len());
    let mut compile_cache_hits = 0usize;
    let mut quarantined: Vec<Quarantined> = Vec::new();
    let mut fold = |i: usize, dur: Duration, r: Result<CompiledFile, QuarantineReason>| {
        durs.push(dur);
        match r {
            Ok(c) => {
                stats.push(c.stats);
                keys.push(c.key);
                compile_cache_hits += usize::from(c.cache_hit);
                linker.push(i, c.unit.expect("no held key: every file yields a unit"));
            }
            Err(reason) => {
                // An empty unit keeps the linker's index sequence intact;
                // it contributes no objects and no assignments.
                stats.push(CompileStats::default());
                keys.push(0);
                quarantined.push(Quarantined {
                    file: files[i].to_string(),
                    reason,
                });
                linker.push(i, CompiledUnit::new(files[i]));
            }
        }
    };
    let jobs = if opts.parallel_compile {
        effective_jobs(opts.jobs)
    } else {
        1
    };
    let pool = if keyed {
        compile_pool(
            files,
            jobs,
            opts.strict,
            |f| {
                let cache = hooks.compile_cache;
                compile_keyed(fs, f, &opts.pp, &opts.lower, options_fp, cache, None)
            },
            &mut fold,
        )?
    } else {
        compile_pool(
            files,
            jobs,
            opts.strict,
            |f| {
                compile_file(fs, f, &opts.pp, &opts.lower).map(|(unit, stats)| CompiledFile {
                    unit: Some(unit),
                    stats,
                    key: 0,
                    cache_hit: false,
                })
            },
            &mut fold,
        )?
    };
    let partial = !quarantined.is_empty();
    let slowest_files = {
        let mut ranked: Vec<(String, Duration)> = files
            .iter()
            .zip(&durs)
            .map(|(f, &d)| ((*f).to_string(), d))
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        ranked.truncate(SLOWEST_FILES_CAP);
        ranked
    };
    let compile_cache_misses = files.len() - compile_cache_hits;
    let inputs: Vec<(String, u64)> = files
        .iter()
        .zip(&keys)
        .map(|(f, &k)| ((*f).to_string(), k))
        .collect();
    sp.set("cache_hits", compile_cache_hits);
    sp.set("jobs", pool.jobs);
    let compile_time = sp.finish();

    let mut sp = obs.span("pipeline", "pipeline.link");
    let peak_buffered_units = pool.peak_buffered.max(1);
    let (mut program, link_stats) = linker.finish();
    let unknown_summaries = if partial && opts.unknown_summaries {
        add_unknown_summaries(&mut program)
    } else {
        0
    };
    let bytes = write_object(&program);
    let program_variables = program.program_variable_count();
    let assign_counts = program.assign_counts();
    drop(program);
    let object_size = bytes.len();
    let db = Database::open(bytes)?;
    sp.set("object_bytes", object_size);
    let link_time = sp.finish();

    let sp = obs.span("pipeline", "pipeline.solve");
    let mut snapshot_loaded = false;
    // Partial runs bypass the snapshot store in both directions: a
    // quarantined file keys as 0 in the provenance, so persisting (or
    // serving) a partial graph under it would alias distinct hostile
    // inputs to one snapshot.
    let snapshot_hook = if partial { None } else { hooks.snapshots };
    let (points_to, solve_stats) = match snapshot_hook {
        None => solve_database(&db, opts.solver),
        Some(hook) => {
            let prov = Provenance {
                inputs,
                options_fp,
                solver: opts.solver,
            };
            if let Some(sealed) = hook.load(&prov) {
                snapshot_loaded = true;
                (sealed.extract_points_to(db.objects()), sealed.stats())
            } else {
                let sealed = Warm::from_database(&db, opts.solver).seal();
                let pts = sealed.extract_points_to(db.objects());
                let names: Vec<String> = db.objects().iter().map(|o| o.name.clone()).collect();
                hook.save(&prov, &sealed, &names);
                (pts, sealed.stats())
            }
        }
    };
    let solve_time = sp.finish();

    let report = Report {
        files: files.len(),
        source_bytes: stats.iter().map(|s| s.source_bytes).sum(),
        preprocessed_lines: stats.iter().map(|s| s.preprocessed_lines).sum(),
        program_variables,
        assign_counts,
        object_size,
        link_stats,
        load_stats: db.load_stats(),
        solve_stats,
        pointer_variables: points_to.pointer_variables(),
        relations: points_to.relations(),
        compile_time,
        link_time,
        solve_time,
        compile_cache_hits,
        compile_cache_misses,
        snapshot_loaded,
        jobs: pool.jobs,
        peak_buffered_units,
        peak_rss_bytes: cla_obs::peak_rss_bytes(),
        slowest_files,
        quarantined,
        unknown_summaries,
    };
    Ok(Analysis {
        points_to,
        database: db,
        report,
    })
}

/// One file through [`compile_keyed`] (or the unkeyed compile): the unit
/// plus its cache bookkeeping.
#[derive(Debug)]
pub struct CompiledFile {
    /// The compiled unit; `None` when the file's closure key equals the
    /// caller's `held` key, i.e. the unit the caller already holds for it
    /// is current and nothing was parsed or lowered.
    pub unit: Option<CompiledUnit>,
    pub stats: CompileStats,
    /// Preprocessed-closure hash ([`closure_hash`]); 0 from the unkeyed
    /// compile.
    pub key: u64,
    /// Whether the unit came out of the compile cache.
    pub cache_hit: bool,
}

/// The closure-keyed per-file compile: preprocess once, key the file by
/// its preprocessed closure ([`closure_hash`], so header edits change the
/// key), and then
///
/// * return no unit when the key equals `held` (the caller's unit is
///   current — an incremental reload skips unchanged files this way);
/// * reuse the cached object on a compile-cache hit (an entry that fails
///   to open or decode counts as a miss — the checksummed object reader
///   makes feeding damaged bytes back safe);
/// * otherwise parse and lower the [`Preprocessed`] already in hand, and
///   store the object in the cache.
///
/// Batch [`analyze_with`] and serving sessions both compile through here,
/// under [`compile_pool`]'s panic guard.
///
/// # Errors
///
/// Propagates frontend errors.
pub fn compile_keyed(
    fs: &dyn FileProvider,
    file: &str,
    pp: &PpOptions,
    lower: &LowerOptions,
    options_fp: u64,
    cache: Option<&dyn CompileCache>,
    held: Option<u64>,
) -> Result<CompiledFile, CError> {
    let mut sp = cla_obs::global().span("front", "compile_file");
    sp.set("file", file);
    let pre = cla_cfront::preprocess_file(fs, file, pp)?;
    let key = closure_hash(&pre, file, options_fp);
    // A held or cached unit saw the same bytes a fresh compile would, so
    // the preprocessor's figures stand in for the compile's.
    let reused = |unit: Option<CompiledUnit>| CompiledFile {
        stats: CompileStats {
            source_bytes: pre.stats.bytes_in,
            preprocessed_lines: pre.stats.lines_out,
            tokens: pre.stats.tokens_out,
        },
        cache_hit: unit.is_some(),
        unit,
        key,
    };
    if held == Some(key) {
        return Ok(reused(None));
    }
    if let Some(cache) = cache {
        if let Some(bytes) = cache.load(key) {
            if let Ok(unit) = Database::open(bytes).and_then(|db| db.to_unit()) {
                return Ok(reused(Some(unit)));
            }
        }
    }
    let (unit, stats) = compile_preprocessed(pre, file, pp, lower)?;
    if let Some(cache) = cache {
        cache.store(key, &write_object(&unit));
    }
    sp.set("objects", unit.objects.len());
    sp.set("assigns", unit.assigns.len());
    Ok(CompiledFile {
        unit: Some(unit),
        stats,
        key,
        cache_hit: false,
    })
}

/// Renders a `catch_unwind` payload as text (the conventional `&str` /
/// `String` payloads; anything else gets a placeholder).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Collapses a quarantine reason to a typed error for strict mode: panics
/// become a `CError` instead of re-raising, so even fail-fast callers get a
/// value, never a poisoned thread pool.
fn reason_to_cerror(reason: QuarantineReason) -> CError {
    match reason {
        QuarantineReason::Error(e) => e,
        QuarantineReason::Panic(msg) => CError::parse(
            format!("internal frontend panic: {msg}"),
            cla_cfront::Loc::BUILTIN,
        ),
    }
}

/// PIP-style conservative summaries for incomplete programs (*Making
/// Andersen's Points-to Analysis Sound and Practical for Incomplete C
/// Programs*): once units are quarantined, any global that is referenced
/// but never defined may live in a lost unit and do anything. One abstract
/// object `<unknown>` stands for everything such symbols could reach:
///
/// * `g = &<unknown>` for every undefined global `g` — dereferencing it
///   reaches the unknown blob instead of nothing;
/// * `<unknown> = &<unknown>` — chains of dereferences stay closed;
/// * for every call signature of an undefined function: `f$ret =
///   &<unknown>` and `<unknown> = f$N` — results come from the blob,
///   arguments escape into it.
///
/// Returns how many undefined globals were summarized.
fn add_unknown_summaries(program: &mut cla_ir::CompiledUnit) -> usize {
    use cla_ir::{AssignKind, ObjId, ObjKind, ObjectInfo, OpKind, PrimAssign, SrcLoc, Strength};
    // A global is undefined when no surviving unit defines it (the linker
    // ORs the per-unit `defined` bits). Param/ret objects are global-linked
    // too but are summarized through their function's signature, not here.
    let undefined: Vec<ObjId> = program
        .objects
        .iter()
        .enumerate()
        .filter(|(_, o)| {
            o.link_name.is_some() && !o.defined && matches!(o.kind, ObjKind::Var | ObjKind::Func)
        })
        .map(|(i, _)| ObjId(i as u32))
        .collect();
    if undefined.is_empty() {
        return 0;
    }
    let unknown = program.push_object(ObjectInfo::global(
        "<unknown>",
        ObjKind::Heap,
        "",
        SrcLoc::NONE,
    ));
    let edge = |kind, dst, src| PrimAssign {
        kind,
        dst,
        src,
        strength: Strength::Weak,
        op: OpKind::Direct,
        loc: SrcLoc::NONE,
    };
    program.push_assign(edge(AssignKind::Addr, unknown, unknown));
    let undefined_set: std::collections::HashSet<ObjId> = undefined.iter().copied().collect();
    let summarized_sigs: Vec<(ObjId, Vec<ObjId>)> = program
        .funsigs
        .iter()
        .filter(|s| undefined_set.contains(&s.obj) && !s.is_indirect)
        .map(|s| (s.ret, s.params.clone()))
        .collect();
    for &g in &undefined {
        program.push_assign(edge(AssignKind::Addr, g, unknown));
    }
    for (ret, params) in summarized_sigs {
        program.push_assign(edge(AssignKind::Addr, ret, unknown));
        for p in params {
            program.push_assign(edge(AssignKind::Copy, unknown, p));
        }
    }
    undefined.len()
}

/// How one [`compile_pool`] run went.
#[derive(Debug, Clone, Copy)]
pub struct PoolRun {
    /// Worker threads used (1: serial, on the calling thread).
    pub jobs: usize,
    /// High-water mark of finished results held back while an earlier file
    /// was still compiling — the pool's real memory exposure, bounded by
    /// twice the thread count, never by the codebase.
    pub peak_buffered: usize,
}

/// Bumps the process-wide frontend-quarantine counters, so the `metrics`
/// exposition covers every lenient build, batch or serving.
fn note_quarantine(reason: &QuarantineReason) {
    let obs = cla_obs::global();
    obs.counter("cla_front_quarantined_total").inc();
    if reason.is_budget() {
        obs.counter("cla_front_budget_exceeded_total").inc();
    }
}

/// The ordered compile pool: runs `one` over `files` on up to `jobs`
/// threads and hands each result, with its wall time, to `fold` strictly
/// in input order, whatever the completion order — so whatever `fold`
/// links is byte-identical to a serial compile.
///
/// Every call to `one` runs under `catch_unwind`: a frontend panic is a
/// bug in our code, but it is triggered by the input's bytes, and one
/// hostile file must not take down the run (or kill a worker and strand
/// everyone waiting on the backpressure condvar). With `strict`, the first
/// failing file (in input order) aborts the pool and comes back as the
/// error, panics included as typed errors. Otherwise a failing file is
/// quarantined: `fold` receives its [`QuarantineReason`] in its slot and
/// the rest still compile.
///
/// Workers take file indices from a shared counter and block whenever they
/// would run more than `2 × jobs` files ahead of the fold, which bounds
/// the results held in memory at once.
///
/// # Errors
///
/// In strict mode, the earliest failing file's error.
pub fn compile_pool<T: Send>(
    files: &[&str],
    jobs: usize,
    strict: bool,
    one: impl Fn(&str) -> Result<T, CError> + Sync,
    mut fold: impl FnMut(usize, Duration, Result<T, QuarantineReason>),
) -> Result<PoolRun, CError> {
    let guarded = |f: &str| -> (Duration, Result<T, QuarantineReason>) {
        let t = std::time::Instant::now();
        let r = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| one(f))) {
            Ok(Ok(c)) => Ok(c),
            Ok(Err(e)) => Err(QuarantineReason::Error(e)),
            Err(payload) => Err(QuarantineReason::Panic(panic_message(payload))),
        };
        if let Err(reason) = &r {
            if !strict {
                note_quarantine(reason);
            }
        }
        (t.elapsed(), r)
    };
    let jobs = jobs.min(files.len());
    if jobs <= 1 {
        for (i, f) in files.iter().enumerate() {
            match guarded(f) {
                (_, Err(reason)) if strict => return Err(reason_to_cerror(reason)),
                (dur, r) => fold(i, dur, r),
            }
        }
        return Ok(PoolRun {
            jobs: 1,
            peak_buffered: 1,
        });
    }

    let window = jobs * 2;
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    // Fold progress, shared with the workers for backpressure.
    let progress = Mutex::new(0usize);
    let unblocked = Condvar::new();
    let (tx, rx) = mpsc::channel::<(usize, Duration, Result<T, QuarantineReason>)>();
    let mut pending: BTreeMap<usize, (Duration, Result<T, QuarantineReason>)> = BTreeMap::new();
    let mut folded = 0usize;
    let mut peak_buffered = 0usize;
    let mut first_err: Option<(usize, QuarantineReason)> = None;
    let guarded = &guarded;
    let (next, abort, progress, unblocked) = (&next, &abort, &progress, &unblocked);
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let tx = tx.clone();
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Relaxed);
                if i >= files.len() || abort.load(Relaxed) {
                    break;
                }
                {
                    let mut folded = progress.lock().unwrap();
                    while i >= *folded + window && !abort.load(Relaxed) {
                        folded = unblocked.wait(folded).unwrap();
                    }
                }
                if abort.load(Relaxed) {
                    break;
                }
                let (dur, r) = guarded(files[i]);
                let failed = r.is_err();
                if tx.send((i, dur, r)).is_err() {
                    break;
                }
                // Only strict mode aborts the pool: under quarantine the
                // remaining files still compile.
                if failed && strict {
                    abort.store(true, Relaxed);
                    unblocked.notify_all();
                }
            });
        }
        drop(tx);
        for (i, dur, r) in rx {
            match r {
                Err(reason) if strict => {
                    if first_err.as_ref().is_none_or(|(at, _)| i < *at) {
                        first_err = Some((i, reason));
                    }
                }
                r => {
                    pending.insert(i, (dur, r));
                    peak_buffered = peak_buffered.max(pending.len());
                    while let Some((dur, r)) = pending.remove(&folded) {
                        fold(folded, dur, r);
                        folded += 1;
                    }
                    *progress.lock().unwrap() = folded;
                    unblocked.notify_all();
                }
            }
        }
    });
    if let Some((_, reason)) = first_err {
        return Err(reason_to_cerror(reason));
    }
    debug_assert_eq!(folded, files.len(), "every file folded");
    Ok(PoolRun {
        jobs,
        peak_buffered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cla_cfront::MemoryFs;

    fn fs_of(files: &[(&str, &str)]) -> MemoryFs {
        let mut fs = MemoryFs::new();
        for (p, c) in files {
            fs.add(*p, *c);
        }
        fs
    }

    #[test]
    fn end_to_end_two_files() {
        let fs = fs_of(&[
            ("a.c", "int target; int *p; void fa(void) { p = &target; }"),
            ("b.c", "extern int *p; int *q; void fb(void) { q = p; }"),
        ]);
        let analysis = analyze(&fs, &["a.c", "b.c"], &PipelineOptions::default()).unwrap();
        let db = &analysis.database;
        let q = db.targets("q")[0];
        let target = db.targets("target")[0];
        assert!(analysis.points_to.may_point_to(q, target));
        let r = &analysis.report;
        assert_eq!(r.files, 2);
        assert!(r.object_size > 0);
        assert!(r.pointer_variables >= 2);
        assert!(r.relations >= 2);
        assert!(r.source_bytes > 0);
        // Per-file attribution: both files ranked, costliest first.
        assert_eq!(r.slowest_files.len(), 2);
        assert!(r.slowest_files[0].1 >= r.slowest_files[1].1);
        assert!(r.slowest_files.iter().any(|(f, _)| f == "a.c"));
    }

    #[test]
    fn parallel_compile_matches_serial() {
        let files: Vec<(String, String)> = (0..8)
            .map(|i| {
                (
                    format!("f{i}.c"),
                    format!("int g{i}; int *p{i}; void fn{i}(void) {{ p{i} = &g{i}; }}"),
                )
            })
            .collect();
        let mut fs = MemoryFs::new();
        for (p, c) in &files {
            fs.add(p.clone(), c.clone());
        }
        let names: Vec<&str> = files.iter().map(|(p, _)| p.as_str()).collect();
        let serial = analyze(&fs, &names, &PipelineOptions::default()).unwrap();
        let par = analyze(
            &fs,
            &names,
            &PipelineOptions {
                parallel_compile: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(serial.points_to, par.points_to);
        assert_eq!(serial.report.assign_counts, par.report.assign_counts);
    }

    #[test]
    fn compile_errors_propagate() {
        let fs = fs_of(&[("bad.c", "int x = ;")]);
        assert!(analyze(&fs, &["bad.c"], &PipelineOptions::default()).is_err());
        let fs = fs_of(&[("missing_include.c", "#include \"nope.h\"\n")]);
        assert!(analyze(&fs, &["missing_include.c"], &PipelineOptions::default()).is_err());
    }

    #[test]
    fn quarantine_and_continue_lenient() {
        let fs = fs_of(&[
            (
                "good.c",
                "int target; int *p; void fa(void) { p = &target; }",
            ),
            ("bad.c", "int x = ;"),
            ("worse.c", "#include \"nope.h\"\n"),
        ]);
        let opts = PipelineOptions {
            strict: false,
            ..Default::default()
        };
        let a = analyze(&fs, &["good.c", "bad.c", "worse.c"], &opts).unwrap();
        let r = &a.report;
        assert!(r.is_partial());
        assert_eq!(r.quarantined.len(), 2);
        // Ledger is sorted by input order and names exactly the failing files.
        assert_eq!(r.quarantined[0].file, "bad.c");
        assert_eq!(r.quarantined[1].file, "worse.c");
        assert!(matches!(
            r.quarantined[0].reason,
            QuarantineReason::Error(_)
        ));
        // The surviving unit still answers queries.
        let p = a.database.targets("p")[0];
        let target = a.database.targets("target")[0];
        assert!(a.points_to.may_point_to(p, target));
    }

    #[test]
    fn quarantine_parallel_matches_serial() {
        let mut files: Vec<(String, String)> = (0..12)
            .map(|i| {
                (
                    format!("f{i}.c"),
                    format!("int g{i}; int *p{i}; void fn{i}(void) {{ p{i} = &g{i}; }}"),
                )
            })
            .collect();
        files[3].1 = "int broken = ;".to_string();
        files[9].1 = "#include \"missing.h\"\n".to_string();
        let mut fs = MemoryFs::new();
        for (p, c) in &files {
            fs.add(p.clone(), c.clone());
        }
        let names: Vec<&str> = files.iter().map(|(p, _)| p.as_str()).collect();
        let lenient = PipelineOptions {
            strict: false,
            ..Default::default()
        };
        let serial = analyze(&fs, &names, &lenient).unwrap();
        let par = analyze(
            &fs,
            &names,
            &PipelineOptions {
                parallel_compile: true,
                ..lenient.clone()
            },
        )
        .unwrap();
        assert_eq!(serial.points_to, par.points_to);
        let ledger = |a: &Analysis| -> Vec<String> {
            a.report
                .quarantined
                .iter()
                .map(|q| q.file.clone())
                .collect()
        };
        assert_eq!(ledger(&serial), vec!["f3.c", "f9.c"]);
        assert_eq!(ledger(&serial), ledger(&par));
    }

    #[test]
    fn strict_parallel_still_fails_fast_on_panic_free_error() {
        let fs = fs_of(&[("ok.c", "int a;"), ("bad.c", "int x = ;")]);
        let opts = PipelineOptions {
            parallel_compile: true,
            ..Default::default()
        };
        assert!(analyze(&fs, &["ok.c", "bad.c"], &opts).is_err());
    }

    #[test]
    fn unknown_summaries_inject_conservative_answers() {
        // `ext_p` and `ext_fn` are referenced but never defined (their
        // defining unit is quarantined), so with `unknown_summaries` every
        // read of them conservatively yields the `<unknown>` object.
        let fs = fs_of(&[
            (
                "use.c",
                "extern int *ext_p; extern int *ext_fn(int *a);
                 int *q, *r, local;
                 void f(void) { q = ext_p; r = ext_fn(&local); }",
            ),
            ("def.c", "int x = ;"),
        ]);
        let opts = PipelineOptions {
            strict: false,
            unknown_summaries: true,
            ..Default::default()
        };
        let a = analyze(&fs, &["use.c", "def.c"], &opts).unwrap();
        assert!(a.report.unknown_summaries >= 2);
        let unknown = a.database.targets("<unknown>")[0];
        let q = a.database.targets("q")[0];
        let r = a.database.targets("r")[0];
        assert!(a.points_to.may_point_to(q, unknown));
        assert!(a.points_to.may_point_to(r, unknown));

        // Without the flag the flows are silently missing (minimal answers).
        let bare = analyze(
            &fs,
            &["use.c", "def.c"],
            &PipelineOptions {
                strict: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(bare.report.unknown_summaries, 0);
        assert!(bare.database.targets("<unknown>").is_empty());
    }

    #[test]
    fn budget_overrun_is_quarantined_with_budget_reason() {
        let bomb = "#define A0 x\n#define A1 A0 A0\n#define A2 A1 A1\n\
                    #define A3 A2 A2\n#define A4 A3 A3\n#define A5 A4 A4\n\
                    #define A6 A5 A5\n#define A7 A6 A6\n#define A8 A7 A7\n\
                    int arr[1] = {0}; /* A8 */\nint y = A8;\n";
        let fs = fs_of(&[("bomb.c", bomb), ("ok.c", "int fine;")]);
        let mut opts = PipelineOptions {
            strict: false,
            ..Default::default()
        };
        opts.pp.limits.macro_fuel = 64;
        let a = analyze(&fs, &["bomb.c", "ok.c"], &opts).unwrap();
        assert_eq!(a.report.quarantined.len(), 1);
        assert_eq!(a.report.quarantined[0].file, "bomb.c");
        assert!(a.report.quarantined[0].reason.is_budget());
        assert!(!a.database.targets("fine").is_empty());
    }

    #[test]
    fn report_load_accounting() {
        let fs = fs_of(&[(
            "a.c",
            "int x, *p; void f(void) { p = &x; }
             int i0, i1; void g(void) { i0 = i1; }",
        )]);
        let a = analyze(&fs, &["a.c"], &PipelineOptions::default()).unwrap();
        let ls = a.report.load_stats;
        assert!(ls.assigns_in_file >= 2);
        // The integer-only chain must not be loaded.
        assert!(ls.assigns_loaded < ls.assigns_in_file);
    }
}
