//! Cross-crate integration tests of the full compile-link-analyze pipeline.

use cla::prelude::*;
use cla_depend::{DependOptions, DependenceAnalysis};

fn fs_of(files: &[(&str, &str)]) -> MemoryFs {
    let mut fs = MemoryFs::new();
    for (p, c) in files {
        fs.add(*p, *c);
    }
    fs
}

fn obj(a: &cla::core::pipeline::Analysis, name: &str) -> ObjId {
    *a.database
        .targets(name)
        .first()
        .unwrap_or_else(|| panic!("no object named {name}"))
}

/// Pointer flow across five separately compiled files, through a header,
/// a heap cell, a function pointer table, and back.
#[test]
fn multi_file_flow() {
    let fs = fs_of(&[
        (
            "api.h",
            "#ifndef API_H
#define API_H
struct box { int *contents; };
extern struct box shared_box;
int *fetch(void);
void stash(int *v);
typedef int *(*getter)(void);
extern getter current_getter;
#endif
",
        ),
        (
            "box.c",
            r#"#include "api.h"
struct box shared_box;
void stash(int *v) { shared_box.contents = v; }
"#,
        ),
        (
            "fetch.c",
            r#"#include "api.h"
int *fetch(void) { return shared_box.contents; }
getter current_getter = fetch;
"#,
        ),
        (
            "heap.c",
            r#"#include "api.h"
void *malloc(unsigned long);
int **cell;
void init_cell(void) { cell = malloc(sizeof(int *)); }
void put(int *v) { *cell = v; }
int *get(void) { return *cell; }
"#,
        ),
        (
            "main.c",
            r#"#include "api.h"
extern int **cell;
void init_cell(void);
void put(int *v);
int *get(void);
int secret;
int *via_box, *via_heap, *via_fp;
int main(void) {
    init_cell();
    stash(&secret);
    put(&secret);
    via_box = fetch();
    via_heap = get();
    via_fp = current_getter();
    return 0;
}
"#,
        ),
    ]);
    let a = analyze(
        &fs,
        &["box.c", "fetch.c", "heap.c", "main.c"],
        &PipelineOptions {
            parallel_compile: true,
            ..Default::default()
        },
    )
    .expect("pipeline");
    let secret = obj(&a, "secret");
    for name in ["via_box", "via_heap", "via_fp"] {
        assert!(
            a.points_to.may_point_to(obj(&a, name), secret),
            "{name} should reach secret"
        );
    }
    // Only secret's *address* flows, never its value: the dependence
    // report exists (the name resolves) but lists no dependents.
    let dep = DependenceAnalysis::new(&a.database, &a.points_to);
    let report = dep.analyze("secret", &DependOptions::default()).unwrap();
    assert!(
        report.dependents().is_empty(),
        "secret's value never flows (only its address): {:?}",
        report.dependents()
    );
}

/// The same analysis run twice is deterministic.
#[test]
fn deterministic_pipeline() {
    let fs = fs_of(&[(
        "a.c",
        "int x, y, *p, *q, **pp;
         void f(void) { p = &x; q = &y; pp = &p; *pp = q; p = *pp; }",
    )]);
    let a1 = analyze(&fs, &["a.c"], &PipelineOptions::default()).unwrap();
    let a2 = analyze(&fs, &["a.c"], &PipelineOptions::default()).unwrap();
    assert_eq!(a1.points_to, a2.points_to);
    assert_eq!(a1.report.assign_counts, a2.report.assign_counts);
    assert_eq!(a1.report.object_size, a2.report.object_size);
}

/// Static functions and variables with the same name in different files
/// stay separate; globals unify.
#[test]
fn linkage_rules() {
    let fs = fs_of(&[
        (
            "a.c",
            "static int hidden; int exposed;
             int *pa; void fa(void) { pa = &hidden; }",
        ),
        (
            "b.c",
            "static int hidden; extern int exposed;
             int *pb; void fb(void) { pb = &hidden; }",
        ),
    ]);
    let a = analyze(&fs, &["a.c", "b.c"], &PipelineOptions::default()).unwrap();
    // Two hidden objects, one exposed.
    assert_eq!(a.database.targets("hidden").len(), 2);
    assert_eq!(a.database.targets("exposed").len(), 1);
    // pa and pb point to *different* hidden objects.
    let pa = obj(&a, "pa");
    let pb = obj(&a, "pb");
    let pa_t = a.points_to.points_to(pa);
    let pb_t = a.points_to.points_to(pb);
    assert_eq!(pa_t.len(), 1);
    assert_eq!(pb_t.len(), 1);
    assert_ne!(pa_t[0], pb_t[0]);
}

/// Field-based unification of struct fields across translation units.
#[test]
fn fields_unify_across_units() {
    let fs = fs_of(&[
        (
            "t.h",
            "#ifndef T_H\n#define T_H\nstruct pair { int *first; int *second; };\n#endif\n",
        ),
        (
            "w.c",
            "#include \"t.h\"\nstruct pair w_pair; int w_val;\nvoid w(void) { w_pair.first = &w_val; }\n",
        ),
        (
            "r.c",
            "#include \"t.h\"\nstruct pair r_pair; int *r_out;\nvoid r(void) { r_out = r_pair.first; }\n",
        ),
    ]);
    let a = analyze(&fs, &["w.c", "r.c"], &PipelineOptions::default()).unwrap();
    // Field-based: the write through w_pair is visible through r_pair.
    assert!(a.points_to.may_point_to(obj(&a, "r_out"), obj(&a, "w_val")));
    // And second stays clean.
    assert_eq!(a.database.targets("pair.first").len(), 1);
}

/// Macros, conditional compilation, and include chains survive the whole
/// pipeline.
#[test]
fn preprocessor_integration() {
    let fs = fs_of(&[
        (
            "cfg.h",
            "#define FEATURE 1
#if FEATURE
#define ALIAS(dst, src) dst = src
#else
#define ALIAS(dst, src)
#endif
",
        ),
        (
            "m.c",
            r#"#include "cfg.h"
int from, *to;
void f(void) {
    ALIAS(to, &from);
}
"#,
        ),
    ]);
    let a = analyze(&fs, &["m.c"], &PipelineOptions::default()).unwrap();
    assert!(a.points_to.may_point_to(obj(&a, "to"), obj(&a, "from")));
}

/// The dependence tool works against the linked, demand-loaded database.
#[test]
fn dependence_over_linked_database() {
    let fs = fs_of(&[
        (
            "a.c",
            "short source; short mid; void fa(void) { mid = source; }",
        ),
        (
            "b.c",
            "extern short mid; short sink; void fb(void) { sink = mid >> 1; }",
        ),
    ]);
    let a = analyze(&fs, &["a.c", "b.c"], &PipelineOptions::default()).unwrap();
    let dep = DependenceAnalysis::new(&a.database, &a.points_to);
    let report = dep.analyze("source", &DependOptions::default()).unwrap();
    let by_name: Vec<(String, Strength)> = report
        .dependents()
        .iter()
        .map(|d| (a.database.object(d.obj).name.clone(), d.cost.strength()))
        .collect();
    assert!(
        by_name.contains(&("mid".to_string(), Strength::Strong)),
        "{by_name:?}"
    );
    assert!(
        by_name.contains(&("sink".to_string(), Strength::Weak)),
        "{by_name:?}"
    );
}

/// A workload-generated program survives the entire pipeline and all three
/// solvers agree on it.
#[test]
fn generated_workload_end_to_end() {
    let spec = by_name("burlap").unwrap();
    let w = generate(
        spec,
        &GenOptions {
            scale: 0.03,
            files: 4,
            ..Default::default()
        },
    );
    let mut fs = MemoryFs::new();
    for (p, c) in &w.files {
        fs.add(p.clone(), c.clone());
    }
    let sources = w.source_files();
    let a = analyze(&fs, &sources, &PipelineOptions::default()).expect("pipeline");
    assert!(a.report.relations > 0);
    // Demand loading never exceeds the file and keeps complex in core.
    assert!(a.report.load_stats.assigns_loaded <= a.report.load_stats.assigns_in_file);
    // Cross-check against the in-memory worklist solver.
    let program = a.database.to_unit().unwrap();
    let wl = cla::core::worklist::solve(&program);
    assert_eq!(a.points_to, wl, "demand-loaded pre-transitive vs worklist");
}

/// A global function pointer called indirectly from two different units:
/// both units' argument flows must reach the callee (regression: the linker
/// used to merge the per-unit indirect signatures, dropping one side).
#[test]
fn indirect_calls_from_multiple_units() {
    let fs = fs_of(&[
        (
            "a.c",
            "int *(*handler)(int *);
             int xa; int *ra;
             void ca(void) { ra = handler(&xa); }",
        ),
        (
            "b.c",
            "extern int *(*handler)(int *);
             int xb; int *rb;
             void cb(void) { rb = handler(&xb); }",
        ),
        (
            "c.c",
            "int kept; int *keep;
             int *id(int *v) { keep = v ? *v : kept; return v; }
             extern int *(*handler)(int *);
             void init(void) { handler = id; }",
        ),
    ]);
    let a = analyze(&fs, &["a.c", "b.c", "c.c"], &PipelineOptions::default()).unwrap();
    let xa = obj(&a, "xa");
    let xb = obj(&a, "xb");
    // Both call sites' results see both argument sources (context
    // insensitivity through the shared identity callee), and crucially
    // neither unit's flow is dropped.
    for r in ["ra", "rb"] {
        let ro = obj(&a, r);
        assert!(a.points_to.may_point_to(ro, xa), "{r} must reach xa");
        assert!(a.points_to.may_point_to(ro, xb), "{r} must reach xb");
    }
}

/// Errors in any file abort the pipeline with a located error.
#[test]
fn error_reporting() {
    let fs = fs_of(&[("ok.c", "int x;"), ("bad.c", "int x = ;")]);
    let err = analyze(&fs, &["ok.c", "bad.c"], &PipelineOptions::default()).unwrap_err();
    match &err {
        PipelineError::Frontend(e) => assert_eq!(e.loc().line, 1),
        other => panic!("expected a frontend error, got {other}"),
    }
    let msg = format!("{err}");
    assert!(msg.contains("parse error"), "{msg}");
}

/// A file provider that counts reads per path.
struct CountingFs {
    inner: MemoryFs,
    reads: std::sync::Mutex<std::collections::BTreeMap<String, usize>>,
}

impl CountingFs {
    fn new(inner: MemoryFs) -> CountingFs {
        CountingFs {
            inner,
            reads: std::sync::Mutex::default(),
        }
    }

    /// Reads per path since the last call, resetting the counts.
    fn take(&self) -> std::collections::BTreeMap<String, usize> {
        std::mem::take(&mut *self.reads.lock().unwrap())
    }
}

impl FileProvider for CountingFs {
    fn read(&self, path: &str) -> Option<std::sync::Arc<str>> {
        *self
            .reads
            .lock()
            .unwrap()
            .entry(path.to_string())
            .or_default() += 1;
        self.inner.read(path)
    }
}

/// A snapshot hook that never has a snapshot: forces the keyed compile
/// path without persisting anything.
struct NoSnapshots;

impl cla::core::pipeline::SnapshotHook for NoSnapshots {
    fn load(&self, _: &cla::core::pipeline::Provenance) -> Option<cla::core::SealedGraph> {
        None
    }
    fn save(&self, _: &cla::core::pipeline::Provenance, _: &cla::core::SealedGraph, _: &[String]) {}
}

#[test]
fn keyed_compile_preprocesses_each_file_once() {
    let fs = CountingFs::new(fs_of(&[
        ("h.h", "extern int *p;\n"),
        (
            "a.c",
            "#include \"h.h\"\nint x; void fa(void) { p = &x; }\n",
        ),
        (
            "b.c",
            "#include \"h.h\"\nint *p, *q; void fb(void) { q = p; }\n",
        ),
    ]));
    let files = ["a.c", "b.c"];
    let plain = analyze(&fs, &files, &PipelineOptions::default()).unwrap();
    // One preprocess per file (a header is opened once per including file;
    // how often the preprocessor touches it there is its own business).
    let once = fs.take();
    assert_eq!(
        (once["a.c"], once["b.c"]),
        (1, 1),
        "plain analyze: {once:?}"
    );

    // The snapshot hook needs closure keys, so this run takes the keyed
    // compile: it must compile from the preprocess that computed the key,
    // not preprocess a second time.
    for parallel_compile in [false, true] {
        let opts = PipelineOptions {
            parallel_compile,
            jobs: 2,
            ..PipelineOptions::default()
        };
        let hooks = AnalyzeHooks {
            snapshots: Some(&NoSnapshots),
            ..AnalyzeHooks::default()
        };
        let keyed = analyze_with(&fs, &files, &opts, &hooks).unwrap();
        assert_eq!(
            fs.take(),
            once,
            "keyed analyze (parallel={parallel_compile})"
        );
        assert_eq!(keyed.points_to, plain.points_to);
    }
}
