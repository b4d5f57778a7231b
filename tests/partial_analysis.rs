//! Partial analysis at scale: a generated multi-file tree with ~5% of its
//! files replaced by hostile inputs must quarantine exactly those files and
//! answer every query over the surviving units exactly as a run that never
//! saw the hostile files at all (DESIGN.md §14). This is the soundness
//! contract of quarantine-and-continue: a broken unit can remove answers,
//! but it can never change them.

use cla::core::pipeline::Analysis;
use cla::genc::{file_name, Profile};
use cla::prelude::*;
use std::collections::BTreeSet;

/// Replaces every 20th file (starting at index 5) with hostile bytes,
/// alternating a plain syntax error with a parser-depth budget bomb.
/// Returns the replaced file names, in input order.
fn inject_hostile(fs: &mut MemoryFs, files: &[String]) -> Vec<String> {
    let mut hostile = Vec::new();
    for (i, f) in files.iter().enumerate() {
        if i % 20 != 5 {
            continue;
        }
        let bytes = if hostile.len() % 2 == 0 {
            "int broken( = ;".to_owned()
        } else {
            format!("int deep = {}1{};", "(".repeat(20_000), ")".repeat(20_000))
        };
        fs.add(f.clone(), bytes);
        hostile.push(f.clone());
    }
    hostile
}

/// Every by-name points-to pair in the analysis. Ids differ between runs
/// with different unit sets, so the comparison is at the name level.
fn name_pairs(a: &Analysis) -> BTreeSet<(String, String)> {
    let mut out = BTreeSet::new();
    for (p, targets) in a.points_to.iter() {
        let pname = &a.database.object(p).name;
        for t in targets {
            out.insert((pname.clone(), a.database.object(*t).name.clone()));
        }
    }
    out
}

#[test]
fn hostile_tree_quarantines_exactly_and_matches_clean_subset() {
    // A 40-file generated tree; every 20th file (starting at 5) is replaced
    // with hostile bytes — 2 files, i.e. 5% of the tree. One is a plain
    // syntax error, the other a 20,000-deep expression that must trip the
    // parser depth budget rather than the process stack.
    let profile = Profile::parse(
        "name = \"hostile\"\ntotal_loc = 8000\nfiles = 40\nindirect_call_rate = 0.03\n",
    )
    .unwrap();
    let mut fs = MemoryFs::new();
    generate_with(&profile, 11, &mut |name, text| {
        fs.add(name.to_owned(), text.to_owned());
        Ok(())
    })
    .unwrap();

    let files: Vec<String> = (0..profile.files).map(|i| file_name(&profile, i)).collect();
    let hostile = inject_hostile(&mut fs, &files);
    assert_eq!(hostile.len(), 2, "5% of 40 files");

    // Quarantine-and-continue over the full hostile tree, in parallel.
    let refs: Vec<&str> = files.iter().map(String::as_str).collect();
    let lenient = analyze(
        &fs,
        &refs,
        &PipelineOptions {
            strict: false,
            parallel_compile: true,
            jobs: 4,
            ..Default::default()
        },
    )
    .unwrap();

    // The ledger names exactly the injected files, nothing else, and the
    // deep-nesting file is recorded as a budget overrun, not a plain error.
    let ledger: Vec<&str> = lenient
        .report
        .quarantined
        .iter()
        .map(|q| q.file.as_str())
        .collect();
    assert_eq!(ledger, hostile, "quarantine ledger");
    assert!(lenient.report.is_partial());
    assert!(
        !lenient.report.quarantined[0].reason.is_budget(),
        "syntax error is not a budget overrun"
    );
    assert!(
        lenient.report.quarantined[1].reason.is_budget(),
        "20k-deep nesting is a budget overrun"
    );

    // A run that never saw the hostile files: the gold standard for every
    // answer about the surviving 38 units.
    let clean: Vec<&str> = files
        .iter()
        .filter(|f| !hostile.contains(f))
        .map(String::as_str)
        .collect();
    let subset = analyze(&fs, &clean, &PipelineOptions::default()).unwrap();
    assert!(subset.report.quarantined.is_empty());

    let got = name_pairs(&lenient);
    let want = name_pairs(&subset);
    assert!(!want.is_empty(), "generated tree must produce answers");
    assert_eq!(got, want, "partial answers diverge from the clean subset");

    // A lenient session over the same tree compiles through the same
    // quarantine path: the same ledger, and the same answers, id for id.
    let session = Session::open(&SessionSpec {
        source: SessionSource::Files {
            fs: std::sync::Arc::new(fs.clone()),
            files: files.clone(),
            pp: PpOptions::default(),
            lower: LowerOptions::default(),
            lenient: true,
        },
        solve: SolveOptions::default(),
        snapshot_dir: None,
        jobs: 4,
    })
    .unwrap();
    let ledger: Vec<String> = session.quarantined().into_iter().map(|q| q.file).collect();
    assert_eq!(ledger, hostile, "session quarantine ledger");
    let db = &lenient.database;
    // Internal objects (`f$1`, temporaries) are not addressable by name.
    for var in session.pointer_variables() {
        if db.targets(&var).is_empty() {
            continue;
        }
        let mut expected: Vec<u32> = db
            .targets(&var)
            .iter()
            .flat_map(|&o| lenient.points_to.points_to(o).iter().map(|t| t.0))
            .collect();
        expected.sort_unstable();
        expected.dedup();
        let answer = session.points_to(&var).unwrap();
        assert!(answer.partial);
        let got: Vec<u32> = answer.targets.iter().map(|t| t.id).collect();
        assert_eq!(got, expected, "session and analyze disagree on pts({var})");
    }
}

/// A compact order-independent fingerprint of the full by-name points-to
/// relation: pair count plus an FNV-1a hash folded over every sorted
/// `name -> target` edge. At a million lines the relation holds ~7M pairs,
/// so the comparison streams instead of materializing two string sets.
fn relation_fingerprint(a: &Analysis) -> (u64, u64) {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let fnv = |mut h: u64, s: &str| {
        for b in s.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h ^ 0xff // terminator so "ab"+"c" != "a"+"bc"
    };
    let mut names: Vec<&str> = a.database.target_names().collect();
    names.sort_unstable();
    names.dedup();
    let mut count = 0u64;
    let mut acc = 0u64;
    for name in names {
        for p in a.database.targets(name) {
            let mut targets: Vec<&str> = a
                .points_to
                .points_to(*p)
                .iter()
                .map(|t| a.database.object(*t).name.as_str())
                .collect();
            targets.sort_unstable();
            targets.dedup();
            for t in targets {
                // Commutative fold: id order within a name may differ
                // between runs, the name-level relation must not.
                acc = acc.wrapping_add(fnv(fnv(FNV_OFFSET, name), t));
                count += 1;
            }
        }
    }
    (count, acc)
}

/// Acceptance run for DESIGN.md §14 at headline scale: the full million
/// profile with 5% hostile files must complete, quarantine exactly the
/// injected files, and answer identically to a clean-subset run. Ignored
/// in the PR gate (two full million-line analyses); the CI `million` job
/// runs it with `--include-ignored`.
#[test]
#[ignore = "million-scale: two full 1M-line analyses; run by the CI million job"]
fn million_profile_with_hostile_files_matches_clean_subset() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("profiles/million.toml");
    let profile = Profile::load(&path).unwrap();
    let mut fs = MemoryFs::new();
    generate_with(&profile, profile.seed, &mut |name, text| {
        fs.add(name.to_owned(), text.to_owned());
        Ok(())
    })
    .unwrap();
    let files: Vec<String> = (0..profile.files).map(|i| file_name(&profile, i)).collect();
    let hostile = inject_hostile(&mut fs, &files);
    assert_eq!(hostile.len(), 16, "5% of the 320-file million tree");

    let refs: Vec<&str> = files.iter().map(String::as_str).collect();
    let lenient = analyze(
        &fs,
        &refs,
        &PipelineOptions {
            strict: false,
            parallel_compile: true,
            ..Default::default()
        },
    )
    .unwrap();
    let ledger: Vec<&str> = lenient
        .report
        .quarantined
        .iter()
        .map(|q| q.file.as_str())
        .collect();
    assert_eq!(ledger, hostile, "quarantine ledger at million scale");

    let clean: Vec<&str> = files
        .iter()
        .filter(|f| !hostile.contains(f))
        .map(String::as_str)
        .collect();
    let subset = analyze(
        &fs,
        &clean,
        &PipelineOptions {
            parallel_compile: true,
            ..Default::default()
        },
    )
    .unwrap();

    let (got_n, got_h) = relation_fingerprint(&lenient);
    let (want_n, want_h) = relation_fingerprint(&subset);
    assert!(want_n > 0, "million tree must produce answers");
    assert_eq!(
        (got_n, got_h),
        (want_n, want_h),
        "million-scale partial answers diverge from the clean subset"
    );
}
