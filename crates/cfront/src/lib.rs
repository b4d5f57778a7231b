//! # cla-cfront — a hand-written C frontend
//!
//! The parsing substrate for the CLA analysis system (Heintze & Tardieu,
//! PLDI 2001). The paper used the ML `ckit` frontend; this crate plays the
//! same role in Rust: it turns C source text into an AST that the lowering
//! in `cla-ir` compiles to primitive assignments.
//!
//! Pipeline: [`lexer`] → [`pp`] (preprocessor) → [`parser`] → [`ast`].
//!
//! ```
//! use cla_cfront::{parse_source};
//!
//! # fn main() -> Result<(), cla_cfront::CError> {
//! let tu = parse_source("int x, *p; void f(void) { p = &x; }", "a.c")?;
//! assert_eq!(tu.items.len(), 2);
//! # Ok(())
//! # }
//! ```

pub mod ast;
mod error;
pub mod lexer;
pub mod parser;
pub mod pp;
pub mod span;
pub mod token;
pub mod types;

pub use error::{CError, Result};
pub use pp::{FileProvider, FrontendLimits, MemoryFs, OsFs, PpOptions, PpStats, Preprocessed};
pub use span::{FileId, Loc, SourceMap};

use ast::TranslationUnit;

/// Everything produced by fully processing one `.c` file.
#[derive(Debug)]
pub struct ParsedUnit {
    /// The parsed translation unit.
    pub tu: TranslationUnit,
    /// All source files read (main file and headers).
    pub sources: SourceMap,
    /// Preprocessor statistics (bytes read, tokens emitted, ...).
    pub pp_stats: PpStats,
}

/// Preprocesses and parses one file from a [`FileProvider`].
///
/// # Errors
///
/// Propagates lexical, preprocessing, and parse errors.
pub fn parse_file(fs: &dyn FileProvider, path: &str, opts: &PpOptions) -> Result<ParsedUnit> {
    let pre = preprocess_file(fs, path, opts)?;
    parse_preprocessed(pre, path, opts)
}

/// The front half of [`parse_file`]: preprocesses one file under the `pp`
/// span. A caller that needs the preprocessed closure first (to key a
/// cache on it) continues with [`parse_preprocessed`] instead of
/// preprocessing twice.
///
/// # Errors
///
/// Propagates lexical and preprocessing errors.
pub fn preprocess_file(
    fs: &dyn FileProvider,
    path: &str,
    opts: &PpOptions,
) -> Result<Preprocessed> {
    let obs = cla_obs::global();
    let mut sp = obs.span("front", "pp");
    sp.set("file", path);
    let pre = match pp::preprocess(fs, path, opts) {
        Ok(pre) => pre,
        Err(e) => {
            obs.counter("cla_front_diagnostics_total").inc();
            return Err(e);
        }
    };
    sp.set("files_read", pre.stats.files_read);
    sp.set("tokens", pre.stats.tokens_out);
    sp.set("macro_expansions", pre.stats.macro_expansions);
    Ok(pre)
}

/// The back half of [`parse_file`]: counts the file into the
/// `cla_front_*` totals and parses its tokens under the `parse` span.
///
/// # Errors
///
/// Propagates parse errors.
pub fn parse_preprocessed(pre: Preprocessed, path: &str, opts: &PpOptions) -> Result<ParsedUnit> {
    let obs = cla_obs::global();
    obs.counter("cla_front_files_total").inc();
    obs.counter("cla_front_bytes_total").add(pre.stats.bytes_in);
    obs.counter("cla_front_tokens_total")
        .add(pre.stats.tokens_out as u64);
    obs.counter("cla_front_macro_expansions_total")
        .add(pre.stats.macro_expansions as u64);
    let mut sp = obs.span("front", "parse");
    sp.set("file", path);
    let tu = match parser::parse_with(pre.tokens, path, &opts.limits) {
        Ok(tu) => {
            sp.set("items", tu.items.len());
            tu
        }
        Err(e) => {
            obs.counter("cla_front_diagnostics_total").inc();
            return Err(e);
        }
    };
    Ok(ParsedUnit {
        tu,
        sources: pre.sources,
        pp_stats: pre.stats,
    })
}

/// Convenience: preprocesses and parses a single in-memory source string
/// (includes resolve against an empty file system).
///
/// # Errors
///
/// Propagates lexical, preprocessing, and parse errors.
pub fn parse_source(src: &str, name: &str) -> Result<TranslationUnit> {
    let mut fs = MemoryFs::new();
    fs.add(name, src);
    Ok(parse_file(&fs, name, &PpOptions::default())?.tu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_single_file() {
        let tu = parse_source("#define PTR(t) t *\nint x;\nPTR(int) p = &x;\n", "main.c").unwrap();
        assert_eq!(tu.items.len(), 2);
        assert_eq!(tu.file, "main.c");
    }

    #[test]
    fn end_to_end_with_headers() {
        let mut fs = MemoryFs::new();
        fs.add("defs.h", "typedef struct Point { int x; int y; } Point;\n");
        fs.add(
            "main.c",
            "#include \"defs.h\"\nPoint origin;\nint get_x(Point *p) { return p->x; }\n",
        );
        let parsed = parse_file(&fs, "main.c", &PpOptions::default()).unwrap();
        // Three items: the typedef declaration, `origin`, and `get_x`.
        assert_eq!(parsed.tu.items.len(), 3);
        assert_eq!(parsed.sources.len(), 2);
        assert!(parsed.pp_stats.bytes_in > 0);
    }

    #[test]
    fn paper_figure3_program_parses() {
        // The example from Figure 3 of the paper.
        let tu = parse_source(
            "int x, *y;\nint **z;\nvoid f(void) { z = &y; *z = &x; }\n",
            "fig3.c",
        )
        .unwrap();
        assert_eq!(tu.items.len(), 3);
    }

    #[test]
    fn paper_figure1_program_parses() {
        // The struct example from Figure 1 of the paper.
        let src = "short target;
struct S { short x; short y; };
short u, *v, w;
struct S s, t;
void f(void) {
  v = &w;
  u = target;
  *v = u;
  s.x = w;
}
";
        let tu = parse_source(src, "eg1.c").unwrap();
        assert!(tu.items.len() >= 4);
    }

    #[test]
    fn errors_carry_locations() {
        let err = parse_source("int x = ;", "bad.c").unwrap_err();
        assert_eq!(err.loc().line, 1);
    }
}
