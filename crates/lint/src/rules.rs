//! The rule set. Each rule is a token-sequence check over a
//! [`SourceFile`]; `feature-gate-hygiene` additionally reads the crate's
//! `Cargo.toml`. Rules never fire inside string literals or comments
//! (the lexer hides those) nor inside test code (`#[test]` /
//! `#[cfg(test)]` regions), because tests unwrap, clock, and allocate
//! freely by design.

use crate::lexer::TokenKind;
use crate::manifest::{rules, Manifest};
use crate::source::SourceFile;

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id (see [`crate::manifest::rules`]).
    pub rule: &'static str,
    /// Repo-relative path.
    pub path: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// Runs every per-file rule that applies to `file` under `manifest`.
pub fn check_file(file: &SourceFile, manifest: &Manifest) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if manifest.on_solve_path(&file.path) {
        no_solve_path_panic(file, &mut out);
    }
    no_hot_alloc(file, &mut out);
    if !manifest.clock_exempt(&file.path) {
        deterministic_clock(file, &mut out);
    }
    poison_proof_locks(file, &mut out);
    if !manifest.thread_exempt(&file.path) {
        scoped_threads_only(file, &mut out);
    }
    out
}

fn diag(file: &SourceFile, rule: &'static str, tok: usize, message: String) -> Diagnostic {
    let t = &file.tokens[tok];
    Diagnostic {
        rule,
        path: file.path.clone(),
        line: t.line,
        col: t.col,
        message,
    }
}

/// `no-solve-path-panic`: no `unwrap`/`expect`, no panic-family macros,
/// no slice/array indexing in solve-hot-path modules. A panic inside
/// the search kernel either aborts a production compile or (in the
/// portfolio) silently costs a variant; degrade through typed errors,
/// `Option`, or `SolveOutcome::GaveUp` instead.
fn no_solve_path_panic(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
    for i in 0..file.tokens.len() {
        if file.in_test(i) {
            continue;
        }
        let t = &file.tokens[i];
        match t.kind {
            TokenKind::Ident => {
                let word = file.tok_str(i);
                let called = file.is_punct(i + 1, '(');
                let defined = i > 0 && file.is_ident(i - 1, "fn");
                if (word == "unwrap" || word == "expect") && called && !defined {
                    out.push(diag(
                        file,
                        rules::NO_SOLVE_PATH_PANIC,
                        i,
                        format!(
                            "`{word}()` can panic on the solve path; return a typed \
                             error or degrade to GaveUp/BestEffort"
                        ),
                    ));
                } else if PANIC_MACROS.contains(&word) && file.is_punct(i + 1, '!') {
                    out.push(diag(
                        file,
                        rules::NO_SOLVE_PATH_PANIC,
                        i,
                        format!(
                            "`{word}!` aborts the solve; solve-path modules must \
                             degrade, not panic"
                        ),
                    ));
                }
            }
            TokenKind::Punct('[') if i > 0 => {
                let prev = &file.tokens[i - 1];
                let indexing = matches!(
                    prev.kind,
                    TokenKind::Ident | TokenKind::Punct(')') | TokenKind::Punct(']')
                );
                // `ident [` is indexing only when the ident is an
                // expression, not a macro (`vec![`) or attribute
                // (`#[`), which the prev-token kinds already exclude.
                if indexing {
                    out.push(diag(
                        file,
                        rules::NO_SOLVE_PATH_PANIC,
                        i,
                        "slice/array indexing panics out of bounds on the solve \
                         path; use get()/get_mut() or suppress with the proven \
                         invariant as the reason"
                            .to_string(),
                    ));
                }
            }
            _ => {}
        }
    }
}

/// `no-hot-alloc`: no allocating constructs inside a function marked
/// `// tela-lint: hot-path`. This is the static face of the
/// counting-allocator regression tests: the dynamic test proves the
/// steady state allocates zero times, this rule stops the obvious
/// regressions before they run.
fn no_hot_alloc(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    const ALLOC_METHODS: &[&str] = &["to_vec", "to_owned", "to_string", "collect", "clone"];
    const ALLOC_TYPES: &[&str] = &[
        "Vec", "Box", "String", "HashMap", "BTreeMap", "HashSet", "BTreeSet", "VecDeque",
    ];
    const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from"];
    const ALLOC_MACROS: &[&str] = &["format", "vec"];
    const REF_COUNTED: &[&str] = &["Arc", "Rc"]; // Arc::clone is a refcount bump, not an allocation

    for &marker_line in &file.hot_markers {
        // The marker governs the next `fn` item below it.
        let Some(fn_tok) = file
            .tokens
            .iter()
            .position(|t| t.line > marker_line)
            .and_then(|from| (from..file.tokens.len()).find(|&i| file.is_ident(i, "fn")))
        else {
            out.push(Diagnostic {
                rule: rules::SUPPRESSION_HYGIENE,
                path: file.path.clone(),
                line: marker_line,
                col: 1,
                message: "hot-path marker is not followed by a function".to_string(),
            });
            continue;
        };
        // Body = first `{` after the signature's parens close.
        let mut paren_depth = 0usize;
        let mut body_open = None;
        for i in fn_tok..file.tokens.len() {
            match file.tokens[i].kind {
                TokenKind::Punct('(') => paren_depth += 1,
                TokenKind::Punct(')') => paren_depth -= 1,
                TokenKind::Punct('{') if paren_depth == 0 => {
                    body_open = Some(i);
                    break;
                }
                TokenKind::Punct(';') if paren_depth == 0 => break, // trait method decl
                _ => {}
            }
        }
        let Some(open) = body_open else { continue };
        let close = file.matching_close(open);
        for i in open..close {
            if file.in_test(i) || file.tokens[i].kind != TokenKind::Ident {
                continue;
            }
            let word = file.tok_str(i);
            let flag = |msg: String, out: &mut Vec<Diagnostic>| {
                out.push(diag(file, rules::NO_HOT_ALLOC, i, msg));
            };
            if ALLOC_METHODS.contains(&word) && file.is_punct(i + 1, '(') {
                // `Arc::clone(…)` / `Rc::clone(…)` are exempt.
                let qualifier_exempt = word == "clone"
                    && i >= 2
                    && file.is_path_sep(i - 2)
                    && i >= 3
                    && REF_COUNTED.iter().any(|q| file.is_ident(i - 3, q));
                if !qualifier_exempt {
                    flag(
                        format!(
                            "`{word}()` allocates inside a hot-path function; reuse a \
                             scratch buffer or hoist it out of the loop"
                        ),
                        out,
                    );
                }
            } else if ALLOC_TYPES.contains(&word)
                && file.is_path_sep(i + 1)
                && file
                    .tokens
                    .get(i + 3)
                    .is_some_and(|t| t.kind == TokenKind::Ident)
                && ALLOC_CTORS.contains(&file.tok_str(i + 3))
            {
                flag(
                    format!(
                        "`{word}::{}` constructs a heap container inside a hot-path \
                         function",
                        file.tok_str(i + 3)
                    ),
                    out,
                );
            } else if ALLOC_MACROS.contains(&word) && file.is_punct(i + 1, '!') {
                flag(
                    format!("`{word}!` allocates inside a hot-path function"),
                    out,
                );
            }
        }
    }
}

/// `deterministic-clock`: wall clocks (`Instant::now`, `SystemTime`)
/// only inside the sanctioned clock abstractions. Everything else must
/// take time through `Budget` deadlines or the tracer's logical clock,
/// or byte-identical trace replay breaks.
fn deterministic_clock(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for i in 0..file.tokens.len() {
        if file.in_test(i) || file.tokens[i].kind != TokenKind::Ident {
            continue;
        }
        let word = file.tok_str(i);
        if word == "Instant" && file.is_path_sep(i + 1) && file.is_ident(i + 3, "now") {
            out.push(diag(
                file,
                rules::DETERMINISTIC_CLOCK,
                i,
                "`Instant::now()` outside the clock abstractions breaks \
                 deterministic replay; take time from `Budget` or the tracer's \
                 logical clock"
                    .to_string(),
            ));
        } else if word == "SystemTime" {
            out.push(diag(
                file,
                rules::DETERMINISTIC_CLOCK,
                i,
                "`SystemTime` outside the clock abstractions breaks deterministic \
                 replay"
                    .to_string(),
            ));
        }
    }
}

/// `poison-proof-locks`: every `.lock()` must recover from poisoning via
/// `.unwrap_or_else(PoisonError::into_inner)` (the PR 4 pattern). A
/// panicking portfolio worker must never take the race's bookkeeping
/// down with it.
fn poison_proof_locks(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for i in 0..file.tokens.len() {
        if file.in_test(i) {
            continue;
        }
        if !(file.is_punct(i, '.')
            && file.is_ident(i + 1, "lock")
            && file.is_punct(i + 2, '(')
            && file.is_punct(i + 3, ')'))
        {
            continue;
        }
        let recovered = file.is_punct(i + 4, '.')
            && file.is_ident(i + 5, "unwrap_or_else")
            && file.is_punct(i + 6, '(')
            && {
                let close = file.matching_close(i + 6);
                (i + 6..close).any(|j| file.is_ident(j, "into_inner"))
            };
        if !recovered {
            out.push(diag(
                file,
                rules::POISON_PROOF_LOCKS,
                i + 1,
                "`.lock()` without poison recovery; use \
                 `.lock().unwrap_or_else(PoisonError::into_inner)` so a panicked \
                 holder cannot wedge every later locker"
                    .to_string(),
            ));
        }
    }
}

/// `scoped-threads-only`: `std::thread::spawn` detaches a thread the
/// solve cannot join or cancel; all solver concurrency goes through the
/// portfolio's scoped threads, which propagate panics and honor the
/// shared cancel flag.
fn scoped_threads_only(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for i in 0..file.tokens.len() {
        if file.in_test(i) {
            continue;
        }
        if file.is_ident(i, "thread") && file.is_path_sep(i + 1) && file.is_ident(i + 3, "spawn") {
            out.push(diag(
                file,
                rules::SCOPED_THREADS_ONLY,
                i,
                "`thread::spawn` outside the portfolio module; use \
                 `std::thread::scope` via the portfolio so threads are joined, \
                 cancellable, and panic-isolated"
                    .to_string(),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(path: &str, src: &str) -> Vec<Diagnostic> {
        check_file(&SourceFile::parse(path, src), &Manifest::default())
    }

    #[test]
    fn unwrap_on_solve_path_flagged_with_position() {
        let d = check(
            "crates/cp/src/x.rs",
            "fn f(o: Option<u32>) -> u32 {\n    o.unwrap()\n}\n",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "no-solve-path-panic");
        assert_eq!((d[0].line, d[0].col), (2, 7));
    }

    #[test]
    fn unwrap_off_solve_path_ignored() {
        let d = check(
            "crates/viz/src/x.rs",
            "fn f(o: Option<u32>) { o.unwrap(); }",
        );
        assert!(d.is_empty());
    }

    #[test]
    fn test_mod_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn g() { None::<u32>.unwrap(); }\n}\n";
        assert!(check("crates/cp/src/x.rs", src).is_empty());
    }

    #[test]
    fn test_only_struct_field_is_exempt() {
        let src = "\
struct S {
    a: u32,
    #[cfg(test)]
    b: Option<u32>,
}
fn f(s: S) -> u32 { s.b.unwrap() }
";
        let d = check("crates/cp/src/x.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 6);
    }

    #[test]
    fn indexing_flagged_but_types_are_not() {
        let d = check(
            "crates/cp/src/x.rs",
            "fn f(xs: &[u32], i: usize) -> u32 { xs[i] }\n",
        );
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("indexing"));
        let clean = check("crates/cp/src/x.rs", "fn g() -> [u8; 4] { *b\"abcd\" }\n");
        assert!(clean.is_empty());
    }

    #[test]
    fn hot_path_marker_governs_next_fn() {
        let src = "\
// tela-lint: hot-path
fn hot(xs: &mut Vec<u32>) {
    let v = Vec::new();
    xs.clone();
}
fn cold() { let _ = Vec::<u32>::new(); }
";
        let d = check("crates/viz/src/x.rs", src);
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|d| d.rule == "no-hot-alloc"));
        assert_eq!(d[0].line, 3);
        assert_eq!(d[1].line, 4);
    }

    #[test]
    fn arc_clone_is_exempt_in_hot_path() {
        let src = "// tela-lint: hot-path\nfn hot(x: &Arc<u32>) { let _ = Arc::clone(x); }\n";
        assert!(check("crates/viz/src/x.rs", src).is_empty());
    }

    #[test]
    fn clock_rule_respects_manifest() {
        let src = "fn f() { let _ = Instant::now(); }";
        assert_eq!(check("crates/cp/src/x.rs", src).len(), 1);
        assert!(check("crates/model/src/budget.rs", src).is_empty());
        assert!(check("crates/bench/src/bin/x.rs", src).is_empty());
    }

    #[test]
    fn poisoned_lock_patterns() {
        let bad = "fn f(m: &Mutex<u32>) { let _ = m.lock().unwrap(); }";
        let d = check("crates/viz/src/x.rs", bad);
        // `.lock().unwrap()` trips poison rule (and nothing else off the
        // solve path).
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "poison-proof-locks");
        let good =
            "fn f(m: &Mutex<u32>) { let _ = m.lock().unwrap_or_else(PoisonError::into_inner); }";
        assert!(check("crates/viz/src/x.rs", good).is_empty());
    }

    #[test]
    fn thread_spawn_only_in_portfolio() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        assert_eq!(check("crates/viz/src/x.rs", src).len(), 1);
        assert!(check("crates/core/src/portfolio.rs", src).is_empty());
    }
}
