//! A scanned source file: tokens plus the derived structure rules need —
//! test-code regions (skipped by every rule), `tela-lint:` directives
//! parsed out of line comments, and small token-sequence helpers.

use crate::lexer::{lex, Comment, Token, TokenKind};

/// An inline `// tela-lint: allow(rule, reason = "…")` suppression.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// The rule id being suppressed.
    pub rule: String,
    /// Whether a non-empty `reason = "…"` was supplied. Reason-less
    /// suppressions do not suppress — they are a hygiene violation.
    pub reasoned: bool,
    /// Line the comment sits on. It covers diagnostics on this line and
    /// the next, so it can trail the offending code or sit above it.
    pub line: u32,
    pub col: u32,
}

/// A malformed `tela-lint:` directive (unknown verb, bad syntax).
#[derive(Debug, Clone)]
pub struct BadDirective {
    pub line: u32,
    pub col: u32,
    pub message: String,
}

/// A fully scanned file ready for rule checks.
#[derive(Debug)]
pub struct SourceFile {
    /// Repo-relative path with `/` separators (stable across hosts).
    pub path: String,
    pub text: String,
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
    /// Byte ranges of `#[test]` / `#[cfg(test)]`-attributed items (and
    /// everything under a `#![cfg(test)]` inner attribute). Rules skip
    /// tokens inside these: tests unwrap and clock freely by design.
    test_regions: Vec<(usize, usize)>,
    pub suppressions: Vec<Suppression>,
    /// Lines carrying a `// tela-lint: hot-path` marker.
    pub hot_markers: Vec<u32>,
    pub bad_directives: Vec<BadDirective>,
}

impl SourceFile {
    /// Scans `text` under the given repo-relative path.
    pub fn parse(path: &str, text: &str) -> SourceFile {
        let lexed = lex(text);
        let test_regions = find_test_regions(&lexed.tokens, text);
        let mut suppressions = Vec::new();
        let mut hot_markers = Vec::new();
        let mut bad_directives = Vec::new();
        for c in &lexed.comments {
            parse_directive(c, &mut suppressions, &mut hot_markers, &mut bad_directives);
        }
        SourceFile {
            path: path.to_string(),
            text: text.to_string(),
            tokens: lexed.tokens,
            comments: lexed.comments,
            test_regions,
            suppressions,
            hot_markers,
            bad_directives,
        }
    }

    /// The source text of token `i`.
    pub fn tok_str(&self, i: usize) -> &str {
        let t = &self.tokens[i];
        &self.text[t.start..t.end]
    }

    /// Is token `i` the identifier `name`?
    pub fn is_ident(&self, i: usize, name: &str) -> bool {
        self.tokens
            .get(i)
            .is_some_and(|t| t.kind == TokenKind::Ident && self.tok_str(i) == name)
    }

    /// Is token `i` the punctuation `c`?
    pub fn is_punct(&self, i: usize, c: char) -> bool {
        self.tokens
            .get(i)
            .is_some_and(|t| t.kind == TokenKind::Punct(c))
    }

    /// Does `::` start at token `i`?
    pub fn is_path_sep(&self, i: usize) -> bool {
        self.is_punct(i, ':') && self.is_punct(i + 1, ':')
    }

    /// Is token `i` inside test code?
    pub fn in_test(&self, i: usize) -> bool {
        let pos = self.tokens[i].start;
        self.test_regions
            .iter()
            .any(|&(lo, hi)| pos >= lo && pos < hi)
    }

    /// Index of the matching close for the open bracket at `open`
    /// (`(`/`)`, `[`/`]`, `{`/`}`), or `tokens.len()` if unbalanced.
    pub fn matching_close(&self, open: usize) -> usize {
        let (o, c) = match self.tokens[open].kind {
            TokenKind::Punct('(') => ('(', ')'),
            TokenKind::Punct('[') => ('[', ']'),
            TokenKind::Punct('{') => ('{', '}'),
            _ => return self.tokens.len(),
        };
        let mut depth = 0usize;
        for j in open..self.tokens.len() {
            if self.is_punct(j, o) {
                depth += 1;
            } else if self.is_punct(j, c) {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
        }
        self.tokens.len()
    }
}

/// Parses one comment for a `tela-lint:` directive.
fn parse_directive(
    c: &Comment,
    suppressions: &mut Vec<Suppression>,
    hot_markers: &mut Vec<u32>,
    bad: &mut Vec<BadDirective>,
) {
    let body = c.text.trim_start_matches('/').trim();
    let Some(rest) = body.strip_prefix("tela-lint:") else {
        return;
    };
    let rest = rest.trim();
    if rest == "hot-path" {
        hot_markers.push(c.line);
        return;
    }
    if let Some(args) = rest
        .strip_prefix("allow(")
        .and_then(|r| r.strip_suffix(')'))
    {
        let (rule, tail) = match args.split_once(',') {
            Some((r, t)) => (r.trim(), t.trim()),
            None => (args.trim(), ""),
        };
        if rule.is_empty() {
            bad.push(BadDirective {
                line: c.line,
                col: c.col,
                message: "allow(…) names no rule".to_string(),
            });
            return;
        }
        let reasoned = tail
            .strip_prefix("reason")
            .map(|t| t.trim_start().trim_start_matches('='))
            .map(|t| {
                let t = t.trim();
                t.len() > 2 && t.starts_with('"') && t.ends_with('"')
            })
            .unwrap_or(false);
        if !reasoned {
            bad.push(BadDirective {
                line: c.line,
                col: c.col,
                message: format!(
                    "allow({rule}) has no reason — write allow({rule}, reason = \"…\")"
                ),
            });
        }
        suppressions.push(Suppression {
            rule: rule.to_string(),
            reasoned,
            line: c.line,
            col: c.col,
        });
        return;
    }
    bad.push(BadDirective {
        line: c.line,
        col: c.col,
        message: format!("unknown tela-lint directive `{rest}`"),
    });
}

/// Finds byte ranges of test code by walking attributes in the token
/// stream. An attribute is "testish" when it contains the ident `test`
/// outside a `not(…)` group: `#[test]`, `#[cfg(test)]`,
/// `#[cfg(all(test, …))]`, `#[cfg_attr(test, …)]`. The attributed item
/// extends to the first top-level `;` or the close of its first
/// top-level `{…}` block. An inner `#![cfg(test)]` marks the whole file.
fn find_test_regions(tokens: &[Token], text: &str) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let is_punct = |i: usize, c: char| {
        tokens
            .get(i)
            .is_some_and(|t: &Token| t.kind == TokenKind::Punct(c))
    };
    let mut i = 0;
    while i < tokens.len() {
        if !is_punct(i, '#') {
            i += 1;
            continue;
        }
        let inner = is_punct(i + 1, '!');
        let bracket = if inner { i + 2 } else { i + 1 };
        if !is_punct(bracket, '[') {
            i += 1;
            continue;
        }
        // Find the matching `]`.
        let mut depth = 0usize;
        let mut close = None;
        for j in bracket..tokens.len() {
            if is_punct(j, '[') {
                depth += 1;
            } else if is_punct(j, ']') {
                depth -= 1;
                if depth == 0 {
                    close = Some(j);
                    break;
                }
            }
        }
        let Some(close) = close else { break };
        if attr_is_testish(tokens, text, bracket + 1, close) {
            if inner {
                regions.push((tokens[i].start, text.len()));
                return regions;
            }
            if let Some(end) = item_end(tokens, close + 1, &is_punct) {
                regions.push((tokens[i].start, end));
            }
        }
        i = close + 1;
    }
    regions
}

/// Is there an ident `test` in `tokens[lo..hi]` outside a `not(…)`
/// group?
fn attr_is_testish(tokens: &[Token], text: &str, lo: usize, hi: usize) -> bool {
    let word = |t: &Token| &text[t.start..t.end];
    let mut j = lo;
    while j < hi {
        let t = &tokens[j];
        if t.kind == TokenKind::Ident {
            match word(t) {
                "not"
                    if tokens
                        .get(j + 1)
                        .is_some_and(|n| n.kind == TokenKind::Punct('(')) =>
                {
                    // Skip the whole not(…) group.
                    let mut depth = 0usize;
                    j += 1;
                    while j < hi {
                        match tokens[j].kind {
                            TokenKind::Punct('(') => depth += 1,
                            TokenKind::Punct(')') => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                }
                "test" => return true,
                _ => {}
            }
        }
        j += 1;
    }
    false
}

/// Span of the item following an attribute: from the attribute's first
/// token to the first top-level `;` or the close of the first top-level
/// brace block. Leading extra attributes are consumed into the item. A
/// `}` closing an enclosing block (the attribute sat on a struct field
/// or a trailing expression) ends the item just before it.
fn item_end(
    tokens: &[Token],
    mut k: usize,
    is_punct: &dyn Fn(usize, char) -> bool,
) -> Option<usize> {
    // Skip any further attributes stacked on the same item.
    while is_punct(k, '#') && is_punct(k + 1, '[') {
        let mut depth = 0usize;
        let mut j = k + 1;
        loop {
            if j >= tokens.len() {
                return None;
            }
            if is_punct(j, '[') {
                depth += 1;
            } else if is_punct(j, ']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        k = j + 1;
    }
    let mut brace_depth = 0usize;
    let mut angle_guard = 0usize; // parens/brackets, so `;` in `[u8; 4]` is skipped
    for (j, tok) in tokens.iter().enumerate().skip(k) {
        if is_punct(j, '(') || is_punct(j, '[') {
            angle_guard += 1;
        } else if is_punct(j, ')') || is_punct(j, ']') {
            angle_guard = angle_guard.saturating_sub(1);
        } else if is_punct(j, '{') {
            brace_depth += 1;
        } else if is_punct(j, '}') {
            if brace_depth == 0 {
                return Some(tok.start);
            }
            brace_depth -= 1;
            if brace_depth == 0 {
                return Some(tok.end);
            }
        } else if is_punct(j, ';') && brace_depth == 0 && angle_guard == 0 {
            return Some(tok.end);
        }
    }
    None
}
