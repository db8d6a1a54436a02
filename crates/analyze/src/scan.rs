//! Token-level structure over a lexed file: `#[cfg(test)]` / `#[test]`
//! region detection, `nbl-allow` suppression directives, and the small
//! syntactic queries the lints share (attribute spans, matching braces,
//! enclosing-call callees).

use crate::lexer::{lex, TokKind, Token};
use crate::source::SourceFile;

/// An inline `// nbl-allow(<id>): reason` suppression directive.
#[derive(Debug, Clone)]
pub struct AllowDirective {
    /// The lint ID inside the parentheses.
    pub id: String,
    /// The reason text after the colon (trimmed; may be empty, which is
    /// itself reported by the `bad-allow` meta-lint).
    pub reason: String,
    /// 1-based line the directive appears on.
    pub line: u32,
    /// Byte offset of the directive within its comment, for diagnostics.
    pub off: usize,
}

/// A lexed file plus the structural facts lints query.
pub struct Scan<'a> {
    /// The underlying source file.
    pub file: &'a SourceFile,
    /// The token stream (comments included).
    pub tokens: Vec<Token>,
    /// Byte ranges covered by `#[cfg(test)]` items and `#[test]` fns.
    test_ranges: Vec<(usize, usize)>,
    /// All `nbl-allow` directives found in comments.
    pub allows: Vec<AllowDirective>,
}

impl<'a> Scan<'a> {
    /// Lexes `file` and computes test regions and allow directives.
    pub fn new(file: &'a SourceFile) -> Scan<'a> {
        let tokens = lex(&file.text);
        let test_ranges = find_test_ranges(&file.text, &tokens);
        let allows = find_allows(file, &tokens);
        Scan {
            file,
            tokens,
            test_ranges,
            allows,
        }
    }

    /// The file's source text.
    pub fn src(&self) -> &str {
        &self.file.text
    }

    /// Whether byte offset `off` falls inside test-only code.
    pub fn in_test(&self, off: usize) -> bool {
        self.test_ranges.iter().any(|&(a, b)| off >= a && off < b)
    }

    /// The names of the out-of-line modules (`mod name;`) declared inside
    /// test-only code, e.g. `#[cfg(all(test, feature = "x"))] mod prop;`:
    /// their files are test code as a whole.
    pub fn test_mod_decls(&self) -> Vec<&str> {
        let src = self.src();
        self.tokens
            .windows(3)
            .filter(|w| {
                w[0].is_ident(src, "mod")
                    && w[1].kind == TokKind::Ident
                    && w[2].is_punct(src, ';')
                    && self.in_test(w[0].off)
            })
            .map(|w| w[1].text(src))
            .collect()
    }

    /// Marks the whole file as test-only code (its module is declared
    /// under a test cfg elsewhere).
    pub fn mark_test_only(&mut self) {
        self.test_ranges = vec![(0, self.file.text.len())];
    }

    /// Whether a finding of `lint` at 1-based `line` is suppressed by an
    /// `nbl-allow` directive on the same line or the line directly above.
    /// Directives with an empty reason do not suppress (they are reported
    /// by `bad-allow` instead, so a reasonless allow never hides anything).
    pub fn is_allowed(&self, lint: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| a.id == lint && !a.reason.is_empty() && (a.line == line || a.line + 1 == line))
    }

    /// The callee identifier of the innermost call expression enclosing
    /// the token at index `idx`, if any. Walks backwards balancing
    /// parentheses; gives up at a `{`, `}` or `;` outside any call.
    pub fn enclosing_callee(&self, idx: usize) -> Option<&str> {
        let mut depth = 0i32;
        let mut i = idx;
        while i > 0 {
            i -= 1;
            let t = self.tokens[i];
            if matches!(t.kind, TokKind::Comment { .. }) {
                continue;
            }
            if t.kind == TokKind::Punct {
                match t.text(self.src()) {
                    ")" | "]" => depth += 1,
                    "(" | "[" => {
                        if depth == 0 {
                            // Opening of the enclosing group: callee is the
                            // ident immediately before the `(`.
                            if t.is_punct(self.src(), '(') && i > 0 {
                                let prev = self.tokens[i - 1];
                                if prev.kind == TokKind::Ident {
                                    return Some(prev.text(self.src()));
                                }
                            }
                            return None;
                        }
                        depth -= 1;
                    }
                    "{" | "}" | ";" if depth == 0 => {
                        return None;
                    }
                    _ => {}
                }
            }
        }
        None
    }
}

/// Parses `nbl-allow(<id>): reason` directives out of comment tokens.
fn find_allows(file: &SourceFile, tokens: &[Token]) -> Vec<AllowDirective> {
    let mut out = Vec::new();
    for t in tokens {
        if !matches!(t.kind, TokKind::Comment { .. }) {
            continue;
        }
        let text = t.text(&file.text);
        let mut search = 0;
        while let Some(rel) = text[search..].find("nbl-allow(") {
            let at = search + rel;
            let after = at + "nbl-allow(".len();
            let Some(close) = text[after..].find(')') else {
                break;
            };
            let id = text[after..after + close].trim().to_string();
            let mut rest = &text[after + close + 1..];
            let reason = if let Some(stripped) = rest.trim_start().strip_prefix(':') {
                rest = stripped;
                rest.trim().trim_end_matches("*/").trim().to_string()
            } else {
                String::new()
            };
            out.push(AllowDirective {
                id,
                reason,
                line: file.line_of(t.off + at),
                off: t.off + at,
            });
            search = after + close + 1;
        }
    }
    out
}

/// Finds the byte ranges of items annotated `#[cfg(test)]` (typically
/// `mod tests { … }`) and of `#[test]` / `#[proptest]`-style test fns.
fn find_test_ranges(src: &str, tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is_punct(src, '#') {
            i += 1;
            continue;
        }
        let Some((attr_end, is_test_attr)) = parse_attr(src, tokens, i) else {
            i += 1;
            continue;
        };
        if !is_test_attr {
            i = attr_end;
            continue;
        }
        // Skip any further attribute groups between this one and the item.
        let mut j = attr_end;
        while j < tokens.len() && tokens[j].is_punct(src, '#') {
            match parse_attr(src, tokens, j) {
                Some((end, _)) => j = end,
                None => break,
            }
        }
        // The annotated item runs to its matching close brace (or to the
        // terminating `;` for brace-less forms like `mod tests;`).
        let start = tokens[i].off;
        let mut end = src.len();
        let mut k = j;
        while k < tokens.len() {
            let t = tokens[k];
            if t.is_punct(src, '{') {
                end = match_brace(src, tokens, k)
                    .map(|ci| tokens[ci].off + 1)
                    .unwrap_or(src.len());
                break;
            }
            if t.is_punct(src, ';') {
                end = t.off + 1;
                break;
            }
            k += 1;
        }
        ranges.push((start, end));
        i = j;
    }
    ranges
}

/// Parses the attribute group starting at token `i` (which must be `#`).
/// Returns `(index_past_group, is_test_marker)` where the marker is true
/// for `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]` and similar —
/// i.e. any attribute whose path is `test` or whose `cfg(...)` mentions
/// the bare ident `test`.
fn parse_attr(src: &str, tokens: &[Token], i: usize) -> Option<(usize, bool)> {
    let mut j = i + 1;
    // Inner attributes `#![…]` also get skipped (never test markers here).
    if j < tokens.len() && tokens[j].is_punct(src, '!') {
        j += 1;
    }
    if j >= tokens.len() || !tokens[j].is_punct(src, '[') {
        return None;
    }
    let close = match_bracket(src, tokens, j)?;
    let inner = &tokens[j + 1..close];
    let mut is_test = false;
    if let Some(first) = inner.first() {
        if first.is_ident(src, "test") && inner.len() == 1 {
            is_test = true;
        } else if first.is_ident(src, "cfg") {
            is_test = inner.iter().any(|t| t.is_ident(src, "test"));
        }
    }
    Some((close + 1, is_test))
}

/// Index of the `]` matching the `[` at token `open`.
fn match_bracket(src: &str, tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(src, '[') {
            depth += 1;
        } else if t.is_punct(src, ']') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Index of the `}` matching the `{` at token `open`.
pub fn match_brace(src: &str, tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(src, '{') {
            depth += 1;
        } else if t.is_punct(src, '}') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn scan(text: &str) -> (SourceFile, Vec<Token>) {
        let f = SourceFile::from_text(Path::new("/r"), Path::new("/r/x.rs"), text.to_string());
        let t = lex(&f.text);
        (f, t)
    }

    #[test]
    fn cfg_test_mod_is_a_test_range() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn after() {}\n";
        let (f, _) = scan(src);
        let s = Scan::new(&f);
        let helper_off = src.find("helper").unwrap();
        let live_off = src.find("live").unwrap();
        let after_off = src.find("after").unwrap();
        assert!(s.in_test(helper_off));
        assert!(!s.in_test(live_off));
        assert!(!s.in_test(after_off));
    }

    #[test]
    fn test_fn_with_extra_attrs() {
        let src = "#[test]\n#[ignore]\nfn t() { body(); }\nfn live() {}\n";
        let (f, _) = scan(src);
        let s = Scan::new(&f);
        assert!(s.in_test(src.find("body").unwrap()));
        assert!(!s.in_test(src.find("live").unwrap()));
    }

    #[test]
    fn cfg_all_test_counts() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nmod m { fn inner() {} }\n";
        let (f, _) = scan(src);
        let s = Scan::new(&f);
        assert!(s.in_test(src.find("inner").unwrap()));
    }

    #[test]
    fn out_of_line_test_modules_are_declared() {
        let src = "#[cfg(all(test, feature = \"p\"))]\nmod prop;\nmod live;\n#[cfg(test)]\nmod tests { mod inner; }\n";
        let (f, _) = scan(src);
        let mut s = Scan::new(&f);
        assert_eq!(s.test_mod_decls(), vec!["prop", "inner"]);
        assert!(!s.in_test(src.find("live").unwrap()));
        s.mark_test_only();
        assert!(s.in_test(src.find("live").unwrap()));
    }

    #[test]
    fn allow_directive_parses() {
        let src = "let x = 1; // nbl-allow(no-panic): chunks_exact guarantees 8 bytes\n";
        let (f, _) = scan(src);
        let s = Scan::new(&f);
        assert_eq!(s.allows.len(), 1);
        assert_eq!(s.allows[0].id, "no-panic");
        assert_eq!(s.allows[0].reason, "chunks_exact guarantees 8 bytes");
        assert!(s.is_allowed("no-panic", 1));
        assert!(!s.is_allowed("determinism", 1));
    }

    #[test]
    fn allow_above_covers_next_line() {
        let src = "// nbl-allow(determinism): fixed-seed hasher\nuse std::collections::HashMap;\n";
        let (f, _) = scan(src);
        let s = Scan::new(&f);
        assert!(s.is_allowed("determinism", 2));
        assert!(!s.is_allowed("determinism", 3));
    }

    #[test]
    fn empty_reason_does_not_suppress() {
        let src = "x.unwrap(); // nbl-allow(no-panic)\ny.unwrap(); // nbl-allow(no-panic):   \n";
        let (f, _) = scan(src);
        let s = Scan::new(&f);
        assert_eq!(s.allows.len(), 2);
        assert!(s.allows.iter().all(|a| a.reason.is_empty()));
        assert!(!s.is_allowed("no-panic", 1));
        assert!(!s.is_allowed("no-panic", 2));
    }

    #[test]
    fn enclosing_callee_finds_emit() {
        let src = "fn f(&mut self) { self.emit(MemEvent::Issued { a: 1 }); }";
        let (f, t) = scan(src);
        let s = Scan::new(&f);
        let idx = t.iter().position(|t| t.is_ident(src, "MemEvent")).unwrap();
        assert_eq!(s.enclosing_callee(idx), Some("emit"));
    }

    #[test]
    fn enclosing_callee_none_at_statement_level() {
        let src = "fn f() { let e = MemEvent::Issued; }";
        let (f, t) = scan(src);
        let s = Scan::new(&f);
        let idx = t.iter().position(|t| t.is_ident(src, "MemEvent")).unwrap();
        assert_eq!(s.enclosing_callee(idx), None);
    }
}
