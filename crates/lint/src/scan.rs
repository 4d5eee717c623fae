//! Lightweight structural model of one Rust source file.
//!
//! The analyzer does not parse Rust — it *masks* it. [`SourceFile::parse`]
//! produces a byte-for-byte copy of the source in which every comment and
//! every string/char-literal body is replaced by spaces (newlines kept),
//! so downstream rules can search for identifiers and match braces without
//! tripping over `"HashMap"` inside a string or a `{` inside a comment.
//! On top of the masked text it extracts just enough structure for the
//! rules: function bodies, `impl` blocks, `#[cfg(test)]`
//! regions, string-literal spans, and inline allow-directive comments.

use std::collections::BTreeMap;
use std::path::PathBuf;

/// A recorded string literal: byte offset of the opening quote and the
/// raw (unescaped-as-written) contents between the quotes.
#[derive(Debug, Clone)]
pub struct StrLit {
    /// Byte offset of the opening `"` in the file.
    pub offset: usize,
    /// Literal contents, exactly as written (escapes not processed).
    pub value: String,
}

/// A `// pimdsm-lint: allow(RULE, "reason")` directive.
#[derive(Debug, Clone)]
pub struct AllowDirective {
    /// 1-indexed line the directive comment sits on.
    pub line: usize,
    /// Rule id being suppressed, e.g. `D001`.
    pub rule: String,
    /// The justification string (may be empty if malformed).
    pub reason: String,
    /// Whether the directive's line holds only the comment, in which case
    /// it suppresses the *next* line instead of its own.
    pub own_line: bool,
}

/// Byte range of one function: `name`, and the `{}` body span
/// (exclusive of the braces themselves).
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// Function name.
    pub name: String,
    /// Byte offset of the `fn` keyword.
    pub start: usize,
    /// Byte offset just past the opening `{`.
    pub body_start: usize,
    /// Byte offset of the closing `}`.
    pub body_end: usize,
}

/// One `impl` block: the implementing type (last path segment, generics
/// stripped; for `impl Trait for T` this is `T`) and its body span.
#[derive(Debug, Clone)]
pub struct ImplSpan {
    /// Self type of the impl, e.g. `ProtoStats`.
    pub ty: String,
    /// Byte offset just past the opening `{`.
    pub body_start: usize,
    /// Byte offset of the closing `}`.
    pub body_end: usize,
}

/// One scanned source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Absolute path on disk.
    pub path: PathBuf,
    /// Workspace-relative path with forward slashes (used in diagnostics).
    pub rel: String,
    /// Original text.
    pub raw: String,
    /// Text with comments and literal bodies blanked.
    pub masked: String,
    /// Byte offsets of line starts (index 0 = line 1).
    line_starts: Vec<usize>,
    /// All string literals, in file order.
    pub strings: Vec<StrLit>,
    /// Allow directives, keyed by the line they *suppress*.
    pub allows: BTreeMap<usize, Vec<AllowDirective>>,
    /// Malformed allow directives (missing rule or empty reason).
    pub bad_allows: Vec<AllowDirective>,
    /// Byte ranges covered by `#[cfg(test)]` items (usually `mod tests`).
    pub test_regions: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Scans `raw`, producing the masked text and structural indexes.
    pub fn parse(path: PathBuf, rel: String, raw: String) -> SourceFile {
        let (masked, strings, line_comments) = mask(&raw);
        let line_starts = line_starts(&raw);
        let mut f = SourceFile {
            path,
            rel,
            raw,
            masked,
            line_starts,
            strings,
            allows: BTreeMap::new(),
            bad_allows: Vec::new(),
            test_regions: Vec::new(),
        };
        f.collect_allows(&line_comments);
        f.test_regions = f.collect_test_regions();
        f
    }

    /// 1-indexed line number of a byte offset.
    pub fn line_of(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// Whether `offset` falls inside a `#[cfg(test)]` region.
    pub fn in_test_region(&self, offset: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(s, e)| offset >= s && offset < e)
    }

    /// Whether a diagnostic for `rule` at `line` is suppressed by an
    /// allow directive on that line or on a directive-only line above it.
    pub fn is_allowed(&self, rule: &str, line: usize) -> bool {
        let hit = |l: usize, require_own_line: bool| {
            self.allows.get(&l).is_some_and(|ds| {
                ds.iter()
                    .any(|d| d.rule == rule && (!require_own_line || d.own_line))
            })
        };
        hit(line, false) || (line > 1 && hit(line - 1, true))
    }

    /// Every function defined in the file (including nested/test ones).
    pub fn fns(&self) -> Vec<FnSpan> {
        let b = self.masked.as_bytes();
        let mut out = Vec::new();
        for start in find_keyword(&self.masked, "fn") {
            // Name follows the keyword (skip whitespace).
            let mut i = start + 2;
            while i < b.len() && (b[i] as char).is_whitespace() {
                i += 1;
            }
            let name_start = i;
            while i < b.len() && is_ident_char(b[i]) {
                i += 1;
            }
            if i == name_start {
                continue; // `fn` in `Fn(..)` bounds never has a space+ident
            }
            let name = self.masked[name_start..i].to_string();
            // Body: first `{` at paren depth 0 after the signature.
            let mut depth = 0i32;
            let mut body_start = None;
            while i < b.len() {
                match b[i] {
                    b'(' => depth += 1,
                    b')' => depth -= 1,
                    b'{' if depth == 0 => {
                        body_start = Some(i + 1);
                        break;
                    }
                    b';' if depth == 0 => break, // trait method declaration
                    _ => {}
                }
                i += 1;
            }
            let Some(body_start) = body_start else {
                continue;
            };
            let Some(body_end) = match_brace(&self.masked, body_start - 1) else {
                continue;
            };
            out.push(FnSpan {
                name,
                start,
                body_start,
                body_end,
            });
        }
        out
    }

    /// Every `impl` block with its resolved self-type name.
    pub fn impls(&self) -> Vec<ImplSpan> {
        let b = self.masked.as_bytes();
        let mut out = Vec::new();
        for start in find_keyword(&self.masked, "impl") {
            let mut i = start + 4;
            // Skip generic parameters `<...>` directly after `impl`.
            while i < b.len() && (b[i] as char).is_whitespace() {
                i += 1;
            }
            if i < b.len() && b[i] == b'<' {
                let mut angle = 0i32;
                while i < b.len() {
                    match b[i] {
                        b'<' => angle += 1,
                        b'>' => {
                            angle -= 1;
                            if angle == 0 {
                                i += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
            }
            // Header runs to the opening `{` (angle-bracket aware so a
            // `Foo<Bar { .. }>` cannot occur; `where` clauses contain no
            // braces).
            let Some(open_rel) = self.masked[i..].find('{') else {
                continue;
            };
            let open = i + open_rel;
            let header = &self.masked[i..open];
            let ty_part = match header.rfind(" for ") {
                Some(p) => &header[p + 5..],
                None => header,
            };
            let ty_part = ty_part.split("where").next().unwrap_or(ty_part).trim();
            // Last path segment, generics stripped: `a::b::C<T>` -> `C`.
            let no_generics = ty_part.split('<').next().unwrap_or(ty_part).trim();
            let ty = no_generics
                .rsplit("::")
                .next()
                .unwrap_or(no_generics)
                .trim()
                .to_string();
            let Some(body_end) = match_brace(&self.masked, open) else {
                continue;
            };
            out.push(ImplSpan {
                ty,
                body_start: open + 1,
                body_end,
            });
        }
        out
    }

    /// Records the directives among the plain `//` line comments starting
    /// at `line_comments` (byte offsets from [`mask`]). Doc comments
    /// (`///`, `//!`) are prose that may quote the directive syntax, and
    /// string literals never reach here, so neither registers.
    fn collect_allows(&mut self, line_comments: &[usize]) {
        for &at in line_comments {
            let end = self.raw[at..].find('\n').map_or(self.raw.len(), |e| at + e);
            let text = &self.raw[at + 2..end];
            if text.starts_with('!') || (text.starts_with('/') && !text.starts_with("//")) {
                continue;
            }
            // The marker only counts as a directive when an `allow(`
            // follows — prose mentions of the tool name are not directives.
            let Some(pos) = text.find("pimdsm-lint:") else {
                continue;
            };
            let rest = &text[pos + "pimdsm-lint:".len()..];
            if !rest.trim_start().starts_with("allow(") {
                continue;
            }
            let line = self.line_of(at);
            let own_line = self.raw[self.line_starts[line - 1]..at].trim().is_empty();
            let (rule, reason) = parse_allow(rest).unwrap_or_default();
            let d = AllowDirective {
                line,
                rule,
                reason,
                own_line,
            };
            if d.rule.is_empty() || d.reason.trim().is_empty() {
                self.bad_allows.push(d);
            } else {
                self.allows.entry(line).or_default().push(d);
            }
        }
    }

    /// `#[cfg(test)]` followed (over whitespace and further attributes)
    /// by a braced item marks that item's span as test-only.
    fn collect_test_regions(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut search = 0usize;
        while let Some(rel) = self.masked[search..].find("#[cfg(test)]") {
            let at = search + rel;
            let mut i = at + "#[cfg(test)]".len();
            let b = self.masked.as_bytes();
            // Skip whitespace and subsequent attributes.
            loop {
                while i < b.len() && (b[i] as char).is_whitespace() {
                    i += 1;
                }
                if i < b.len() && b[i] == b'#' {
                    // Skip `#[...]`.
                    while i < b.len() && b[i] != b']' {
                        i += 1;
                    }
                    i += 1;
                } else {
                    break;
                }
            }
            // The guarded item runs to its closing brace (fn/mod/impl/…).
            if let Some(open_rel) = self.masked[i..].find('{') {
                let open = i + open_rel;
                if let Some(close) = match_brace(&self.masked, open) {
                    out.push((at, close + 1));
                    search = close + 1;
                    continue;
                }
            }
            search = at + 1;
        }
        out
    }
}

/// Parses ` allow(RULE, "reason")` (leading space optional). Returns the
/// rule id and reason; `None` when the shape is unrecognizable.
fn parse_allow(rest: &str) -> Option<(String, String)> {
    let rest = rest.trim_start();
    let body = rest.strip_prefix("allow(")?;
    let close = body.find(')')?;
    let inner = &body[..close];
    let (rule, reason) = match inner.find(',') {
        Some(c) => (&inner[..c], inner[c + 1..].trim()),
        None => (inner, ""),
    };
    let reason = reason.trim_matches('"').to_string();
    Some((rule.trim().to_string(), reason))
}

/// Offsets of `word` appearing as a standalone keyword/identifier.
pub fn find_keyword(text: &str, word: &str) -> Vec<usize> {
    let b = text.as_bytes();
    let mut out = Vec::new();
    let mut search = 0usize;
    while let Some(rel) = text[search..].find(word) {
        let at = search + rel;
        let before_ok = at == 0 || !is_ident_char(b[at - 1]);
        let after = at + word.len();
        let after_ok = after >= b.len() || !is_ident_char(b[after]);
        if before_ok && after_ok {
            out.push(at);
        }
        search = at + word.len();
    }
    out
}

/// Given the offset of a `{` in masked text, returns the offset of its
/// matching `}`.
pub fn match_brace(masked: &str, open: usize) -> Option<usize> {
    let b = masked.as_bytes();
    debug_assert_eq!(b[open], b'{');
    let mut depth = 0i32;
    for (i, &c) in b.iter().enumerate().skip(open) {
        match c {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Given the offset of a `(` in masked text, returns the offset of its
/// matching `)`.
pub fn match_paren(masked: &str, open: usize) -> Option<usize> {
    let b = masked.as_bytes();
    debug_assert_eq!(b[open], b'(');
    let mut depth = 0i32;
    for (i, &c) in b.iter().enumerate().skip(open) {
        match c {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

pub fn is_ident_char(c: u8) -> bool {
    (c as char).is_alphanumeric() || c == b'_'
}

fn line_starts(text: &str) -> Vec<usize> {
    let mut v = vec![0usize];
    for (i, c) in text.bytes().enumerate() {
        if c == b'\n' {
            v.push(i + 1);
        }
    }
    v
}

/// Produces the masked copy of `raw`, the recorded string literals and
/// the byte offset of every line comment's `//`.
///
/// Comments (line and nested block) are blanked entirely; string, raw
/// string, byte string and char literal *bodies* are blanked but their
/// delimiters kept, so token boundaries survive. Newlines always survive,
/// keeping byte offsets and line numbers identical to the original.
fn mask(raw: &str) -> (String, Vec<StrLit>, Vec<usize>) {
    let b = raw.as_bytes();
    let n = b.len();
    let mut out = Vec::with_capacity(n);
    let mut strings = Vec::new();
    let mut line_comments = Vec::new();
    let mut i = 0usize;

    let blank = |c: u8| if c == b'\n' { b'\n' } else { b' ' };

    while i < n {
        let c = b[i];
        // Line comment.
        if c == b'/' && i + 1 < n && b[i + 1] == b'/' {
            line_comments.push(i);
            while i < n && b[i] != b'\n' {
                out.push(b' ');
                i += 1;
            }
            continue;
        }
        // Block comment (nested).
        if c == b'/' && i + 1 < n && b[i + 1] == b'*' {
            let mut depth = 0i32;
            while i < n {
                if b[i] == b'/' && i + 1 < n && b[i + 1] == b'*' {
                    depth += 1;
                    out.push(b' ');
                    out.push(b' ');
                    i += 2;
                } else if b[i] == b'*' && i + 1 < n && b[i + 1] == b'/' {
                    depth -= 1;
                    out.push(b' ');
                    out.push(b' ');
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
            continue;
        }
        // Raw string r"..." / r#"..."# (optionally b-prefixed).
        if (c == b'r' || (c == b'b' && i + 1 < n && b[i + 1] == b'r'))
            && looks_like_raw_string(b, i)
        {
            let mut j = i + if c == b'b' { 2 } else { 1 };
            let mut hashes = 0usize;
            while j < n && b[j] == b'#' {
                hashes += 1;
                j += 1;
            }
            // Copy prefix + opening quote.
            for &p in &b[i..=j] {
                out.push(p);
            }
            let body_start = j + 1;
            let closer: Vec<u8> = std::iter::once(b'"')
                .chain(std::iter::repeat_n(b'#', hashes))
                .collect();
            let mut k = body_start;
            while k < n && !b[k..].starts_with(&closer) {
                out.push(blank(b[k]));
                k += 1;
            }
            strings.push(StrLit {
                offset: j,
                value: raw[body_start..k].to_string(),
            });
            for &p in &b[k..(k + closer.len()).min(n)] {
                out.push(p);
            }
            i = (k + closer.len()).min(n);
            continue;
        }
        // Plain or byte string.
        if c == b'"' || (c == b'b' && i + 1 < n && b[i + 1] == b'"') {
            let q = if c == b'b' { i + 1 } else { i };
            if c == b'b' {
                out.push(b'b');
            }
            out.push(b'"');
            let mut k = q + 1;
            while k < n && b[k] != b'"' {
                if b[k] == b'\\' && k + 1 < n {
                    out.push(b' ');
                    out.push(blank(b[k + 1]));
                    k += 2;
                } else {
                    out.push(blank(b[k]));
                    k += 1;
                }
            }
            strings.push(StrLit {
                offset: q,
                value: raw[q + 1..k].to_string(),
            });
            if k < n {
                out.push(b'"');
                k += 1;
            }
            i = k;
            continue;
        }
        // Char literal vs lifetime.
        if c == b'\'' {
            let is_char = if i + 1 < n && b[i + 1] == b'\\' {
                true
            } else {
                // 'x' is a char; 'x<ident-char> is a lifetime.
                i + 2 < n && b[i + 2] == b'\'' && b[i + 1] != b'\''
            };
            if is_char {
                out.push(b'\'');
                let mut k = i + 1;
                if b[k] == b'\\' {
                    out.push(b' ');
                    out.push(b' ');
                    k += 2;
                    // Multi-char escapes (\u{...}, \x41).
                    while k < n && b[k] != b'\'' {
                        out.push(b' ');
                        k += 1;
                    }
                } else {
                    out.push(b' ');
                    k += 1;
                }
                if k < n {
                    out.push(b'\'');
                    k += 1;
                }
                i = k;
                continue;
            }
        }
        out.push(c);
        i += 1;
    }
    (
        String::from_utf8(out).expect("masking preserves UTF-8 only at ASCII"),
        strings,
        line_comments,
    )
}

/// Distinguishes `r"..."`/`r#"` raw strings from identifiers starting
/// with `r` (like `rel`) and from `r#raw_ident`.
fn looks_like_raw_string(b: &[u8], i: usize) -> bool {
    let mut j = i + if b[i] == b'b' { 2 } else { 1 };
    // Identifier chars before mean this `r` is inside a name — callers
    // only reach here at a token boundary, but be safe.
    if i > 0 && is_ident_char(b[i - 1]) {
        return false;
    }
    let mut hashes = 0;
    while j < b.len() && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    if j >= b.len() {
        return false;
    }
    if b[j] == b'"' {
        return true;
    }
    // `r#ident` (raw identifier) has exactly one hash and no quote.
    let _ = hashes;
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::parse(PathBuf::from("/t.rs"), "t.rs".into(), src.to_string())
    }

    #[test]
    fn masking_blanks_comments_and_strings() {
        let f = file("let x = \"HashMap\"; // HashMap\n/* HashMap */ let y = 1;");
        assert!(!f.masked.contains("HashMap"));
        assert!(f.raw.contains("HashMap"));
        assert_eq!(f.masked.len(), f.raw.len());
        assert_eq!(f.strings.len(), 1);
        assert_eq!(f.strings[0].value, "HashMap");
    }

    #[test]
    fn masking_handles_escapes_and_chars_and_lifetimes() {
        let f = file(r#"let a = '"'; let b = "say \"hi\""; fn f<'x>(v: &'x str) {}"#);
        assert!(f.masked.contains("'x>"));
        assert_eq!(f.strings.len(), 1);
        assert_eq!(f.strings[0].value, "say \\\"hi\\\"");
        assert_eq!(f.fns().len(), 1);
    }

    #[test]
    fn raw_strings_are_masked() {
        let f = file("let s = r#\"a { HashMap } b\"#; let t = r\"x\";");
        assert!(!f.masked.contains("HashMap"));
        assert_eq!(f.strings.len(), 2);
        assert_eq!(f.strings[1].value, "x");
    }

    #[test]
    fn fn_extraction_finds_bodies() {
        let f = file("fn alpha(x: u32) -> u32 { x + 1 }\nimpl T { fn beta(&self) { loop {} } }");
        let fns = f.fns();
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "alpha");
        assert_eq!(fns[1].name, "beta");
        assert!(f.masked[fns[1].body_start..fns[1].body_end].contains("loop"));
    }

    #[test]
    fn impl_extraction_resolves_trait_impl_target() {
        let f = file(
            "impl pimdsm_obs::ToJson for ProtoStats { fn to_json(&self) {} }\nimpl<K: Ord> KeyedQueue<K> { }",
        );
        let imps = f.impls();
        assert_eq!(imps[0].ty, "ProtoStats");
        assert_eq!(imps[1].ty, "KeyedQueue");
    }

    #[test]
    fn cfg_test_regions_cover_mod_tests() {
        let f = file("fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let x = 1; }\n}\n");
        assert_eq!(f.test_regions.len(), 1);
        let at = f.raw.find("let x").unwrap();
        assert!(f.in_test_region(at));
        assert!(!f.in_test_region(0));
    }

    #[test]
    fn allow_directives_parse_and_apply() {
        let f = file(
            "use foo; // pimdsm-lint: allow(D001, \"interned, never iterated\")\n// pimdsm-lint: allow(D002, \"bench only\")\nlet t = now();\nlet bad = 1; // pimdsm-lint: allow(D001)\n",
        );
        assert!(f.is_allowed("D001", 1));
        assert!(!f.is_allowed("D002", 1));
        assert!(f.is_allowed("D002", 3)); // own-line directive covers next line
        assert_eq!(f.bad_allows.len(), 1, "reason-less allow is malformed");
        assert_eq!(f.bad_allows[0].line, 4);
    }

    #[test]
    fn outer_doc_comments_are_not_directives() {
        let f = file("/// Suppress with `// pimdsm-lint: allow(D001, \"reason\")`.\nlet m = 1;\n");
        assert!(f.allows.is_empty() && f.bad_allows.is_empty());
        assert!(!f.is_allowed("D001", 2));
    }

    #[test]
    fn inner_doc_comments_are_not_directives() {
        let f = file("//! // pimdsm-lint: allow(D001, \"reason\")\n//! pimdsm-lint: allow(D002)\nlet m = 1;\n");
        assert!(f.allows.is_empty() && f.bad_allows.is_empty());
        assert!(!f.is_allowed("D001", 2));
    }

    #[test]
    fn directives_quoted_in_string_literals_are_not_directives() {
        let f = file(
            "let s = \"x; // pimdsm-lint: allow(D001, \\\"reason\\\")\";\nlet r = r#\"\n// pimdsm-lint: allow(D002, \"reason\")\n\"#;\n",
        );
        assert!(f.allows.is_empty() && f.bad_allows.is_empty());
        // A plain comment after the literal on the same line still counts.
        let g = file("let s = \"//\"; // pimdsm-lint: allow(D001, \"reason\")\n");
        assert!(g.is_allowed("D001", 1));
    }
}
