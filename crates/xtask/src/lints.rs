//! The five repo-specific lints. Each works on masked source (see
//! [`crate::lexer`]) so comments and string literals can never
//! false-positive, and each skips `#[cfg(test)]` regions — the lints
//! guard production code; tests are free to unwrap.

use crate::allow::Allowlist;
use crate::lexer::{ident_occurrences, lex, line_of, strip_tests, Lexed};

#[derive(Debug)]
pub struct Finding {
    pub lint: &'static str,
    pub file: String,
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}:{}: {}", self.lint, self.file, self.line, self.message)
    }
}

/// A lexed workspace source, ready for linting.
pub struct SourceFile {
    /// Path relative to the repo root, `/`-separated.
    pub rel: String,
    pub src: String,
    pub lexed: Lexed,
    /// Masked source with `#[cfg(test)]` regions blanked too.
    pub stripped: String,
    pub test_regions: Vec<(usize, usize)>,
}

impl SourceFile {
    pub fn from_source(rel: &str, src: &str) -> SourceFile {
        let lexed = lex(src);
        let (stripped, test_regions) = strip_tests(&lexed.masked);
        SourceFile {
            rel: rel.to_string(),
            src: src.to_string(),
            lexed,
            stripped,
            test_regions,
        }
    }

    fn in_test_region(&self, offset: usize) -> bool {
        self.test_regions.iter().any(|&(a, b)| offset >= a && offset < b)
    }

    fn src_line(&self, line: usize) -> &str {
        self.src.lines().nth(line.saturating_sub(1)).unwrap_or("")
    }
}

// ---------------------------------------------------------------- L1 --

/// How far above an `unsafe` token a `SAFETY:` / `# Safety` comment may
/// sit. Covers a doc block plus stacked attributes between the comment
/// and the keyword.
const SAFETY_WINDOW: usize = 16;

/// L1: every `unsafe` block / fn / impl carries a safety argument — a
/// `// SAFETY:` comment or a `# Safety` doc section ending within
/// [`SAFETY_WINDOW`] lines above the keyword.
pub fn l1_safety_comments(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    for off in ident_occurrences(&file.stripped, "unsafe") {
        let line = line_of(&file.stripped, off);
        let lo = line.saturating_sub(SAFETY_WINDOW);
        let documented = file
            .lexed
            .comments
            .iter()
            .any(|c| c.line >= lo && c.line <= line && (c.text.contains("SAFETY:") || c.text.contains("# Safety")));
        if !documented {
            findings.push(Finding {
                lint: "L1",
                file: file.rel.clone(),
                line,
                message: format!(
                    "`unsafe` without a `// SAFETY:` comment (or `# Safety` doc) within {SAFETY_WINDOW} lines: `{}`",
                    file.src_line(line).trim()
                ),
            });
        }
    }
    findings
}

// ---------------------------------------------------------------- L2 --

/// The serving hot paths: a panic here takes down a worker mid-request.
pub const HOT_PATHS: &[&str] = &[
    "crates/serve/src/server.rs",
    "crates/serve/src/batcher.rs",
    "crates/serve/src/protocol.rs",
    "crates/serve/src/latency.rs",
    "crates/serve/src/expose.rs",
    "crates/nn/src/gemm.rs",
    "crates/nn/src/gemv.rs",
    "crates/nn/src/tensor.rs",
];

/// L2: no `unwrap()` / `expect()` / `panic!` / `unreachable!` /
/// `todo!` / `unimplemented!` in hot-path production code, except
/// where `allow.toml` carries a justified entry matching the line.
/// `used` marks allowlist entries that matched at least one site.
pub fn l2_hot_path_panics(file: &SourceFile, allow: &Allowlist, used: &mut [bool]) -> Vec<Finding> {
    if !HOT_PATHS.contains(&file.rel.as_str()) {
        return Vec::new();
    }
    let bytes = file.stripped.as_bytes();
    let next_nonspace = |mut i: usize| {
        while i < bytes.len() && (bytes[i] == b' ' || bytes[i] == b'\n') {
            i += 1;
        }
        bytes.get(i).copied()
    };
    let prev_nonspace = |mut i: usize| loop {
        if i == 0 {
            return None;
        }
        i -= 1;
        if bytes[i] != b' ' && bytes[i] != b'\n' {
            return Some(bytes[i]);
        }
    };
    let mut sites: Vec<(usize, &str)> = Vec::new();
    for word in ["unwrap", "expect"] {
        for off in ident_occurrences(&file.stripped, word) {
            // `.unwrap(` — require a method call to skip e.g. a local
            // named `expect` or an `unwrap` in a path.
            if prev_nonspace(off) == Some(b'.') && next_nonspace(off + word.len()) == Some(b'(') {
                sites.push((off, word));
            }
        }
    }
    for mac in ["panic", "unreachable", "todo", "unimplemented"] {
        for off in ident_occurrences(&file.stripped, mac) {
            if bytes.get(off + mac.len()) == Some(&b'!') {
                sites.push((off, mac));
            }
        }
    }
    sites.sort_unstable();

    let mut findings = Vec::new();
    for (off, what) in sites {
        let line = line_of(&file.stripped, off);
        let trimmed = file.src_line(line).trim().to_string();
        let mut allowed = false;
        for (idx, entry) in allow.unwraps.iter().enumerate() {
            if entry.file == file.rel && trimmed.contains(&entry.line_contains) {
                used[idx] = true;
                allowed = true;
            }
        }
        if !allowed {
            findings.push(Finding {
                lint: "L2",
                file: file.rel.clone(),
                line,
                message: format!("`{what}` in a serving hot path (not in allow.toml): `{trimmed}`"),
            });
        }
    }
    findings
}

// ---------------------------------------------------------------- L3 --

/// Byte range of the brace block following `anchor` in masked code.
fn block_range(masked: &str, anchor: &str) -> Option<(usize, usize)> {
    let at = masked.find(anchor)?;
    let bytes = masked.as_bytes();
    let open = (at + anchor.len()..bytes.len()).find(|&i| bytes[i] == b'{')?;
    let mut depth = 0usize;
    for (i, b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some((at, i + 1));
                }
            }
            _ => {}
        }
    }
    None
}

fn is_upper_verb(s: &str) -> bool {
    s.len() >= 2 && s.bytes().all(|b| b.is_ascii_uppercase())
}

fn is_kebab(s: &str) -> bool {
    !s.is_empty() && s.bytes().all(|b| b.is_ascii_lowercase() || b == b'-') && !s.starts_with('-') && !s.ends_with('-')
}

/// String literals inside `range` that are immediately followed by `=>`
/// (i.e. match-arm patterns).
fn match_arm_literals(file: &SourceFile, range: (usize, usize)) -> impl Iterator<Item = &str> {
    file.lexed.strings.iter().filter_map(move |s| {
        if s.start < range.0 || s.end > range.1 || file.in_test_region(s.start) {
            return None;
        }
        let tail = file.stripped.get(s.end..)?;
        tail.trim_start().starts_with("=>").then_some(s.text.as_str())
    })
}

fn sorted_set(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v.dedup();
    v
}

/// The protocol facts extracted from `protocol.rs`: request verbs, reply
/// verbs, and the `ERR code=` kebab taxonomy.
pub struct ProtocolSurface {
    pub request_verbs: Vec<String>,
    pub reply_verbs: Vec<String>,
    pub error_codes: Vec<String>,
}

pub fn extract_protocol(file: &SourceFile) -> Result<ProtocolSurface, String> {
    let req = block_range(&file.stripped, "impl Request").ok_or("no `impl Request` block")?;
    let rep = block_range(&file.stripped, "impl Reply").ok_or("no `impl Reply` block")?;
    let err = block_range(&file.stripped, "impl ErrorCode").ok_or("no `impl ErrorCode` block")?;
    let request_verbs = sorted_set(
        match_arm_literals(file, req)
            .filter(|s| is_upper_verb(s))
            .map(str::to_string)
            .collect(),
    );
    let reply_verbs = sorted_set(
        match_arm_literals(file, rep)
            .filter(|s| is_upper_verb(s))
            .map(str::to_string)
            .collect(),
    );
    // `ErrorCode::parse` has the codes before `=>`, `as_str` after it —
    // take every kebab literal in the impl block; the two agree.
    let error_codes = sorted_set(
        file.lexed
            .strings
            .iter()
            .filter(|s| s.start >= err.0 && s.end <= err.1 && !file.in_test_region(s.start))
            .filter(|s| is_kebab(&s.text))
            .map(|s| s.text.clone())
            .collect(),
    );
    if request_verbs.is_empty() || reply_verbs.is_empty() || error_codes.is_empty() {
        return Err("protocol extraction came back empty — parser shape changed?".into());
    }
    Ok(ProtocolSurface {
        request_verbs,
        reply_verbs,
        error_codes,
    })
}

/// The same facts as read from README.md: quoted verbs out of the
/// ```text grammar fence, kebab codes out of the "`code=` is one of"
/// sentence.
pub fn extract_readme(readme: &str) -> Result<ProtocolSurface, String> {
    // Find the grammar fence: the ```text block containing `request :=`.
    let mut fence_body = None;
    let mut search = 0usize;
    while let Some(rel) = readme[search..].find("```text") {
        let start = search + rel + "```text".len();
        let end = readme[start..].find("```").map(|e| start + e).unwrap_or(readme.len());
        if readme[start..end].contains("request :=") {
            fence_body = Some(&readme[start..end]);
            break;
        }
        search = end;
    }
    let fence = fence_body.ok_or("README has no ```text grammar block containing `request :=`")?;

    let mut request_verbs = Vec::new();
    let mut reply_verbs = Vec::new();
    let mut current: Option<&mut Vec<String>> = None;
    for line in fence.lines() {
        let t = line.trim_start();
        if t.starts_with("request") && t.contains(":=") {
            current = Some(&mut request_verbs);
        } else if t.starts_with("reply") && t.contains(":=") {
            current = Some(&mut reply_verbs);
        }
        if let Some(bucket) = current.as_deref_mut() {
            // Quoted tokens on this production line.
            let mut rest = line;
            while let Some(q0) = rest.find('"') {
                let Some(q1) = rest[q0 + 1..].find('"') else { break };
                let tok = &rest[q0 + 1..q0 + 1 + q1];
                if is_upper_verb(tok) {
                    bucket.push(tok.to_string());
                }
                rest = &rest[q0 + 2 + q1..];
            }
        }
    }

    let codes_at = readme
        .find("`code=` is one of")
        .ok_or("README has no \"`code=` is one of\" taxonomy sentence")?;
    let tail = &readme[codes_at + "`code=` is one of".len()..];
    let sentence_end = tail
        .char_indices()
        .find(|&(i, c)| c == '.' && tail[i + 1..].chars().next().is_none_or(char::is_whitespace))
        .map(|(i, _)| i)
        .unwrap_or(tail.len().min(400));
    let sentence = &tail[..sentence_end];
    let mut error_codes = Vec::new();
    let mut rest = sentence;
    while let Some(b0) = rest.find('`') {
        let Some(b1) = rest[b0 + 1..].find('`') else { break };
        let tok = &rest[b0 + 1..b0 + 1 + b1];
        if is_kebab(tok) {
            error_codes.push(tok.to_string());
        }
        rest = &rest[b0 + 2 + b1..];
    }

    if request_verbs.is_empty() || reply_verbs.is_empty() || error_codes.is_empty() {
        return Err("README extraction came back empty — grammar block moved?".into());
    }
    Ok(ProtocolSurface {
        request_verbs: sorted_set(request_verbs),
        reply_verbs: sorted_set(reply_verbs),
        error_codes: sorted_set(error_codes),
    })
}

fn diff_sets(lint: &'static str, file: &str, what: &str, code: &[String], readme: &[String]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for v in code {
        if !readme.contains(v) {
            findings.push(Finding {
                lint,
                file: file.to_string(),
                line: 0,
                message: format!("{what} `{v}` is in protocol.rs but missing from the README grammar"),
            });
        }
    }
    for v in readme {
        if !code.contains(v) {
            findings.push(Finding {
                lint,
                file: "README.md".to_string(),
                line: 0,
                message: format!("{what} `{v}` is in the README grammar but not in protocol.rs"),
            });
        }
    }
    findings
}

/// L3: protocol drift — verb sets and error codes must agree between
/// `protocol.rs` and the README grammar.
pub fn l3_protocol_drift(protocol: &SourceFile, readme: &str) -> Vec<Finding> {
    let fail = |msg: String| {
        vec![Finding {
            lint: "L3",
            file: protocol.rel.clone(),
            line: 0,
            message: msg,
        }]
    };
    let code = match extract_protocol(protocol) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    let doc = match extract_readme(readme) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    let mut findings = Vec::new();
    findings.extend(diff_sets(
        "L3",
        &protocol.rel,
        "request verb",
        &code.request_verbs,
        &doc.request_verbs,
    ));
    findings.extend(diff_sets(
        "L3",
        &protocol.rel,
        "reply verb",
        &code.reply_verbs,
        &doc.reply_verbs,
    ));
    findings.extend(diff_sets(
        "L3",
        &protocol.rel,
        "error code",
        &code.error_codes,
        &doc.error_codes,
    ));
    findings
}

// ---------------------------------------------------------------- L5 --

const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Explicit atomic-ordering sites in non-test code.
pub fn ordering_sites(file: &SourceFile) -> Vec<usize> {
    ident_occurrences(&file.stripped, "Ordering")
        .into_iter()
        .filter(|&off| {
            let tail = &file.stripped[off + "Ordering".len()..];
            let Some(rest) = tail.strip_prefix("::") else {
                return false;
            };
            let ident: String = rest
                .bytes()
                .take_while(|&b| b.is_ascii_alphanumeric() || b == b'_')
                .map(char::from)
                .collect();
            ORDERINGS.contains(&ident.as_str())
        })
        .collect()
}

/// L5: every file using explicit atomic orderings needs an `[[ordering]]`
/// allowlist entry naming the synchronization argument, and the per-file
/// site count must not grow past the entry's `max`.
pub fn l5_atomic_orderings(file: &SourceFile, allow: &Allowlist, used: &mut [bool]) -> Vec<Finding> {
    let sites = ordering_sites(file);
    let entry = allow.orderings.iter().enumerate().find(|(_, e)| e.file == file.rel);
    if sites.is_empty() {
        return Vec::new();
    }
    let first_line = line_of(&file.stripped, sites[0]);
    match entry {
        None => vec![Finding {
            lint: "L5",
            file: file.rel.clone(),
            line: first_line,
            message: format!(
                "{} explicit atomic-ordering site(s) with no [[ordering]] entry in allow.toml",
                sites.len()
            ),
        }],
        Some((idx, e)) => {
            used[idx] = true;
            if sites.len() > e.max {
                vec![Finding {
                    lint: "L5",
                    file: file.rel.clone(),
                    line: line_of(&file.stripped, sites[e.max.min(sites.len() - 1)]),
                    message: format!(
                        "atomic-ordering sites grew to {} (allow.toml caps this file at {}) — \
                         justify the new site and raise `max`",
                        sites.len(),
                        e.max
                    ),
                }]
            } else {
                Vec::new()
            }
        }
    }
}

// ------------------------------------------------- allowlist hygiene --

/// Entries that matched nothing are stale — the shrink-only policy says
/// they must be deleted, not kept as headroom.
pub fn unused_allow_entries(allow: &Allowlist, unwrap_used: &[bool], ordering_used: &[bool]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (idx, e) in allow.unwraps.iter().enumerate() {
        if !unwrap_used[idx] {
            findings.push(Finding {
                lint: "allow",
                file: "crates/xtask/allow.toml".to_string(),
                line: e.decl_line,
                message: format!(
                    "stale [[unwrap]] entry: nothing in {} matches {:?} — delete it",
                    e.file, e.line_contains
                ),
            });
        }
    }
    for (idx, e) in allow.orderings.iter().enumerate() {
        if !ordering_used[idx] {
            findings.push(Finding {
                lint: "allow",
                file: "crates/xtask/allow.toml".to_string(),
                line: e.decl_line,
                message: format!("stale [[ordering]] entry: {} has no ordering sites — delete it", e.file),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allow;

    // ------------------------------------------------------------ L1 --

    #[test]
    fn l1_flags_a_naked_unsafe_block() {
        let f = SourceFile::from_source(
            "crates/nn/src/gemm.rs",
            "pub fn k(p: *const f32) -> f32 {\n    unsafe { *p }\n}\n",
        );
        let findings = l1_safety_comments(&f);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn l1_accepts_safety_comment_and_safety_doc() {
        let f = SourceFile::from_source(
            "crates/nn/src/gemm.rs",
            "pub fn k(p: *const f32) -> f32 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n\n/// Reads raw.\n///\n/// # Safety\n/// `p` must be valid for reads.\npub unsafe fn raw(p: *const f32) -> f32 {\n    *p\n}\n",
        );
        assert!(l1_safety_comments(&f).is_empty());
    }

    #[test]
    fn l1_does_not_fire_on_unsafe_in_strings_or_tests() {
        let f = SourceFile::from_source(
            "crates/serve/src/server.rs",
            "const DOC: &str = \"unsafe\";\n#[cfg(test)]\nmod tests {\n    fn t() { unsafe { std::hint::unreachable_unchecked() } }\n}\n",
        );
        assert!(l1_safety_comments(&f).is_empty());
    }

    // ------------------------------------------------------------ L2 --

    #[test]
    fn l2_flags_unwrap_in_hot_path_but_not_elsewhere() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let hot = SourceFile::from_source("crates/serve/src/batcher.rs", src);
        let cold = SourceFile::from_source("crates/bench/src/lib.rs", src);
        let allow = Allowlist::default();
        assert_eq!(l2_hot_path_panics(&hot, &allow, &mut []).len(), 1);
        assert!(l2_hot_path_panics(&cold, &allow, &mut []).is_empty());
    }

    #[test]
    fn l2_skips_unwrap_or_else_and_test_code() {
        let f = SourceFile::from_source(
            "crates/serve/src/latency.rs",
            "pub fn f(m: &std::sync::Mutex<u32>) -> u32 {\n    *m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)\n}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u32>.unwrap(); panic!(\"x\"); }\n}\n",
        );
        assert!(l2_hot_path_panics(&f, &Allowlist::default(), &mut []).is_empty());
    }

    #[test]
    fn l2_allowlist_matches_by_line_substring_and_marks_usage() {
        let f = SourceFile::from_source(
            "crates/serve/src/server.rs",
            "fn spawn() {\n    std::thread::Builder::new().spawn(|| {}).expect(\"spawn writer thread\");\n}\n",
        );
        let allow = allow::parse(
            "[[unwrap]]\nfile = \"crates/serve/src/server.rs\"\nline_contains = \"expect(\\\"spawn writer thread\\\")\"\njustification = \"startup-only\"\n",
        )
        .unwrap();
        let mut used = vec![false];
        assert!(l2_hot_path_panics(&f, &allow, &mut used).is_empty());
        assert!(used[0]);
        assert!(unused_allow_entries(&allow, &used, &[]).is_empty());
    }

    #[test]
    fn l2_flags_panic_and_unreachable_macros() {
        let f = SourceFile::from_source(
            "crates/nn/src/gemv.rs",
            "pub fn f(m: usize) {\n    match m {\n        0 => {}\n        _ => unreachable!(\"m > max\"),\n    }\n    panic!(\"boom\");\n}\n",
        );
        let findings = l2_hot_path_panics(&f, &Allowlist::default(), &mut []);
        assert_eq!(findings.len(), 2, "{findings:?}");
    }

    #[test]
    fn stale_allow_entry_is_reported() {
        let allow = allow::parse(
            "[[unwrap]]\nfile = \"crates/serve/src/server.rs\"\nline_contains = \"no such line\"\njustification = \"j\"\n",
        )
        .unwrap();
        let findings = unused_allow_entries(&allow, &[false], &[]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("stale"));
    }

    // ------------------------------------------------------------ L3 --

    const PROTOCOL_FIXTURE: &str = r#"
impl ErrorCode {
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Parse => "parse",
            ErrorCode::Internal => "internal",
        }
    }
    pub fn parse(token: &str) -> Option<ErrorCode> {
        match token {
            "parse" => Some(ErrorCode::Parse),
            "internal" => Some(ErrorCode::Internal),
            _ => None,
        }
    }
}
impl Request {
    pub fn parse(line: &str) -> Result<Request, ()> {
        match line.split_whitespace().next().unwrap_or("") {
            "EST" => Ok(Request::Est),
            "QUIT" => Ok(Request::Quit),
            _ => Err(()),
        }
    }
}
impl Reply {
    pub fn parse(line: &str) -> Result<Reply, ()> {
        match line.split_whitespace().next().unwrap_or("") {
            "OK" => Ok(Reply::Ok),
            "ERR" => Ok(Reply::Err),
            _ => Err(()),
        }
    }
}
"#;

    const README_FIXTURE: &str = "Protocol:\n\n```text\nrequest := \"EST\" <id> | \"QUIT\"\nreply   := \"OK\" <id> | \"ERR\" <id> code=<kebab>\n```\n\n`code=` is one of `parse` or `internal`.\n";

    #[test]
    fn l3_passes_when_code_and_readme_agree() {
        let p = SourceFile::from_source("crates/serve/src/protocol.rs", PROTOCOL_FIXTURE);
        let findings = l3_protocol_drift(&p, README_FIXTURE);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn l3_flags_a_verb_missing_from_the_readme() {
        let drifted = PROTOCOL_FIXTURE.replace(
            "\"QUIT\" => Ok(Request::Quit),",
            "\"QUIT\" => Ok(Request::Quit),\n            \"PING\" => Ok(Request::Quit),",
        );
        let p = SourceFile::from_source("crates/serve/src/protocol.rs", &drifted);
        let findings = l3_protocol_drift(&p, README_FIXTURE);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("PING"), "{findings:?}");
    }

    #[test]
    fn l3_flags_an_error_code_drift_in_the_readme() {
        let readme = README_FIXTURE.replace("`parse` or `internal`", "`parse`, `quota`, or `internal`");
        let p = SourceFile::from_source("crates/serve/src/protocol.rs", PROTOCOL_FIXTURE);
        let findings = l3_protocol_drift(&p, &readme);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("quota"), "{findings:?}");
    }

    // ------------------------------------------------------------ L5 --

    #[test]
    fn l5_requires_an_entry_and_caps_growth() {
        let f = SourceFile::from_source(
            "crates/obs/src/metrics.rs",
            "use std::sync::atomic::{AtomicU64, Ordering};\npub fn bump(c: &AtomicU64) {\n    c.fetch_add(1, Ordering::Relaxed);\n    c.load(Ordering::Relaxed);\n}\n",
        );
        let none = l5_atomic_orderings(&f, &Allowlist::default(), &mut []);
        assert_eq!(none.len(), 1);
        assert!(none[0].message.contains("no [[ordering]] entry"));

        let ok_allow = allow::parse(
            "[[ordering]]\nfile = \"crates/obs/src/metrics.rs\"\nmax = 2\njustification = \"relaxed counters; snapshot needs no order\"\n",
        )
        .unwrap();
        let mut used = vec![false];
        assert!(l5_atomic_orderings(&f, &ok_allow, &mut used).is_empty());
        assert!(used[0]);

        let tight = allow::parse(
            "[[ordering]]\nfile = \"crates/obs/src/metrics.rs\"\nmax = 1\njustification = \"relaxed counters\"\n",
        )
        .unwrap();
        let grew = l5_atomic_orderings(&f, &tight, &mut [false]);
        assert_eq!(grew.len(), 1);
        assert!(grew[0].message.contains("grew to 2"));
    }

    #[test]
    fn l5_ignores_cmp_ordering_and_test_code() {
        let f = SourceFile::from_source(
            "crates/core/src/lib.rs",
            "pub fn c(a: u32, b: u32) -> std::cmp::Ordering { a.cmp(&b).then(std::cmp::Ordering::Less) }\n#[cfg(test)]\nmod tests {\n    use std::sync::atomic::{AtomicU64, Ordering};\n    #[test]\n    fn t() { AtomicU64::new(0).load(Ordering::SeqCst); }\n}\n",
        );
        assert!(ordering_sites(&f).is_empty());
    }
}
