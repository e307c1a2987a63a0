//! A small hand-rolled Rust lexer: just enough to separate code from
//! comments and string literals so the lints never false-positive on
//! text inside either.
//!
//! The output is a *masked* copy of the source with the exact same byte
//! length — every byte of comment and literal content (delimiters
//! included) is replaced by a space, newlines are kept — plus the list
//! of comments (with their 1-based start lines) and string literals
//! (with their byte offsets). All downstream analysis runs on the masked bytes, so
//! offsets and line numbers always agree with the original file.
//!
//! Handled: line comments, nested block comments, string literals with
//! escapes, byte strings, raw (and raw byte) strings with any number of
//! `#`s, char/byte-char literals, and the char-literal vs lifetime
//! ambiguity (`'a'` vs `&'a`). Not handled (not needed here): exotic
//! non-ASCII identifiers adjacent to literal prefixes.

/// A comment (line or block) with its raw text, delimiters excluded.
#[derive(Debug, Clone)]
pub struct Comment {
    pub text: String,
    /// 1-based line of the comment's first character.
    pub line: usize,
}

/// A string literal's content (quotes and raw-string hashes excluded).
#[derive(Debug, Clone)]
pub struct StrLit {
    pub text: String,
    /// Byte offset of the opening delimiter in the source.
    pub start: usize,
    /// Byte offset one past the closing delimiter.
    pub end: usize,
}

#[derive(Debug)]
pub struct Lexed {
    /// Same byte length as the input; comments and literals blanked.
    pub masked: String,
    pub comments: Vec<Comment>,
    pub strings: Vec<StrLit>,
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

pub fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut masked = Vec::with_capacity(bytes.len());
    let mut comments = Vec::new();
    let mut strings = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;

    // Pushes `bytes[from..to]` as blanks, preserving newlines.
    let blank = |masked: &mut Vec<u8>, line: &mut usize, from: usize, to: usize| {
        for &b in &bytes[from..to] {
            if b == b'\n' {
                masked.push(b'\n');
                *line += 1;
            } else {
                masked.push(b' ');
            }
        }
    };

    while i < bytes.len() {
        let b = bytes[i];
        let next = bytes.get(i + 1).copied();

        // Line comment.
        if b == b'/' && next == Some(b'/') {
            let start = i;
            let start_line = line;
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            comments.push(Comment {
                text: src[start + 2..i].to_string(),
                line: start_line,
            });
            blank(&mut masked, &mut line, start, i);
            continue;
        }

        // Block comment (nested).
        if b == b'/' && next == Some(b'*') {
            let start = i;
            let start_line = line;
            let mut depth = 1usize;
            i += 2;
            while i < bytes.len() && depth > 0 {
                if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    i += 2;
                } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            let text_end = i.saturating_sub(2).max(start + 2);
            comments.push(Comment {
                text: src[start + 2..text_end].to_string(),
                line: start_line,
            });
            blank(&mut masked, &mut line, start, i);
            continue;
        }

        // Raw string, possibly byte-raw: r"..", r#".."#, br#".."#.
        // A lone `r#ident` (raw identifier) is not a string and falls through.
        let prev_ident = i > 0 && is_ident(bytes[i - 1]);
        if !prev_ident && (b == b'r' || (b == b'b' && next == Some(b'r'))) {
            let r_pos = if b == b'b' { i + 1 } else { i };
            let mut j = r_pos + 1;
            while bytes.get(j) == Some(&b'#') {
                j += 1;
            }
            let hashes = j - (r_pos + 1);
            if bytes.get(j) == Some(&b'"') {
                let start = i;
                let content_start = j + 1;
                // Find `"` followed by `hashes` hashes.
                let mut k = content_start;
                let content_end;
                loop {
                    match bytes.get(k) {
                        None => {
                            content_end = k;
                            break;
                        }
                        Some(&b'"') if bytes[k + 1..].iter().take(hashes).filter(|&&h| h == b'#').count() == hashes => {
                            content_end = k;
                            k += 1 + hashes;
                            break;
                        }
                        _ => k += 1,
                    }
                }
                strings.push(StrLit {
                    text: src[content_start..content_end.min(bytes.len())].to_string(),
                    start,
                    end: k,
                });
                blank(&mut masked, &mut line, start, k);
                i = k;
                continue;
            }
        }

        // Plain or byte string literal.
        if b == b'"' {
            let start = i;
            let mut k = i + 1;
            while k < bytes.len() {
                match bytes[k] {
                    b'\\' => k += 2,
                    b'"' => break,
                    _ => k += 1,
                }
            }
            let content_end = k.min(bytes.len());
            let end = (k + 1).min(bytes.len());
            strings.push(StrLit {
                text: src[start + 1..content_end].to_string(),
                start,
                end,
            });
            blank(&mut masked, &mut line, start, end);
            i = end;
            continue;
        }

        // Char literal vs lifetime. `'\...'` and `'x'` are char literals;
        // anything else after `'` is a lifetime and stays code.
        if b == b'\'' {
            let is_char = match next {
                Some(b'\\') => true,
                Some(c) if c != b'\'' => {
                    // `'x'` — but `'a` followed by non-quote is a lifetime.
                    // Multibyte chars: scan to the closing quote within a
                    // short window.
                    bytes[i + 1..]
                        .iter()
                        .take(6)
                        .skip(1)
                        .take_while(|&&x| x != b'\n')
                        .any(|&x| x == b'\'')
                        && bytes.get(i + 2) == Some(&b'\'')
                }
                _ => false,
            };
            if is_char {
                let mut k = i + 1;
                while k < bytes.len() {
                    match bytes[k] {
                        b'\\' => k += 2,
                        b'\'' => break,
                        _ => k += 1,
                    }
                }
                let end = (k + 1).min(bytes.len());
                blank(&mut masked, &mut line, i, end);
                i = end;
                continue;
            }
        }

        if b == b'\n' {
            line += 1;
        }
        masked.push(b);
        i += 1;
    }

    debug_assert_eq!(masked.len(), bytes.len());
    Lexed {
        masked: String::from_utf8(masked).expect("masking preserves UTF-8: only ASCII bytes are rewritten"),
        comments,
        strings,
    }
}

/// Blanks every `#[cfg(test)]`-gated region in a masked source: the
/// attribute itself, any stacked attributes after it, and the following
/// balanced-brace block (or statement up to `;` for extern/use items).
/// Returns the stripped text plus the blanked byte ranges so callers can
/// tell whether a literal or comment sat inside test code.
pub fn strip_tests(masked: &str) -> (String, Vec<(usize, usize)>) {
    let bytes = masked.as_bytes();
    let mut out = bytes.to_vec();
    let mut regions = Vec::new();
    let mut search = 0usize;
    while let Some(rel) = masked[search..].find("#[cfg(test)]") {
        let attr_start = search + rel;
        let mut j = attr_start + "#[cfg(test)]".len();
        // Skip whitespace and any further attributes (e.g. `#[test]`,
        // doc comments are already blanked in the masked text).
        loop {
            while j < bytes.len() && (bytes[j] as char).is_whitespace() {
                j += 1;
            }
            if bytes.get(j) == Some(&b'#') && bytes.get(j + 1) == Some(&b'[') {
                while j < bytes.len() && bytes[j] != b']' {
                    j += 1;
                }
                j += 1;
            } else {
                break;
            }
        }
        // Find the end of the gated item: the matching `}` of the first
        // block, or `;` if it comes first (item with no body).
        let mut depth = 0usize;
        let mut end = bytes.len();
        let mut k = j;
        while k < bytes.len() {
            match bytes[k] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = k + 1;
                        break;
                    }
                }
                b';' if depth == 0 => {
                    end = k + 1;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        for b in &mut out[attr_start..end] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
        regions.push((attr_start, end));
        search = end;
    }
    (
        String::from_utf8(out).expect("stripping rewrites ASCII bytes only"),
        regions,
    )
}

/// 1-based line number of a byte offset.
pub fn line_of(text: &str, offset: usize) -> usize {
    text.as_bytes()[..offset.min(text.len())]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        + 1
}

/// Finds occurrences of `word` as a standalone identifier in masked code.
pub fn ident_occurrences(masked: &str, word: &str) -> Vec<usize> {
    let bytes = masked.as_bytes();
    let mut found = Vec::new();
    let mut search = 0usize;
    while let Some(rel) = masked[search..].find(word) {
        let at = search + rel;
        let before_ok = at == 0 || !is_ident(bytes[at - 1]);
        let after = at + word.len();
        let after_ok = after >= bytes.len() || !is_ident(bytes[after]);
        if before_ok && after_ok {
            found.push(at);
        }
        search = at + word.len();
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_comment_is_blanked_and_recorded() {
        let src = "let x = 1; // unsafe unwrap()\nlet y = 2;";
        let l = lex(src);
        assert!(!l.masked.contains("unsafe"));
        assert!(l.masked.contains("let y = 2;"));
        assert_eq!(l.comments.len(), 1);
        assert_eq!(l.comments[0].line, 1);
        assert!(l.comments[0].text.contains("unsafe unwrap()"));
        assert_eq!(l.masked.len(), src.len());
    }

    #[test]
    fn nested_block_comment_terminates_correctly() {
        let src = "a /* outer /* inner */ still comment */ b";
        let l = lex(src);
        assert!(l.masked.starts_with('a'));
        assert!(l.masked.ends_with('b'));
        assert!(!l.masked.contains("comment"));
        assert_eq!(l.comments.len(), 1);
    }

    #[test]
    fn string_contents_do_not_leak_into_code() {
        let src = r#"let s = "unsafe { panic!() } // not a comment"; done();"#;
        let l = lex(src);
        assert!(!l.masked.contains("unsafe"));
        assert!(!l.masked.contains("panic"));
        assert!(l.masked.contains("done();"));
        assert_eq!(l.strings.len(), 1);
        assert!(l.strings[0].text.contains("panic!"));
    }

    #[test]
    fn escaped_quote_does_not_end_the_string() {
        let src = r#"let s = "a \" b"; trailing"#;
        let l = lex(src);
        assert_eq!(l.strings[0].text, r#"a \" b"#);
        assert!(l.masked.contains("trailing"));
    }

    #[test]
    fn raw_strings_with_hashes_and_byte_raw() {
        let src = r###"let a = r#"has "quotes" and unsafe"#; let b = br"bytes"; end"###;
        let l = lex(src);
        assert_eq!(l.strings.len(), 2);
        assert!(l.strings[0].text.contains(r#"has "quotes""#));
        assert_eq!(l.strings[1].text, "bytes");
        assert!(!l.masked.contains("unsafe"));
        assert!(l.masked.contains("end"));
    }

    #[test]
    fn raw_identifier_is_not_a_string() {
        let src = "fn r#match() { r#match(); }";
        let l = lex(src);
        assert!(l.strings.is_empty());
        assert!(l.masked.contains("r#match"));
    }

    #[test]
    fn char_literal_vs_lifetime() {
        let src = "fn f<'a>(x: &'a str) { let q = '\"'; let n = '\\n'; }";
        let l = lex(src);
        // Lifetimes survive as code; char literals are blanked (so the
        // quote char can't be mistaken for a string delimiter).
        assert!(l.masked.contains("<'a>"));
        assert!(l.masked.contains("&'a str"));
        assert!(!l.masked.contains('"'));
        assert!(l.strings.is_empty());
    }

    #[test]
    fn strip_tests_blanks_the_gated_module() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let l = lex(src);
        let (stripped, regions) = strip_tests(&l.masked);
        assert!(stripped.contains("fn prod"));
        assert!(stripped.contains("fn after"));
        assert!(!stripped.contains("unwrap"));
        assert_eq!(regions.len(), 1);
        assert_eq!(stripped.len(), src.len());
    }

    #[test]
    fn ident_occurrences_respects_word_boundaries() {
        let masked = "x.unwrap(); y.unwrap_or_else(f); let unwrapped = 1; z.unwrap()";
        let hits = ident_occurrences(masked, "unwrap");
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let src = "let s = \"line one\nline two\";\nlet after = 3;";
        let l = lex(src);
        assert_eq!(l.strings[0].text, "line one\nline two");
        assert_eq!(line_of(&l.masked, l.masked.find("after").unwrap()), 3);
    }
}
