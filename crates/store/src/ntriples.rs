//! A pragmatic N-Triples reader/writer.
//!
//! Supports the subset our generators emit and that the public RDF dumps the
//! paper evaluates on (SWDF, LUBM, YAGO) predominantly use: IRI refs in
//! angle brackets, plain/typed/lang-tagged literals in double quotes, and
//! `#` comment lines. Blank nodes (`_:b0`) are accepted and treated as node
//! terms verbatim. As a lenient extension, bare CURIE-style tokens
//! (`ub:University0`) are accepted as IRI terms — our generators emit those
//! for readability, and round-trips stay lossless.

use crate::graph::{GraphBuilder, KnowledgeGraph};
use std::fmt::Write as _;
use std::io::{self, BufRead, Write};

/// A parse error with line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Reads an N-Triples document into a [`KnowledgeGraph`].
pub fn read<R: BufRead>(reader: R) -> Result<KnowledgeGraph, ParseError> {
    let mut builder = GraphBuilder::new();
    let mut line_no = 0usize;
    for line in reader.lines() {
        line_no += 1;
        let line = line.map_err(|e| ParseError {
            line: line_no,
            message: format!("io error: {e}"),
        })?;
        parse_line(&line, line_no, &mut builder)?;
    }
    Ok(builder.build())
}

/// Parses a string containing an N-Triples document.
pub fn read_str(data: &str) -> Result<KnowledgeGraph, ParseError> {
    let mut builder = GraphBuilder::new();
    for (i, line) in data.lines().enumerate() {
        parse_line(line, i + 1, &mut builder)?;
    }
    Ok(builder.build())
}

fn parse_line(line: &str, line_no: usize, builder: &mut GraphBuilder) -> Result<(), ParseError> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(());
    }
    let err = |message: String| ParseError { line: line_no, message };

    let mut rest = trimmed;
    let s = take_term(&mut rest).map_err(|m| err(format!("subject: {m}")))?;
    let p = take_term(&mut rest).map_err(|m| err(format!("predicate: {m}")))?;
    let o = take_term(&mut rest).map_err(|m| err(format!("object: {m}")))?;
    let tail = rest.trim();
    if tail != "." {
        return Err(err(format!("expected terminating '.', found {tail:?}")));
    }
    if !matches!(p_kind(&p), TermKind::Iri) {
        return Err(err("predicate must be an IRI".into()));
    }
    builder.add(&s, &p, &o);
    Ok(())
}

enum TermKind {
    Iri,
    Literal,
    Blank,
}

fn p_kind(term: &str) -> TermKind {
    if term.starts_with('"') {
        TermKind::Literal
    } else if term.starts_with("_:") {
        TermKind::Blank
    } else {
        TermKind::Iri // bracketed IRIs and bare CURIEs alike
    }
}

/// Extracts the next term from `rest`, advancing it. The returned string is
/// the canonical serialized form (with brackets/quotes) so that round-trips
/// are lossless.
fn take_term(rest: &mut &str) -> Result<String, String> {
    let s = rest.trim_start();
    if s.is_empty() {
        return Err("unexpected end of line".into());
    }
    if let Some(stripped) = s.strip_prefix('<') {
        let end = stripped.find('>').ok_or("unterminated IRI")?;
        let term = format!("<{}>", &stripped[..end]);
        *rest = &stripped[end + 1..];
        return Ok(term);
    }
    if s.starts_with("_:") {
        let end = s.find(char::is_whitespace).unwrap_or(s.len());
        let term = s[..end].to_string();
        *rest = &s[end..];
        return Ok(term);
    }
    if let Some(stripped) = s.strip_prefix('"') {
        // Scan for the closing quote, honoring backslash escapes.
        let bytes = stripped.as_bytes();
        let mut i = 0;
        let mut escaped = false;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' if !escaped => escaped = true,
                b'"' if !escaped => break,
                _ => escaped = false,
            }
            i += 1;
        }
        if i == bytes.len() {
            return Err("unterminated literal".into());
        }
        let lit_end = i; // index of closing quote within stripped
        let mut after = &stripped[lit_end + 1..];
        // Optional language tag or datatype.
        let mut suffix = String::new();
        if let Some(lang_rest) = after.strip_prefix('@') {
            let end = lang_rest.find(char::is_whitespace).unwrap_or(lang_rest.len());
            suffix = format!("@{}", &lang_rest[..end]);
            after = &lang_rest[end..];
        } else if let Some(dt_rest) = after.strip_prefix("^^<") {
            let end = dt_rest.find('>').ok_or("unterminated datatype IRI")?;
            suffix = format!("^^<{}>", &dt_rest[..end]);
            after = &dt_rest[end + 1..];
        }
        let term = format!("\"{}\"{}", &stripped[..lit_end], suffix);
        *rest = after;
        return Ok(term);
    }
    // Lenient extension: a bare CURIE-style token up to the next whitespace.
    // The terminating '.' always stands alone after whitespace in N-Triples,
    // so token content may safely contain dots (e.g. "ub:Dept0.U1").
    let end = s.find(char::is_whitespace).unwrap_or(s.len());
    let token = &s[..end];
    if token == "." || token.is_empty() {
        let start: String = s.chars().take(16).collect();
        return Err(format!("unrecognized term start: {start:?}"));
    }
    *rest = &s[end..];
    Ok(token.to_string())
}

/// Writes the graph as N-Triples. Terms are stored in serialized form, so
/// writing is a direct dump.
pub fn write<W: Write>(graph: &KnowledgeGraph, writer: &mut W) -> io::Result<()> {
    let mut buf = String::new();
    for t in graph.triples() {
        buf.clear();
        let s = graph.nodes().resolve(t.s.0);
        let p = graph.preds().resolve(t.p.0);
        let o = graph.nodes().resolve(t.o.0);
        let _ = writeln!(buf, "{s} {p} {o} .");
        writer.write_all(buf.as_bytes())?;
    }
    Ok(())
}

/// Serializes the graph to an N-Triples string.
pub fn write_string(graph: &KnowledgeGraph) -> String {
    let mut out = Vec::new();
    write(graph, &mut out).expect("writing to Vec cannot fail");
    String::from_utf8(out).expect("N-Triples output is UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_document() {
        let doc = "<http://ex/a> <http://ex/p> <http://ex/b> .\n\
                   # a comment\n\
                   \n\
                   <http://ex/a> <http://ex/p> \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n";
        let g = read_str(doc).unwrap();
        assert_eq!(g.num_triples(), 2);
        assert_eq!(g.num_preds(), 1);
        assert_eq!(g.num_nodes(), 3);
    }

    #[test]
    fn parses_lang_tagged_literal() {
        let doc = "<http://ex/a> <http://ex/label> \"hello\"@en .";
        let g = read_str(doc).unwrap();
        assert_eq!(g.num_triples(), 1);
        assert!(g.nodes().get("\"hello\"@en").is_some());
    }

    #[test]
    fn parses_blank_nodes() {
        let doc = "_:b0 <http://ex/p> _:b1 .";
        let g = read_str(doc).unwrap();
        assert_eq!(g.num_triples(), 1);
        assert!(g.nodes().get("_:b0").is_some());
    }

    #[test]
    fn parses_escaped_quote_in_literal() {
        let doc = r#"<http://ex/a> <http://ex/p> "say \"hi\"" ."#;
        let g = read_str(doc).unwrap();
        assert_eq!(g.num_triples(), 1);
        assert!(g.nodes().get(r#""say \"hi\"""#).is_some());
    }

    #[test]
    fn rejects_missing_dot() {
        let doc = "<http://ex/a> <http://ex/p> <http://ex/b>";
        let err = read_str(doc).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("terminating"));
    }

    #[test]
    fn rejects_literal_predicate() {
        let doc = "<http://ex/a> \"p\" <http://ex/b> .";
        assert!(read_str(doc).is_err());
    }

    #[test]
    fn rejects_unterminated_iri() {
        let doc = "<http://ex/a <http://ex/p> <http://ex/b> .";
        assert!(read_str(doc).is_err());
    }

    #[test]
    fn parses_bare_curie_tokens() {
        let doc = "ub:University0 rdf:type ub:University .\nub:Dept0.U1 ub:subOrganizationOf ub:University0 .";
        let g = read_str(doc).unwrap();
        assert_eq!(g.num_triples(), 2);
        assert!(g.nodes().get("ub:Dept0.U1").is_some());
        // Round-trip parity.
        let g2 = read_str(&write_string(&g)).unwrap();
        assert_eq!(g.triples(), g2.triples());
    }

    #[test]
    fn rejects_lone_dot_term() {
        assert!(read_str("ub:a ub:p .").is_err());
        assert!(read_str(". . . .").is_err());
    }

    #[test]
    fn error_preview_truncates_on_a_char_boundary() {
        let err = read_str("<a> <p> . xéééééééé .").unwrap_err();
        assert!(err.message.contains("unrecognized term start"), "{err}");
    }

    #[test]
    fn roundtrip_preserves_triples() {
        let doc = "<http://ex/a> <http://ex/p> <http://ex/b> .\n\
                   <http://ex/b> <http://ex/p> \"lit\"@de .\n\
                   _:node <http://ex/q> <http://ex/a> .\n";
        let g = read_str(doc).unwrap();
        let out = write_string(&g);
        let g2 = read_str(&out).unwrap();
        assert_eq!(g.num_triples(), g2.num_triples());
        assert_eq!(write_string(&g2), out);
    }

    #[test]
    fn reader_api_works_with_bufread() {
        let doc = b"<http://ex/a> <http://ex/p> <http://ex/b> .\n" as &[u8];
        let g = read(doc).unwrap();
        assert_eq!(g.num_triples(), 1);
    }
}
