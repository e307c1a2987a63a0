//! A small SPARQL basic-graph-pattern parser.
//!
//! Covers the query fragment LMKG estimates (paper §V): conjunctive triple
//! patterns with variables, IRIs/CURIEs, and literals, including the
//! predicate-object list (`;`) and object list (`,`) abbreviations used in
//! the paper's own examples:
//!
//! ```sparql
//! SELECT ?x WHERE { ?x :hasAuthor :StephenKing ; :genre :Horror . }
//! ```
//!
//! Terms are resolved against a graph's dictionaries; unknown terms are a
//! parse-time error (an unknown constant can never match, so the caller
//! learns immediately instead of silently estimating over garbage).

// Serving hot path: no panics outside tests (README "Static analysis & safety").
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::dict::{NodeId, PredId};
use crate::fxhash::FxHashMap;
use crate::graph::KnowledgeGraph;
use crate::triple::{NodeTerm, PredTerm, Query, TriplePattern, VarId};

/// Parse errors with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparqlError {
    /// Description of the failure.
    pub message: String,
}

impl std::fmt::Display for SparqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SPARQL parse error: {}", self.message)
    }
}

impl std::error::Error for SparqlError {}

fn err<T>(message: impl Into<String>) -> Result<T, SparqlError> {
    Err(SparqlError {
        message: message.into(),
    })
}

/// A parsed query plus the variable-name table (`?book` → `VarId`).
#[derive(Debug, Clone)]
pub struct ParsedQuery {
    /// The basic graph pattern.
    pub query: Query,
    /// Variable names in `VarId` order.
    pub variables: Vec<String>,
}

/// Parses `SELECT … WHERE { … }` against the graph's dictionaries.
pub fn parse(input: &str, graph: &KnowledgeGraph) -> Result<ParsedQuery, SparqlError> {
    let tokens = tokenize(input)?;
    let mut pos = 0usize;

    expect_keyword(&tokens, &mut pos, "SELECT")?;
    // Projection: `*` or a list of variables (recorded but not enforced —
    // cardinality estimation counts all bindings).
    while pos < tokens.len() && !eq_kw(&tokens[pos], "WHERE") {
        pos += 1;
    }
    expect_keyword(&tokens, &mut pos, "WHERE")?;
    expect_token(&tokens, &mut pos, "{")?;

    let mut vars: FxHashMap<String, VarId> = FxHashMap::default();
    let mut var_names: Vec<String> = Vec::new();
    let mut triples = Vec::new();

    loop {
        if pos >= tokens.len() {
            return err("unterminated group graph pattern (missing '}')");
        }
        if tokens[pos] == "}" {
            break; // tokens after the closing brace are ignored
        }
        // subject
        let subject = parse_node_term(&tokens, &mut pos, graph, &mut vars, &mut var_names)?;
        // predicate-object list:  p o (, o)* (; p o (, o)*)* .
        loop {
            let predicate = parse_pred_term(&tokens, &mut pos, graph, &mut vars, &mut var_names)?;
            loop {
                let object = parse_node_term(&tokens, &mut pos, graph, &mut vars, &mut var_names)?;
                triples.push(TriplePattern::new(subject, predicate, object));
                if pos < tokens.len() && tokens[pos] == "," {
                    pos += 1;
                } else {
                    break;
                }
            }
            if pos < tokens.len() && tokens[pos] == ";" {
                pos += 1;
                // Trailing `;` before `.` or `}` is legal SPARQL.
                if pos < tokens.len() && (tokens[pos] == "." || tokens[pos] == "}") {
                    break;
                }
            } else {
                break;
            }
        }
        if pos < tokens.len() && tokens[pos] == "." {
            pos += 1;
        }
    }

    if triples.is_empty() {
        return err("empty basic graph pattern");
    }
    let query = Query::new(triples);
    query.validate().map_err(|m| SparqlError { message: m })?;
    Ok(ParsedQuery {
        query,
        variables: var_names,
    })
}

/// Renders a query back into `SELECT * WHERE { … }` text, resolving bound
/// terms against the graph's dictionaries and naming variables `?v<id>`.
///
/// This is the inverse of [`parse`] and the wire form the `lmkg-serve`
/// protocol and load generator exchange. Re-parsing the output yields a
/// query equal to the input whenever the input's variable ids are dense and
/// in first-occurrence order (true for every query `lmkg-data` generates);
/// otherwise the round trip is the same query up to variable renumbering.
pub fn format_query(query: &Query, graph: &KnowledgeGraph) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("SELECT * WHERE {");
    for t in &query.triples {
        let s = match t.s {
            NodeTerm::Var(v) => format!("?v{}", v.0),
            NodeTerm::Bound(n) => graph.nodes().resolve(n.0).to_string(),
        };
        let p = match t.p {
            PredTerm::Var(v) => format!("?v{}", v.0),
            PredTerm::Bound(pr) => graph.preds().resolve(pr.0).to_string(),
        };
        let o = match t.o {
            NodeTerm::Var(v) => format!("?v{}", v.0),
            NodeTerm::Bound(n) => graph.nodes().resolve(n.0).to_string(),
        };
        let _ = write!(out, " {s} {p} {o} .");
    }
    out.push_str(" }");
    out
}

fn tokenize(input: &str) -> Result<Vec<String>, SparqlError> {
    let mut tokens = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            c if c.is_whitespace() => {
                chars.next();
            }
            '{' | '}' | '.' | ';' | ',' | '*' => {
                tokens.push(c.to_string());
                chars.next();
            }
            '"' => {
                // Literal, with optional @lang / ^^<datatype> suffix.
                let mut lit = String::from("\"");
                chars.next();
                let mut escaped = false;
                loop {
                    match chars.next() {
                        None => return err("unterminated string literal"),
                        Some('\\') if !escaped => {
                            escaped = true;
                            lit.push('\\');
                        }
                        Some('"') if !escaped => {
                            lit.push('"');
                            break;
                        }
                        Some(ch) => {
                            escaped = false;
                            lit.push(ch);
                        }
                    }
                }
                while let Some(&nc) = chars.peek() {
                    if nc.is_whitespace() || "{};,.".contains(nc) {
                        break;
                    }
                    lit.push(nc);
                    chars.next();
                }
                tokens.push(lit);
            }
            '<' => {
                let mut iri = String::new();
                for ch in chars.by_ref() {
                    iri.push(ch);
                    if ch == '>' {
                        break;
                    }
                }
                if !iri.ends_with('>') {
                    return err("unterminated IRI");
                }
                tokens.push(iri);
            }
            _ => {
                // Bare token: variable, CURIE, keyword.
                let mut tok = String::new();
                while let Some(&nc) = chars.peek() {
                    if nc.is_whitespace() || "{};,".contains(nc) {
                        break;
                    }
                    // '.' terminates a token only when followed by whitespace
                    // or EOF (CURIEs may contain dots, e.g. ub:Dept0.U1).
                    if nc == '.' {
                        let mut ahead = chars.clone();
                        ahead.next();
                        match ahead.peek() {
                            None => break,
                            Some(&after) if after.is_whitespace() || after == '}' => break,
                            _ => {}
                        }
                    }
                    tok.push(nc);
                    chars.next();
                }
                if tok.is_empty() {
                    return err(format!("unexpected character {c:?}"));
                }
                tokens.push(tok);
            }
        }
    }
    Ok(tokens)
}

fn eq_kw(token: &str, kw: &str) -> bool {
    token.eq_ignore_ascii_case(kw)
}

fn expect_keyword(tokens: &[String], pos: &mut usize, kw: &str) -> Result<(), SparqlError> {
    if *pos < tokens.len() && eq_kw(&tokens[*pos], kw) {
        *pos += 1;
        Ok(())
    } else {
        err(format!("expected {kw}, found {:?}", tokens.get(*pos)))
    }
}

fn expect_token(tokens: &[String], pos: &mut usize, t: &str) -> Result<(), SparqlError> {
    if *pos < tokens.len() && tokens[*pos] == t {
        *pos += 1;
        Ok(())
    } else {
        err(format!("expected {t:?}, found {:?}", tokens.get(*pos)))
    }
}

fn get_var(name: &str, vars: &mut FxHashMap<String, VarId>, var_names: &mut Vec<String>) -> Result<VarId, SparqlError> {
    if let Some(&v) = vars.get(name) {
        return Ok(v);
    }
    let id = u16::try_from(var_names.len()).map_err(|_| SparqlError {
        message: "too many variables".into(),
    })?;
    let v = VarId(id);
    vars.insert(name.to_string(), v);
    var_names.push(name.to_string());
    Ok(v)
}

fn parse_node_term(
    tokens: &[String],
    pos: &mut usize,
    graph: &KnowledgeGraph,
    vars: &mut FxHashMap<String, VarId>,
    var_names: &mut Vec<String>,
) -> Result<NodeTerm, SparqlError> {
    let Some(tok) = tokens.get(*pos) else {
        return err("expected a node term, found end of input");
    };
    *pos += 1;
    if let Some(name) = tok.strip_prefix('?').or_else(|| tok.strip_prefix('$')) {
        return Ok(NodeTerm::Var(get_var(name, vars, var_names)?));
    }
    match graph.nodes().get(tok) {
        Some(id) => Ok(NodeTerm::Bound(NodeId(id))),
        None => err(format!("unknown node term {tok:?} (not in the graph's dictionary)")),
    }
}

fn parse_pred_term(
    tokens: &[String],
    pos: &mut usize,
    graph: &KnowledgeGraph,
    vars: &mut FxHashMap<String, VarId>,
    var_names: &mut Vec<String>,
) -> Result<PredTerm, SparqlError> {
    let Some(tok) = tokens.get(*pos) else {
        return err("expected a predicate term, found end of input");
    };
    *pos += 1;
    if let Some(name) = tok.strip_prefix('?').or_else(|| tok.strip_prefix('$')) {
        return Ok(PredTerm::Var(get_var(name, vars, var_names)?));
    }
    // `a` abbreviates rdf:type.
    let lookup = if tok == "a" { "rdf:type" } else { tok.as_str() };
    match graph.preds().get(lookup) {
        Some(id) => Ok(PredTerm::Bound(PredId(id))),
        None => err(format!("unknown predicate {tok:?} (not in the graph's dictionary)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::matcher;
    use crate::triple::QueryShape;

    fn graph() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        b.add(":shining", ":hasAuthor", ":StephenKing");
        b.add(":shining", ":genre", ":Horror");
        b.add(":it", ":hasAuthor", ":StephenKing");
        b.add(":it", ":genre", ":Horror");
        b.add(":StephenKing", ":bornIn", ":USA");
        b.add(":shining", "rdf:type", ":Book");
        b.build()
    }

    #[test]
    fn parses_the_papers_example() {
        let g = graph();
        let p = parse("SELECT ?x WHERE { ?x :hasAuthor :StephenKing ; :genre :Horror . }", &g).unwrap();
        assert_eq!(p.query.size(), 2);
        assert_eq!(p.query.shape(), QueryShape::Star);
        assert_eq!(p.variables, vec!["x"]);
        assert_eq!(matcher::count(&g, &p.query), 2);
    }

    #[test]
    fn parses_chain_query() {
        let g = graph();
        let p = parse("SELECT ?x ?y WHERE { ?x :hasAuthor ?y . ?y :bornIn :USA . }", &g).unwrap();
        assert_eq!(p.query.shape(), QueryShape::Chain);
        assert_eq!(p.variables, vec!["x", "y"]);
        assert_eq!(matcher::count(&g, &p.query), 2);
    }

    #[test]
    fn object_list_comma() {
        let g = graph();
        let p = parse("SELECT * WHERE { ?x :genre :Horror , :Horror . }", &g).unwrap();
        assert_eq!(p.query.size(), 2);
        // Both triples share subject and predicate.
        assert_eq!(p.query.triples[0].s, p.query.triples[1].s);
        assert_eq!(p.query.triples[0].p, p.query.triples[1].p);
    }

    #[test]
    fn a_abbreviates_rdf_type() {
        let g = graph();
        let p = parse("SELECT ?b WHERE { ?b a :Book . }", &g).unwrap();
        assert_eq!(matcher::count(&g, &p.query), 1);
    }

    #[test]
    fn shared_variables_are_deduplicated() {
        let g = graph();
        let p = parse("SELECT * WHERE { ?x :hasAuthor ?a . ?x :genre :Horror . }", &g).unwrap();
        assert_eq!(p.variables.len(), 2);
        assert_eq!(p.query.triples[0].s, p.query.triples[1].s);
    }

    #[test]
    fn unknown_term_is_an_error() {
        let g = graph();
        let e = parse("SELECT * WHERE { ?x :hasAuthor :Nobody . }", &g).unwrap_err();
        assert!(e.message.contains("unknown node term"));
        let e = parse("SELECT * WHERE { ?x :unknownPred ?y . }", &g).unwrap_err();
        assert!(e.message.contains("unknown predicate"));
    }

    #[test]
    fn syntax_errors_are_reported() {
        let g = graph();
        assert!(parse("WHERE { ?x :genre :Horror . }", &g).is_err()); // no SELECT
        assert!(parse("SELECT * WHERE { ?x :genre :Horror . ", &g).is_err()); // no }
        assert!(parse("SELECT * WHERE { }", &g).is_err()); // empty BGP
    }

    #[test]
    fn trailing_semicolon_is_tolerated() {
        let g = graph();
        let p = parse("SELECT ?x WHERE { ?x :genre :Horror ; . }", &g).unwrap();
        assert_eq!(p.query.size(), 1);
    }

    #[test]
    fn predicate_variables_parse() {
        let g = graph();
        let p = parse("SELECT * WHERE { :shining ?p ?o . }", &g).unwrap();
        assert_eq!(matcher::count(&g, &p.query), 3);
    }

    #[test]
    fn format_query_round_trips() {
        let g = graph();
        for text in [
            "SELECT ?x WHERE { ?x :hasAuthor :StephenKing ; :genre :Horror . }",
            "SELECT ?x ?y WHERE { ?x :hasAuthor ?y . ?y :bornIn :USA . }",
            "SELECT * WHERE { :shining ?p ?o . }",
            "SELECT ?b WHERE { ?b rdf:type :Book . }",
        ] {
            let parsed = parse(text, &g).unwrap();
            let rendered = format_query(&parsed.query, &g);
            let reparsed = parse(&rendered, &g).unwrap();
            assert_eq!(reparsed.query, parsed.query, "round trip failed for {rendered:?}");
        }
    }

    #[test]
    fn format_query_uses_dictionary_names() {
        let g = graph();
        let p = parse("SELECT * WHERE { ?x :genre :Horror . }", &g).unwrap();
        let rendered = format_query(&p.query, &g);
        assert_eq!(rendered, "SELECT * WHERE { ?v0 :genre :Horror . }");
    }

    #[test]
    fn dollar_variables_work() {
        let g = graph();
        let p = parse("SELECT $x WHERE { $x :genre :Horror . }", &g).unwrap();
        assert_eq!(p.variables, vec!["x"]);
    }
}
