//! The three text parsers that read outside input — the serving protocol,
//! SPARQL, N-Triples — return on any line, never panic. Inputs are soups of
//! the tokens each grammar cares about, glued in any order and spacing, so
//! most cases get past the first token and into the parsers' inner paths.

use lmkg_serve::{Reply, Request};
use lmkg_store::{ntriples, sparql};
use proptest::prelude::*;

/// The tokens; [`soup`] adds TAB, CR, LF and the spaces between them.
const WORDS: &str = "EST STATS METRICS TENANTS QUIT OK ERR OVERLOADED SELECT WHERE select { } . ; , * ?x ?y ? \
    <a> <p> <b> < > _:b0 ub:a \" \"x\" \\ @en ^^ ^^<p> code= code=parse us= us=1.5 depth= depth=8 lines= lines=2 \
    served=1 p50us= = # 1 -1 1e309 NaN q1 default é ü ß€ 日本 Ωλ 𝄞";

/// Up to 24 tokens in the order drawn, each followed by a space or not.
fn soup() -> impl Strategy<Value = String> {
    let tokens: Vec<&str> = WORDS.split_whitespace().chain(["\t", "\r", "\n"]).collect();
    prop::collection::vec((0..tokens.len(), any::<bool>()), 0..24).prop_map(move |parts| {
        let mut line = String::new();
        for (i, spaced) in parts {
            line.push_str(tokens[i]);
            if spaced {
                line.push(' ');
            }
        }
        line
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    fn request_parse_never_panics(line in soup()) {
        let _ = Request::parse(&line);
    }

    #[test]
    fn reply_parse_never_panics(line in soup()) {
        let _ = Reply::parse(&line);
    }

    #[test]
    fn sparql_parse_never_panics(text in soup()) {
        let graph = ntriples::read_str("<a> <p> <b> .\n<b> <p> \"x\"@en .\nub:a <p> _:b0 .").unwrap();
        let _ = sparql::parse(&text, &graph);
    }

    #[test]
    fn ntriples_read_never_panics(doc in soup()) {
        let _ = ntriples::read_str(&doc);
    }
}
