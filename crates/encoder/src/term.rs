//! The term-level codec (paper §V): the binary encoding of node and
//! predicate ids — "the preferred choice for encoding triple patterns" on
//! heterogeneous KGs — with *all-zeros* reserved for unbound/absent terms.
//!
//! A term with id `t` is encoded as the bits of `t+1` in
//! `⌈log2(domain+1)⌉` digits — the paper's `⌈log2|d|+1⌉` sizing — so that
//! id 0 is distinguishable from "absent".

use lmkg_store::{NodeId, PredId};

/// Number of binary digits for a domain of the given size (ids `0..domain`
/// are stored as `id+1` so zero stays free for "unbound").
pub fn binary_width(domain: usize) -> usize {
    let max_code = domain as u64; // codes are 1..=domain
    (u64::BITS - max_code.leading_zeros()).max(1) as usize
}

/// Encodes an optional id (`None` = unbound) into `out`.
pub fn encode_id(domain: usize, id: Option<u32>, out: &mut [f32]) {
    debug_assert_eq!(out.len(), binary_width(domain));
    out.iter_mut().for_each(|x| *x = 0.0);
    let Some(id) = id else { return };
    debug_assert!((id as usize) < domain, "id {id} out of domain {domain}");
    let code = u64::from(id) + 1;
    let w = out.len();
    for (bit, x) in out.iter_mut().enumerate() {
        // Most-significant bit first, matching the paper's examples.
        *x = ((code >> (w - 1 - bit)) & 1) as f32;
    }
}

/// Decodes a binary-encoded slice back to an id (`None` if all-zero).
/// Used in tests to prove the encoding is lossless.
pub fn decode_binary(out: &[f32]) -> Option<u32> {
    let mut code = 0u64;
    for &x in out {
        code = (code << 1) | u64::from(x >= 0.5);
    }
    if code == 0 {
        None
    } else {
        Some((code - 1) as u32)
    }
}

/// Typed convenience wrapper around [`encode_id`] for nodes and predicates.
#[derive(Debug, Clone, Copy)]
pub struct TermCodec {
    /// Node domain size (`|S ∪ O|` — shared node space).
    pub node_domain: usize,
    /// Predicate domain size.
    pub pred_domain: usize,
}

impl TermCodec {
    /// Creates a codec for the graph domains.
    pub fn new(node_domain: usize, pred_domain: usize) -> Self {
        Self {
            node_domain,
            pred_domain,
        }
    }

    /// Encoded width of one node term.
    pub fn node_width(&self) -> usize {
        binary_width(self.node_domain)
    }

    /// Encoded width of one predicate term.
    pub fn pred_width(&self) -> usize {
        binary_width(self.pred_domain)
    }

    /// Encodes an optional node id.
    pub fn encode_node(&self, id: Option<NodeId>, out: &mut [f32]) {
        encode_id(self.node_domain, id.map(|n| n.0), out);
    }

    /// Encodes an optional predicate id.
    pub fn encode_pred(&self, id: Option<PredId>, out: &mut [f32]) {
        encode_id(self.pred_domain, id.map(|p| p.0), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_width_matches_paper_formula() {
        // ⌈log2(domain+1)⌉ digits for codes 1..=domain.
        assert_eq!(binary_width(1), 1);
        assert_eq!(binary_width(2), 2); // codes 1,2 → 2 bits
        assert_eq!(binary_width(3), 2);
        assert_eq!(binary_width(4), 3);
        assert_eq!(binary_width(7), 3);
        assert_eq!(binary_width(8), 4);
        assert_eq!(binary_width(1000), 10);
    }

    #[test]
    fn paper_example_binary() {
        // "for 3 unique subjects, the binary encoding of the subject with
        // id 2" → [10] (2 bits, code 2).
        let mut out = [0.0f32; 2];
        encode_id(3, Some(1), &mut out); // 0-based id 1 → code 2
        assert_eq!(out, [1.0, 0.0]);
    }

    #[test]
    fn unbound_is_all_zero() {
        let mut out = [1.0f32; 4];
        encode_id(10, None, &mut out);
        assert!(out.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn binary_roundtrip_entire_domain() {
        let domain = 300;
        let w = binary_width(domain);
        let mut buf = vec![0.0f32; w];
        for id in 0..domain as u32 {
            encode_id(domain, Some(id), &mut buf);
            assert_eq!(decode_binary(&buf), Some(id), "id {id}");
        }
        encode_id(domain, None, &mut buf);
        assert_eq!(decode_binary(&buf), None);
    }

    #[test]
    fn bound_id_zero_is_not_all_zeros() {
        let mut buf = vec![0.0f32; binary_width(5)];
        encode_id(5, Some(0), &mut buf);
        assert!(buf.iter().any(|&x| x != 0.0), "id 0 must differ from unbound");
    }

    #[test]
    fn codec_widths() {
        let c = TermCodec::new(1000, 20);
        assert_eq!(c.node_width(), 10);
        assert_eq!(c.pred_width(), 5);
    }
}
