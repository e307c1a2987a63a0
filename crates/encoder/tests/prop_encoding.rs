//! Property tests for the encoders: losslessness of the binary codec,
//! structural invariants of SG-Encoding, and scaler monotonicity.

use lmkg_encoder::{binary_width, term, CardinalityScaler, SgEncoder};
use lmkg_store::{NodeId, NodeTerm, PredId, PredTerm, Query, TriplePattern, VarId};
use proptest::prelude::*;

fn arb_node_term(domain: u32) -> impl Strategy<Value = NodeTerm> {
    prop_oneof![
        (0..domain).prop_map(|n| NodeTerm::Bound(NodeId(n))),
        (0u16..5).prop_map(|v| NodeTerm::Var(VarId(v))),
    ]
}

fn arb_pred_term(domain: u32) -> impl Strategy<Value = PredTerm> {
    prop_oneof![
        (0..domain).prop_map(|p| PredTerm::Bound(PredId(p))),
        (10u16..12).prop_map(|v| PredTerm::Var(VarId(v))),
    ]
}

fn arb_query(node_domain: u32, pred_domain: u32) -> impl Strategy<Value = Query> {
    prop::collection::vec(
        (
            arb_node_term(node_domain),
            arb_pred_term(pred_domain),
            arb_node_term(node_domain),
        ),
        1..5,
    )
    .prop_map(|ts| Query::new(ts.into_iter().map(|(s, p, o)| TriplePattern::new(s, p, o)).collect()))
}

proptest! {
    #[test]
    fn binary_codec_roundtrips(domain in 1usize..5000, id_frac in 0.0f64..1.0) {
        let id = ((domain as f64 - 1.0) * id_frac) as u32;
        let mut buf = vec![0.0f32; binary_width(domain)];
        term::encode_id(domain, Some(id), &mut buf);
        prop_assert_eq!(term::decode_binary(&buf), Some(id));
    }

    #[test]
    fn binary_codes_are_injective(domain in 2usize..600, a in any::<u32>(), b in any::<u32>()) {
        let a = a % domain as u32;
        let b = b % domain as u32;
        prop_assume!(a != b);
        let w = binary_width(domain);
        let mut ba = vec![0.0f32; w];
        let mut bb = vec![0.0f32; w];
        term::encode_id(domain, Some(a), &mut ba);
        term::encode_id(domain, Some(b), &mut bb);
        prop_assert_ne!(ba, bb);
    }

    #[test]
    fn sg_adjacency_cell_count_matches_distinct_triples(q in arb_query(50, 8)) {
        let enc = SgEncoder::new(50, 8, 12, 8);
        let Ok(v) = enc.encode_vec(&q) else { return Ok(()); };
        let layout = enc.layout(&q).unwrap();
        let mut distinct = layout.triples.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let ones = v[..enc.a_width()].iter().filter(|&&x| x == 1.0).count();
        prop_assert_eq!(ones, distinct.len());
    }

    #[test]
    fn sg_layout_slot_bounds(q in arb_query(50, 8)) {
        let enc = SgEncoder::new(50, 8, 12, 8);
        if let Ok(layout) = enc.layout(&q) {
            // A query of k triples touches at most 2k node slots, k edge slots.
            prop_assert!(layout.node_slots.len() <= 2 * q.size());
            prop_assert!(layout.edge_slots.len() <= q.size());
            // Every triple's slots are within the slot tables.
            for &(i, j, l) in &layout.triples {
                prop_assert!(i < layout.node_slots.len());
                prop_assert!(j < layout.node_slots.len());
                prop_assert!(l < layout.edge_slots.len());
            }
        }
    }

    #[test]
    fn sg_encoding_is_deterministic(q in arb_query(30, 5)) {
        let enc = SgEncoder::new(30, 5, 12, 8);
        if let (Ok(a), Ok(b)) = (enc.encode_vec(&q), enc.encode_vec(&q)) {
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn scaler_is_monotone(mut cards in prop::collection::vec(1u64..1_000_000, 2..40)) {
        let scaler = CardinalityScaler::fit(cards.iter().copied());
        cards.sort_unstable();
        for w in cards.windows(2) {
            prop_assert!(scaler.scale(w[0]) <= scaler.scale(w[1]) + f32::EPSILON);
        }
    }

    #[test]
    fn scaler_roundtrip_q_error_is_tiny(cards in prop::collection::vec(1u64..1_000_000, 2..40), probe in 0usize..40) {
        let scaler = CardinalityScaler::fit(cards.iter().copied());
        let c = cards[probe % cards.len()];
        let back = scaler.unscale(scaler.scale(c));
        let q = (back / c as f64).max(c as f64 / back);
        prop_assert!(q < 1.01, "card {} → {} (q {})", c, back, q);
    }
}
