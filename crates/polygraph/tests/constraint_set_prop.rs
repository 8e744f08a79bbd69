//! Differential property test: a [`ConstraintSet`] driven through random
//! `push` / `push_generalized` / `push_plain` / `retain` / `remap` /
//! `extend` sequences must be indistinguishable from the obvious model —
//! a `Vec` of `(key, either, or)` with one owned `Vec<Edge>` per side —
//! in constraint order, edge order, counts, and views, after every step.

use polysi_history::{Key, TxnId};
use polysi_polygraph::{ConstraintSet, Edge, Label};
use proptest::prelude::*;

type Model = Vec<(Key, Vec<Edge>, Vec<Edge>)>;

#[derive(Debug, Clone)]
enum Op {
    /// Explicit `(either, or)` sides.
    Push {
        key: Key,
        sides: (Vec<Edge>, Vec<Edge>),
    },
    Generalized {
        key: Key,
        t: TxnId,
        s: TxnId,
        readers_t: Vec<TxnId>,
        readers_s: Vec<TxnId>,
    },
    Plain {
        key: Key,
        t: TxnId,
        s: TxnId,
        readers_t: Vec<TxnId>,
        readers_s: Vec<TxnId>,
    },
    /// Keep constraint `i` iff bit `i % 64` of the mask is set.
    Retain {
        mask: u64,
    },
    Remap {
        shift: u32,
    },
    Extend {
        other: Vec<(Vec<Edge>, Vec<Edge>)>,
    },
}

const TXNS: u32 = 12;

fn edge_strategy() -> impl Strategy<Value = Edge> {
    (0..TXNS, 0..TXNS, any::<bool>(), 0u64..3).prop_map(|(f, t, ww, key)| {
        let label = if ww { Label::Ww(Key(key)) } else { Label::Rw(Key(key)) };
        Edge::new(TxnId(f), TxnId(t), label)
    })
}

fn side_strategy() -> impl Strategy<Value = Vec<Edge>> {
    prop::collection::vec(edge_strategy(), 0..4)
}

fn readers_strategy() -> impl Strategy<Value = Vec<TxnId>> {
    prop::collection::vec((0..TXNS).prop_map(TxnId), 0..4)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (
        (0u8..8, 0u64..3, 0..TXNS, 0..TXNS - 1),
        (readers_strategy(), readers_strategy()),
        (side_strategy(), side_strategy()),
        (any::<u64>(), 0u32..5),
        prop::collection::vec((side_strategy(), side_strategy()), 0..4),
    )
        .prop_map(
            |((kind, key, t, s0), (readers_t, readers_s), (either, or), (mask, shift), other)| {
                let key = Key(key);
                // Distinct writers, as in a real writer pair.
                let (t, s) = (TxnId(t), TxnId(if s0 >= t { s0 + 1 } else { s0 }));
                match kind {
                    0 | 1 => Op::Push { key, sides: (either, or) },
                    2 | 3 => Op::Generalized { key, t, s, readers_t, readers_s },
                    4 => Op::Plain { key, t, s, readers_t, readers_s },
                    5 => Op::Retain { mask },
                    6 => Op::Remap { shift },
                    _ => Op::Extend { other },
                }
            },
        )
}

/// Definition 9, spelled with owned vectors.
fn model_generalized(
    key: Key,
    t: TxnId,
    s: TxnId,
    readers_t: &[TxnId],
    readers_s: &[TxnId],
) -> (Key, Vec<Edge>, Vec<Edge>) {
    let mut either = vec![Edge::new(t, s, Label::Ww(key))];
    either.extend(readers_t.iter().filter(|&&r| r != s).map(|&r| Edge::new(r, s, Label::Rw(key))));
    let mut or = vec![Edge::new(s, t, Label::Ww(key))];
    or.extend(readers_s.iter().filter(|&&r| r != t).map(|&r| Edge::new(r, t, Label::Rw(key))));
    (key, either, or)
}

/// Definition 8 plus the totality constraint, spelled with owned vectors.
fn model_plain(key: Key, t: TxnId, s: TxnId, readers_t: &[TxnId], readers_s: &[TxnId]) -> Model {
    let (ts, st) = (Edge::new(t, s, Label::Ww(key)), Edge::new(s, t, Label::Ww(key)));
    let mut out = vec![(key, vec![ts], vec![st])];
    for &r in readers_t.iter().filter(|&&r| r != s) {
        out.push((key, vec![Edge::new(r, s, Label::Rw(key))], vec![st]));
    }
    for &r in readers_s.iter().filter(|&&r| r != t) {
        out.push((key, vec![Edge::new(r, t, Label::Rw(key))], vec![ts]));
    }
    out
}

fn from_model(model: &Model) -> ConstraintSet {
    let mut set = ConstraintSet::new();
    for (key, either, or) in model {
        set.push(*key, either.iter().copied(), or.iter().copied());
    }
    set
}

fn assert_same(set: &ConstraintSet, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(set.len(), model.len());
    prop_assert_eq!(set.is_empty(), model.is_empty());
    prop_assert_eq!(set.iter().len(), model.len());
    let flat: Vec<Edge> = model.iter().flat_map(|(_, e, o)| e.iter().chain(o).copied()).collect();
    prop_assert_eq!(set.num_edges(), flat.len());
    prop_assert_eq!(set.edges(), flat.as_slice());
    for (i, (view, (key, either, or))) in set.iter().zip(model).enumerate() {
        prop_assert_eq!(view.key, *key);
        prop_assert_eq!(view.either, either.as_slice());
        prop_assert_eq!(view.or, or.as_slice());
        prop_assert_eq!(view.num_edges(), either.len() + or.len());
        prop_assert_eq!(view.edges().copied().collect::<Vec<_>>(), [&either[..], &or[..]].concat());
        prop_assert_eq!(set.get(i), view);
    }
    // The layout is canonical: a store that got here through pushes,
    // compactions, remaps, and extends equals one built fresh.
    prop_assert_eq!(set, &from_model(model));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn constraint_set_matches_vec_model(ops in prop::collection::vec(op_strategy(), 0..24)) {
        let mut set = ConstraintSet::new();
        let mut model: Model = Vec::new();
        for op in ops {
            match op {
                Op::Push { key, sides: (either, or) } => {
                    set.push(key, either.iter().copied(), or.iter().copied());
                    model.push((key, either, or));
                }
                Op::Generalized { key, t, s, readers_t, readers_s } => {
                    set.push_generalized(key, t, s, &readers_t, &readers_s);
                    model.push(model_generalized(key, t, s, &readers_t, &readers_s));
                }
                Op::Plain { key, t, s, readers_t, readers_s } => {
                    set.push_plain(key, t, s, &readers_t, &readers_s);
                    model.extend(model_plain(key, t, s, &readers_t, &readers_s));
                }
                Op::Retain { mask } => {
                    let keep = |i: usize| mask >> (i % 64) & 1 == 1;
                    let mut seen = 0;
                    set.retain(|i, view| {
                        // Views handed to the predicate are the
                        // pre-compaction ones, in order.
                        assert_eq!(i, seen);
                        seen += 1;
                        let (key, either, or) = &model[i];
                        assert_eq!((view.key, view.either, view.or), (*key, &either[..], &or[..]));
                        keep(i)
                    });
                    prop_assert_eq!(seen, model.len());
                    let mut i = 0;
                    model.retain(|_| {
                        i += 1;
                        keep(i - 1)
                    });
                }
                Op::Remap { shift } => {
                    set.remap(|t| TxnId(t.0 + shift));
                    for e in model.iter_mut().flat_map(|(_, e, o)| e.iter_mut().chain(o)) {
                        e.from = TxnId(e.from.0 + shift);
                        e.to = TxnId(e.to.0 + shift);
                    }
                }
                Op::Extend { other } => {
                    let other: Model =
                        other.into_iter().map(|(e, o)| (Key(9), e, o)).collect();
                    set.extend(from_model(&other));
                    model.extend(other);
                }
            }
            assert_same(&set, &model)?;
        }
    }
}
