//! The query model and the seeded generators behind every workload.
//!
//! A query is data (`Query`), rendered to SQL for the engine and evaluated
//! row-at-a-time by the oracle, so both sides answer the same question.
//!
//! Seeds pick the *order* of shapes, the aggregated columns and the exact
//! literals. The multiset of (shape, selectivity) pairs is fixed per
//! workload, so the amount of work does not depend on the seed — otherwise
//! run-to-run spread across seeds would swamp the bounds.

use crate::data::{Rng, COLS, GROUP_KEYS, SECOND_PRED_COL, UNIFORM_RANGE};

/// The paper's selectivity sweep, in percent.
pub const SWEEP: [u64; 7] = [1, 10, 20, 40, 60, 80, 100];
/// Queries in one `adaptive_seq` exploration.
pub const SEQ_LEN: usize = 12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    Max,
    Min,
    Sum,
    Count,
}

impl Agg {
    fn sql(self) -> &'static str {
        match self {
            Agg::Max => "MAX",
            Agg::Min => "MIN",
            Agg::Sum => "SUM",
            Agg::Count => "COUNT",
        }
    }
}

/// `col < lit` over a 0-based column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pred {
    pub col: usize,
    pub lit: i64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Body {
    /// `SELECT agg(col), … FROM t WHERE …`
    Scalar(Vec<(Agg, usize)>),
    /// `SELECT key, agg(col) FROM t WHERE … GROUP BY key`
    Group { key: usize, agg: (Agg, usize) },
    /// `SELECT agg(t.col) FROM t JOIN dim ON t.col1 = dim.col1 WHERE dim.…`
    /// — the predicates apply to `dim`.
    Join(Agg, usize),
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Shape label: the unit of the per-shape latency breakdown.
    pub shape: &'static str,
    /// Registered name of the probed table (`dim` is always `dim`).
    pub table: &'static str,
    pub body: Body,
    pub preds: Vec<Pred>,
}

impl Query {
    pub fn sql(&self) -> String {
        let t = self.table;
        let wher = |qualifier: &str| {
            self.preds
                .iter()
                .map(|p| format!("{qualifier}col{} < {}", p.col + 1, p.lit))
                .collect::<Vec<_>>()
                .join(" AND ")
        };
        match &self.body {
            Body::Scalar(aggs) => {
                let items: Vec<String> =
                    aggs.iter().map(|(a, c)| format!("{}(col{})", a.sql(), c + 1)).collect();
                format!("SELECT {} FROM {t} WHERE {}", items.join(", "), wher(""))
            }
            Body::Group { key, agg: (a, c) } => format!(
                "SELECT col{k}, {}(col{}) FROM {t} WHERE {} GROUP BY col{k}",
                a.sql(),
                c + 1,
                wher(""),
                k = key + 1
            ),
            Body::Join(a, c) => format!(
                "SELECT {}({t}.col{}) FROM {t} JOIN dim ON {t}.col1 = dim.col1 WHERE {}",
                a.sql(),
                c + 1,
                wher("dim.")
            ),
        }
    }
}

/// Literal passing about `percent` % of a uniform column; the low bits are
/// seeded so different seeds ask different questions of the same shape.
fn literal(rng: &mut Rng, percent: u64) -> i64 {
    (percent * (UNIFORM_RANGE as u64 / 100) - rng.below(1 << 20)) as i64
}

/// Q1, the paper's `SELECT MAX(col1) … WHERE col1 < x`.
pub fn q1(table: &'static str, lit: i64) -> Query {
    Query {
        shape: "q1",
        table,
        body: Body::Scalar(vec![(Agg::Max, 0)]),
        preds: vec![Pred { col: 0, lit }],
    }
}

fn max_colk(table: &'static str, k: usize, lit: i64) -> Query {
    Query {
        shape: "max_colk",
        table,
        body: Body::Scalar(vec![(Agg::Max, k)]),
        preds: vec![Pred { col: 0, lit }],
    }
}

fn group_by(table: &'static str, agg: Agg, k: usize, lit: i64) -> Query {
    Query {
        shape: "group_by",
        table,
        body: Body::Group { key: 1, agg: (agg, k) },
        preds: vec![Pred { col: 0, lit }],
    }
}

/// Columns free for aggregation: everything but the predicate and key
/// columns, in seeded order.
fn agg_columns(rng: &mut Rng) -> Vec<usize> {
    let mut cols: Vec<usize> = (0..COLS).filter(|&c| c > 1 && c != SECOND_PRED_COL).collect();
    rng.shuffle(&mut cols);
    cols
}

/// The one query of `cold_csv` / `cold_rzb`: Q1 at 40 %.
pub fn cold_query(rng: &mut Rng) -> Query {
    q1("events", literal(rng, 40))
}

/// The 12-query exploration of `adaptive_seq`: Q1, then a seeded order of
/// 3 same-column, 4 new-column, 2 two-predicate and 2 GROUP BY queries whose
/// selectivities cover the sweep.
pub fn adaptive_sequence(rng: &mut Rng) -> Vec<Query> {
    let t = "events";
    let mut cols = agg_columns(rng).into_iter();
    let mut next_col = || cols.next().expect("27 aggregation columns, 8 used");
    let mut rest = Vec::with_capacity(SEQ_LEN - 1);
    for s in [1, 20, 80] {
        rest.push(Query { shape: "same_col", ..q1(t, literal(rng, s)) });
    }
    for s in [10, 40, 60, 100] {
        rest.push(Query { shape: "new_col", ..max_colk(t, next_col(), literal(rng, s)) });
    }
    for (s, s5) in [(20, 80), (60, 40)] {
        rest.push(Query {
            shape: "two_pred",
            table: t,
            body: Body::Scalar(vec![(Agg::Max, next_col())]),
            preds: vec![
                Pred { col: 0, lit: literal(rng, s) },
                Pred { col: SECOND_PRED_COL, lit: literal(rng, s5) },
            ],
        });
    }
    for (s, agg) in [(10, Agg::Max), (40, Agg::Count)] {
        rest.push(group_by(t, agg, next_col(), literal(rng, s)));
    }
    rng.shuffle(&mut rest);
    let mut seq = vec![q1(t, literal(rng, 40))];
    seq.extend(rest);
    seq
}

/// Ops per `warm_ops` round.
pub const WARM_ROUND: usize = 20;
/// Slots of a round that hold a `max_colk` query.
const WARM_PARTIAL_SLOTS: [usize; 4] = [2, 7, 12, 17];
const WARM_POOL_COLS: usize = 20;
/// `warm_ops` cannot run more ops than its supply of not-yet-covered
/// `(column, selectivity)` pairs allows.
pub const WARM_MAX_OPS: usize =
    WARM_POOL_COLS * SWEEP.len() / WARM_PARTIAL_SLOTS.len() * WARM_ROUND;

/// The `warm_ops` mix: `(steady, ops)`.
///
/// `steady` lists the distinct queries the pre-warm pass must answer once
/// (widest selectivity first) so that every later repetition is served
/// without touching the file. `ops` interleaves them, per round of 20, with
/// 4 `max_colk` queries that walk each pool column up the selectivity sweep:
/// every one finds its column's shred covering fewer rows than it needs, so
/// the engine fetches from the warm buffer — the partially-covered case.
pub fn warm_mix(rng: &mut Rng, ops: usize) -> (Vec<Query>, Vec<Query>) {
    let t = "events";
    let mut cols = agg_columns(rng);
    let pool: Vec<usize> = cols.split_off(cols.len() - WARM_POOL_COLS);
    let (c3, cg, cj) = ([cols[0], cols[1], cols[2]], cols[3], cols[4]);
    // Widest first: coverage recorded by the first query serves the rest.
    let sels = [80, 40, 10];
    let q1s: Vec<Query> = sels.iter().map(|&s| q1(t, literal(rng, s))).collect();
    let three: Vec<Query> = sels
        .iter()
        .map(|&s| Query {
            shape: "three_agg",
            table: t,
            body: Body::Scalar(vec![(Agg::Max, c3[0]), (Agg::Min, c3[1]), (Agg::Sum, c3[2])]),
            preds: vec![Pred { col: 0, lit: literal(rng, s) }],
        })
        .collect();
    let groups: Vec<Query> =
        sels.iter().map(|&s| group_by(t, Agg::Max, cg, literal(rng, s))).collect();
    let joins: Vec<Query> = [3, 2, 1]
        .iter()
        .map(|&quarters| Query {
            shape: "join",
            table: t,
            body: Body::Join(Agg::Max, cj),
            preds: vec![Pred { col: 1, lit: quarters * GROUP_KEYS / 4 }],
        })
        .collect();
    let steady: Vec<Query> =
        [&q1s, &three, &groups, &joins].iter().flat_map(|v| v.iter().cloned()).collect();

    let mut out = Vec::with_capacity(ops);
    let mut partial = 0usize;
    while out.len() < ops {
        // 7 q1, 3 three_agg, 3 group_by, 3 join per round, in seeded order …
        let mut round: Vec<Query> = (0..WARM_ROUND - WARM_PARTIAL_SLOTS.len())
            .map(|i| {
                let family = match i {
                    0..=6 => &q1s,
                    7..=9 => &three,
                    10..=12 => &groups,
                    _ => &joins,
                };
                family[i % family.len()].clone()
            })
            .collect();
        rng.shuffle(&mut round);
        // … with the climbing queries at fixed slots, in sweep order.
        for slot in WARM_PARTIAL_SLOTS {
            let col = pool[(partial / SWEEP.len()) % pool.len()];
            round.insert(slot, max_colk(t, col, literal(rng, SWEEP[partial % SWEEP.len()])));
            partial += 1;
        }
        out.extend(round);
    }
    out.truncate(ops);
    (steady, out)
}

/// Tables of `sessions_mixed`, weighted csv:fbin:rzb = 2:2:1.
pub const SESSION_TABLES: [&str; 3] = ["events_csv", "events_fbin", "events_rzb"];
/// Columns `sessions_mixed` aggregates: enough full shreds over three tables
/// to exceed the scaled shred budget several times over.
const SESSION_POOL_COLS: usize = 12;
/// One round of a session: `(table, shape, count)` with tables 8 csv / 8 fbin
/// / 4 rzb and shapes 5 q1 / 10 max_colk / 5 group_by.
const SESSION_ROUND: [(usize, &str, usize); 9] = [
    (0, "q1", 2),
    (0, "max_colk", 4),
    (0, "group_by", 2),
    (1, "q1", 2),
    (1, "max_colk", 4),
    (1, "group_by", 2),
    (2, "q1", 1),
    (2, "max_colk", 2),
    (2, "group_by", 1),
];

/// One session's stream for `sessions_mixed`: rounds of 20 queries in
/// seeded order; each (table, shape) kind walks the selectivity sweep on its
/// own counter, so every kind sees every selectivity.
pub fn session_stream(rng: &mut Rng, ops: usize) -> Vec<Query> {
    let pool: Vec<usize> = agg_columns(rng).into_iter().take(SESSION_POOL_COLS).collect();
    let mut out = Vec::with_capacity(ops);
    let mut visits = [0usize; SESSION_ROUND.len()];
    while out.len() < ops {
        let mut round: Vec<usize> = SESSION_ROUND
            .iter()
            .enumerate()
            .flat_map(|(kind, &(_, _, count))| std::iter::repeat_n(kind, count))
            .collect();
        rng.shuffle(&mut round);
        for kind in round {
            let (table, shape, _) = SESSION_ROUND[kind];
            let table = SESSION_TABLES[table];
            let lit = literal(rng, SWEEP[visits[kind] % SWEEP.len()]);
            visits[kind] += 1;
            let col = pool[rng.below(pool.len() as u64) as usize];
            out.push(match shape {
                "q1" => q1(table, lit),
                "max_colk" => max_colk(table, col, lit),
                _ => group_by(table, Agg::Max, col, lit),
            });
        }
    }
    out.truncate(ops);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::stream;

    fn all_lists(seed: u64) -> Vec<Vec<Query>> {
        let (steady, warm) = warm_mix(&mut stream(seed, 1), 60);
        vec![
            vec![cold_query(&mut stream(seed, 1))],
            adaptive_sequence(&mut stream(seed, 1)),
            steady,
            warm,
            session_stream(&mut stream(seed, 1), 40),
            session_stream(&mut stream(seed, 2), 40),
        ]
    }

    #[test]
    fn same_seed_same_queries_other_seed_other_literals() {
        assert_eq!(all_lists(11), all_lists(11));
        for (a, b) in all_lists(11).iter().zip(&all_lists(12)) {
            assert_eq!(a.len(), b.len());
            let literals = |qs: &[Query]| -> Vec<i64> {
                qs.iter().flat_map(|q| q.preds.iter().map(|p| p.lit)).collect()
            };
            assert_ne!(literals(a), literals(b), "literals do not depend on the seed");
        }
        // The two sessions of one run ask different questions.
        assert_ne!(all_lists(11)[4], all_lists(11)[5]);
    }

    #[test]
    fn the_amount_of_work_does_not_depend_on_the_seed() {
        // Same multiset of (shape, selectivity in percent) whatever the seed.
        let profile = |qs: &[Query]| {
            let mut p: Vec<(&str, &str, Vec<i64>)> = qs
                .iter()
                .map(|q| {
                    let pct = q.preds.iter().map(|p| (p.lit + (1 << 20)) / 10_000_000).collect();
                    (q.shape, q.table, pct)
                })
                .collect();
            p.sort();
            p
        };
        for (a, b) in all_lists(21).iter().zip(&all_lists(22)).take(4) {
            assert_eq!(profile(a), profile(b));
        }
    }

    #[test]
    fn sequences_and_mixes_have_the_documented_shape() {
        let seq = adaptive_sequence(&mut stream(5, 1));
        assert_eq!(seq.len(), SEQ_LEN);
        assert_eq!(seq[0].shape, "q1");
        let count = |shape: &str| seq.iter().filter(|q| q.shape == shape).count();
        assert_eq!(
            (count("same_col"), count("new_col"), count("two_pred"), count("group_by")),
            (3, 4, 2, 2)
        );
        assert_eq!(
            seq[0].sql(),
            format!("SELECT MAX(col1) FROM events WHERE col1 < {}", seq[0].preds[0].lit)
        );

        let (steady, warm) = warm_mix(&mut stream(5, 1), 2 * WARM_ROUND);
        assert_eq!((steady.len(), warm.len()), (12, 2 * WARM_ROUND));
        let climbing: Vec<&Query> = warm.iter().filter(|q| q.shape == "max_colk").collect();
        assert_eq!(climbing.len(), 8);
        // One pool column walks up the sweep before the next one starts.
        assert!(climbing[..7].windows(2).all(|w| w[0].body == w[1].body));
        assert!(climbing[..7].windows(2).all(|w| w[0].preds[0].lit < w[1].preds[0].lit));
        assert_ne!(climbing[6].body, climbing[7].body);
        assert!(steady[9]
            .sql()
            .contains("JOIN dim ON events.col1 = dim.col1 WHERE dim.col2 < 768"));

        let session = session_stream(&mut stream(5, 1), 100);
        let on = |t: &str| session.iter().filter(|q| q.table == t).count();
        assert_eq!((on("events_csv"), on("events_fbin"), on("events_rzb")), (40, 40, 20));
        let of = |s: &str| session.iter().filter(|q| q.shape == s).count();
        assert_eq!((of("q1"), of("max_colk"), of("group_by")), (25, 50, 25));
    }
}
