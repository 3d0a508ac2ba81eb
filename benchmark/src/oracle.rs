//! The correctness oracle: a naive row-at-a-time evaluator over the
//! in-memory generated columns. It shares nothing with the engine — no
//! operators, no vectorization, no caches — so agreement is evidence.

use std::collections::{BTreeMap, HashMap};

use raw::columnar::{Batch, Value};

use crate::data::Dataset;
use crate::queries::{Agg, Body, Query};

/// A query answer in canonical form: `None` is SQL NULL (an aggregate over
/// no rows); groups are sorted by key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    Row(Vec<Option<i64>>),
    Groups(Vec<(i64, Option<i64>)>),
}

#[derive(Debug, Clone, Copy)]
struct Acc {
    agg: Agg,
    cur: Option<i64>,
    count: i64,
}

impl Acc {
    fn new(agg: Agg) -> Acc {
        Acc { agg, cur: None, count: 0 }
    }

    fn add(&mut self, v: i64) {
        self.count += 1;
        self.cur = Some(match (self.agg, self.cur) {
            (_, None) => v,
            (Agg::Max, Some(c)) => c.max(v),
            (Agg::Min, Some(c)) => c.min(v),
            (Agg::Sum, Some(c)) => c + v,
            (Agg::Count, Some(c)) => c,
        });
    }

    fn finish(self) -> Option<i64> {
        match self.agg {
            Agg::Count => Some(self.count),
            _ => self.cur,
        }
    }
}

/// Evaluates queries against one dataset; the join index over `dim.col1` is
/// built once.
pub struct Oracle<'a> {
    data: &'a Dataset,
    dim_by_key: HashMap<i64, Vec<usize>>,
}

impl<'a> Oracle<'a> {
    pub fn new(data: &'a Dataset) -> Oracle<'a> {
        let mut dim_by_key: HashMap<i64, Vec<usize>> = HashMap::new();
        for (row, &key) in data.dim_col(0).iter().enumerate() {
            dim_by_key.entry(key).or_default().push(row);
        }
        Oracle { data, dim_by_key }
    }

    pub fn answer(&self, q: &Query) -> Answer {
        let d = self.data;
        let rows = d.events.rows();
        let preds: Vec<(&[i64], i64)> =
            q.preds.iter().map(|p| (d.events_col(p.col), p.lit)).collect();
        let passes = |row: usize| preds.iter().all(|&(col, lit)| col[row] < lit);
        match &q.body {
            Body::Scalar(aggs) => {
                let mut accs: Vec<Acc> = aggs.iter().map(|&(a, _)| Acc::new(a)).collect();
                for row in (0..rows).filter(|&r| passes(r)) {
                    for (acc, &(_, col)) in accs.iter_mut().zip(aggs) {
                        acc.add(d.events_col(col)[row]);
                    }
                }
                Answer::Row(accs.into_iter().map(Acc::finish).collect())
            }
            Body::Group { key, agg: (agg, col) } => {
                let mut groups: BTreeMap<i64, Acc> = BTreeMap::new();
                for row in (0..rows).filter(|&r| passes(r)) {
                    let k = d.events_col(*key)[row];
                    groups.entry(k).or_insert_with(|| Acc::new(*agg)).add(d.events_col(*col)[row]);
                }
                Answer::Groups(groups.into_iter().map(|(k, acc)| (k, acc.finish())).collect())
            }
            Body::Join(agg, col) => {
                let mut acc = Acc::new(*agg);
                for row in 0..rows {
                    let Some(matches) = self.dim_by_key.get(&d.events_col(0)[row]) else {
                        continue;
                    };
                    for &m in matches {
                        if q.preds.iter().all(|p| d.dim_col(p.col)[m] < p.lit) {
                            acc.add(d.events_col(*col)[row]);
                        }
                    }
                }
                Answer::Row(vec![acc.finish()])
            }
        }
    }
}

fn cell(batch: &Batch, row: usize, col: usize) -> Result<Option<i64>, String> {
    match batch.value(row, col).map_err(|e| e.to_string())? {
        Value::Int64(v) => Ok(Some(v)),
        Value::Int32(v) => Ok(Some(v as i64)),
        Value::Null => Ok(None),
        other => Err(format!("non-integer cell {other:?}")),
    }
}

/// The engine's result batch in canonical form, shaped like `q`'s answer.
pub fn canonical(q: &Query, batch: &Batch) -> Result<Answer, String> {
    match &q.body {
        Body::Group { .. } => {
            if batch.rows() > 0 && batch.num_columns() != 2 {
                return Err(format!("grouped result has {} columns", batch.num_columns()));
            }
            let mut groups = Vec::with_capacity(batch.rows());
            for row in 0..batch.rows() {
                let key = cell(batch, row, 0)?.ok_or("NULL group key")?;
                groups.push((key, cell(batch, row, 1)?));
            }
            groups.sort_unstable();
            Ok(Answer::Groups(groups))
        }
        Body::Scalar(_) | Body::Join(..) => {
            if batch.rows() != 1 {
                return Err(format!("aggregate result has {} rows", batch.rows()));
            }
            (0..batch.num_columns())
                .map(|c| cell(batch, 0, c))
                .collect::<Result<_, _>>()
                .map(Answer::Row)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{stream, COLS};
    use crate::queries::{self, Pred};
    use raw::columnar::{DataType, Schema};
    use raw::engine::{EngineConfig, RawEngine, TableDef, TableSource};

    /// `events`: col1 = 10·row, col2 = row mod 3, every other column = row.
    /// `dim`: the rows 0, 2, 2, 5 of `events` (row 2 twice).
    fn tiny() -> Dataset {
        let events = |r: i64, c: usize| match c {
            0 => 10 * r,
            1 => r % 3,
            _ => r,
        };
        let cols = |rows: &[i64]| -> Vec<Vec<i64>> {
            (0..COLS).map(|c| rows.iter().map(|&r| events(r, c)).collect()).collect()
        };
        Dataset::from_columns(cols(&[0, 1, 2, 3, 4, 5, 6, 7]), cols(&[0, 2, 2, 5]))
    }

    fn query(body: Body, preds: &[(usize, i64)]) -> Query {
        let preds = preds.iter().map(|&(col, lit)| Pred { col, lit }).collect();
        Query { shape: "test", table: "events", body, preds }
    }

    #[test]
    fn hand_checked_answers() {
        let data = tiny();
        let oracle = Oracle::new(&data);
        // Rows 0..=4 pass col1 < 45: values of col7 are 0..=4.
        let aggs = vec![(Agg::Max, 6), (Agg::Min, 6), (Agg::Sum, 6), (Agg::Count, 6)];
        let q = query(Body::Scalar(aggs.clone()), &[(0, 45)]);
        assert_eq!(oracle.answer(&q), Answer::Row(vec![Some(4), Some(0), Some(10), Some(5)]));
        // Two predicates: rows with col1 < 45 and col7 < 2 are 0 and 1.
        let q = query(Body::Scalar(vec![(Agg::Sum, 0)]), &[(0, 45), (6, 2)]);
        assert_eq!(oracle.answer(&q), Answer::Row(vec![Some(10)]));
        // No row passes: MAX is NULL, COUNT is 0.
        let q = query(Body::Scalar(aggs), &[(0, 0)]);
        assert_eq!(oracle.answer(&q), Answer::Row(vec![None, None, None, Some(0)]));
        // Groups of col2 over rows 0..=6: {0: 0,3,6} {1: 1,4} {2: 2,5}.
        let q = query(Body::Group { key: 1, agg: (Agg::Max, 6) }, &[(0, 65)]);
        assert_eq!(
            oracle.answer(&q),
            Answer::Groups(vec![(0, Some(6)), (1, Some(4)), (2, Some(5))])
        );
        // Join: dim rows with col2 < 2 are those of events rows 0 (col2 = 0);
        // rows 2, 2 and 5 have col2 = 2. All four match without the filter,
        // row 2 twice.
        let q = query(Body::Join(Agg::Count, 6), &[(1, 3)]);
        assert_eq!(oracle.answer(&q), Answer::Row(vec![Some(4)]));
        let q = query(Body::Join(Agg::Sum, 6), &[(1, 3)]);
        assert_eq!(oracle.answer(&q), Answer::Row(vec![Some(9)]));
        let q = query(Body::Join(Agg::Max, 6), &[(1, 2)]);
        assert_eq!(oracle.answer(&q), Answer::Row(vec![Some(0)]));
    }

    /// The oracle and the engine agree on every generated shape, and
    /// `canonical` reads the engine's batches the way the oracle answers.
    #[test]
    fn oracle_agrees_with_the_engine_on_generated_queries() {
        let data = Dataset::generate(9, 3_000);
        let oracle = Oracle::new(&data);
        let engine = RawEngine::new(EngineConfig { parallelism: 2, ..EngineConfig::default() });
        for (name, table) in [("events", &data.events), ("dim", &data.dim)] {
            let path = format!("/virtual/{name}.csv");
            engine.files().insert(&path, raw::formats::csv::writer::to_bytes(table).unwrap());
            engine.register_table(TableDef {
                name: name.into(),
                schema: Schema::uniform(COLS, DataType::Int64),
                source: TableSource::Csv { path: path.into() },
            });
        }
        let (steady, warm) = queries::warm_mix(&mut stream(9, 1), 40);
        let mut all = queries::adaptive_sequence(&mut stream(9, 1));
        all.extend(steady);
        all.extend(warm);
        assert!(all.len() > 60);
        for q in &all {
            let result = engine.query(&q.sql()).unwrap();
            assert_eq!(canonical(q, &result.batch).unwrap(), oracle.answer(q), "{}", q.sql());
        }
        // A wrong answer is noticed.
        let wrong = engine.query(&all[1].sql()).unwrap();
        assert!(canonical(&all[0], &wrong.batch).map_or(true, |a| a != oracle.answer(&all[0])));
    }
}
