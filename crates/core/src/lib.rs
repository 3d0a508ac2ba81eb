//! # raw-engine
//!
//! The RAW query engine: a prototype that **adapts itself to raw data files
//! and incoming queries** instead of forcing data through a loading step —
//! the primary contribution of *Adaptive Query Processing on RAW Data*
//! (Karpathiotakis et al., VLDB 2014).
//!
//! ## Architecture
//!
//! - [`catalog`] — table names, (possibly partial) schemas, file formats,
//!   and access abstractions per format.
//! - [`sql`] / [`plan`] — a mini-SQL front end covering the paper's query
//!   shapes, resolved against the catalog.
//! - [`physical`] — adaptive physical planning: per-query access-path
//!   selection (DBMS / external tables / in-situ / JIT), positional-map and
//!   shred-pool consultation, and scan-operator placement (column shreds,
//!   join Early/Intermediate/Late points). One planner builds every plan
//!   as a list of pipelines plus their merge: one segment-bounded pipeline
//!   per morsel (run on the `raw-exec` worker pool) for eligible queries
//!   when [`engine::EngineConfig::parallelism`] exceeds 1, its `parallel`
//!   submodule choosing the morsel grid; one whole-file pipeline, run on
//!   the calling thread, otherwise.
//! - [`shreds`] — the LRU pool of column shreds populated as a side effect
//!   of query execution.
//! - [`shared`] — the concurrent cache layer (read-locked lookups,
//!   merge-on-publish writes) that lets many [`engine::Session`] handles
//!   share one long-lived engine; see `CONCURRENCY.md` § "Sessions and the
//!   shared cache layer".
//! - [`cost`] / [`table_stats`] — the paper's §8 future-work cost model
//!   and the per-column histograms (harvested as query side effects) that
//!   feed it, powering the `Adaptive` strategy and placement choices.
//! - [`engine`] — the [`engine::RawEngine`] facade tying it all together,
//!   with [`engine::EngineConfig`] knobs matching every system configuration
//!   the paper evaluates.
//!
//! ## Quick start
//!
//! ```
//! use raw_engine::catalog::{TableDef, TableSource};
//! use raw_engine::engine::{EngineConfig, RawEngine};
//! use raw_columnar::{DataType, Schema, Value};
//!
//! let engine = RawEngine::new(EngineConfig::default());
//! // Register a (virtual) CSV file — real files work the same way.
//! engine.files().insert("/data/t.csv", b"1,10\n2,20\n3,30\n".to_vec());
//! engine.register_table(TableDef {
//!     name: "t".into(),
//!     schema: Schema::uniform(2, DataType::Int64),
//!     source: TableSource::Csv { path: "/data/t.csv".into() },
//! });
//!
//! let result = engine.query("SELECT MAX(col2) FROM t WHERE col1 < 3").unwrap();
//! assert_eq!(result.scalar().unwrap(), Value::Int64(20));
//! ```

pub mod catalog;
pub mod cost;
pub mod engine;
pub mod error;
pub mod physical;
pub mod plan;
pub mod shared;
pub mod shreds;
pub mod sql;
pub mod stats;
pub mod table_stats;

pub use catalog::{Catalog, TableDef, TableSource};
pub use cost::CostModel;
pub use engine::{
    AccessMode, EngineConfig, JoinPlacement, PlannedScan, QueryResult, RawEngine, Session,
    ShredStrategy,
};
pub use error::{EngineError, Result};
pub use stats::{MorselMeta, QueryStats, QueryTrace};
pub use table_stats::{ColumnHistogram, StatsRegistry};
