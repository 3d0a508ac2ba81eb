//! # raw-access
//!
//! Access paths over raw files — the heart of the RAW paper. Four families,
//! matching the systems compared in §4.2/§5.2:
//!
//! - [`external`] — *external tables* (§2.2): every query re-tokenizes the
//!   whole file and converts **every** field, MySQL-CSV-engine style.
//! - [`csv::InSituCsvScan`] / [`fbin::InSituFbinScan`] — *general-purpose
//!   in-situ scans* (the NoDB stand-in, §2.3): read only the requested
//!   columns, use/build positional maps, but keep the per-field type
//!   dispatch, catalog lookup and is-column-wanted branches **inside the
//!   per-row loop**.
//! - [`csv::JitCsvScan`] / [`fbin::JitFbinScan`] / [`rootsim_path`] — *JIT
//!   access paths* (§4): a per-(file, schema, query) **specialized pipeline**
//!   where the column loop is unrolled, conversions are monomorphized, and
//!   binary offsets / branch ids are baked in at "code generation" time.
//! - [`fetch`] — *selection-driven fetchers* powering column shreds (§5):
//!   given qualifying row ids (and positional-map positions for CSV), read
//!   just those field values.
//!
//! ## The code-generation substitution
//!
//! The paper emits C++ through macros, compiles it with GCC and `dlopen`s the
//! result. Here, "code generation" is the runtime composition of statically
//! monomorphized kernels: [`csv::CsvProgram`] derives a straight-line field
//! program from the spec, and each scan instantiates it as a chain of typed
//! closures with all per-field decisions resolved at build time. What the
//! paper measures — branchy interpreted inner loop vs. branch-free
//! specialized inner loop, plus a template cache and an accountable compile
//! cost — is preserved.
//!
//! All scans implement [`raw_columnar::ops::Operator`], produce batches with
//! provenance (row ids), and report a [`raw_columnar::profile::PhaseProfile`] splitting
//! time into the paper's Figure-3 categories.

pub mod external;
pub mod fetch;
pub mod ibin;
pub mod rootsim_path;
pub mod spec;
pub mod template_cache;

pub mod csv;
pub mod fbin;

pub use raw_columnar::profile::{Phase, PhaseProfile, ScanMetrics};
pub use spec::{AccessPathKind, AccessPathSpec, FileFormat, WantedField};
pub use template_cache::TemplateCache;
