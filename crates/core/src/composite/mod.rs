//! Composite-object semantics (paper §2.2, §3).
//!
//! * [`topology`] — the parent sets `IX/DX/IS/DS`, Topology Rules 1–4, and
//!   the Make-Component Rule;
//! * [`make`] — the §2.4 algorithm for making an existing object a
//!   component (attach/detach with reverse-reference bookkeeping);
//! * [`delete`] — the recursive Deletion Rule;
//! * [`ops`] — `components-of`, `parents-of`, `ancestors-of` and the
//!   predicate messages of §3;
//! * [`cache`] — the generation-invalidated hierarchy cache behind the
//!   shared-read (`&self`) traversal engine.

pub mod cache;
pub mod delete;
pub mod make;
pub mod ops;
pub mod topology;

pub use ops::Filter;
pub use topology::ParentSets;
