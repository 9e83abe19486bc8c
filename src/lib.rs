//! Workspace root crate: it carries the runnable examples under
//! `examples/` and the cross-crate integration tests under `tests/`, which
//! name each layer crate by its own path (`mlec_sim::…`,
//! `mlec_analysis::…`). Library users depend on the layer crates directly,
//! or on `mlec-core` for the experiment registry and figure runners.
