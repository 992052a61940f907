//! The repository's benchmark: whole FlowBender simulations driven from
//! outside the program, timed end to end and, in a separate traced run,
//! layer by layer. See `perfbench/README.md` for the workloads and the
//! metric table.

pub mod metrics;
pub mod pipeline;
pub mod seams;
pub mod workload;
