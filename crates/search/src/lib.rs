//! Hyperparameter search: the reproduction's stand-in for Ray Tune.
//!
//! The paper drives trials through Tune (§6), selecting HyperBand as the
//! trial scheduler but noting that any of Tune's algorithms plug in. This
//! crate provides that narrow waist:
//!
//! * [`SearchSpace`] / [`ParamSpec`] / [`ParamValue`] — typed parameter
//!   domains (ranges or choices) with seeded sampling and grid enumeration;
//! * [`TrialScheduler`] — the scheduler interface (request trials, report
//!   scores, resume from checkpoints);
//! * implementations: [`HyperBand`] (the paper's choice), [`GridSearch`]
//!   (Fig. 1's exhaustive baseline) and [`RandomSearch`].
//!
//! The paper's architecture (Fig. 7) also lists genetic and Bayesian
//! search under the tuning box; the reproduction implements the three
//! schedulers its evaluation uses, and any other plugs in behind
//! [`TrialScheduler`].
//!
//! Scores are "higher is better" throughout; objectives such as
//! accuracy/duration ratios are composed by the middleware crate.
//!
//! # Example
//!
//! ```
//! use pipetune_search::{ParamSpec, RandomSearch, SearchSpace, TrialScheduler};
//!
//! let space = SearchSpace::new(vec![
//!     ParamSpec::float_range("learning_rate", 0.001, 0.1, true),
//!     ParamSpec::int_choice("batch_size", &[32, 64, 256, 1024]),
//! ]);
//! let mut sched = RandomSearch::new(space, 4, 10, 7);
//! let batch = sched.next_trials();
//! assert_eq!(batch.len(), 4);
//! ```

mod grid;
mod hyperband;
mod random;
mod scheduler;
mod space;

pub use grid::GridSearch;
pub use hyperband::HyperBand;
pub use random::RandomSearch;
pub use scheduler::{TrialId, TrialReport, TrialRequest, TrialScheduler};
pub use space::{Config, ParamSpec, ParamValue, SearchSpace};
