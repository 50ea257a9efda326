//! Power modelling and energy accounting.
//!
//! The paper measures whole-cluster power with a LINDY iPower Control PDU,
//! sampled every second at 1 W resolution, and reports energy as the
//! trapezoidal integral of those samples (§3.2, §7.1.1). Power is constant
//! over a simulated epoch, so that integral is `watts × duration` and the
//! crate keeps the one piece the middleware needs:
//!
//! * [`PowerModel`] — active power as a function of allocated cores and
//!   load (idle floor + per-active-core increment), per node.
//!
//! # Example
//!
//! ```
//! use pipetune_energy::PowerModel;
//!
//! let model = PowerModel::default();
//! // A 10-second epoch on 8 busy cores.
//! let joules = model.energy_joules(8, 1.0, 10.0);
//! assert_eq!(joules, model.power_watts(8, 1.0) * 10.0);
//! ```

#![warn(missing_docs)]

pub mod observe;
mod power;

pub use power::PowerModel;
