//! Stand-in for `serde`: the program derives `Serialize`/`Deserialize` on
//! its types but only `trass-bench` (not a dependency of the benchmark)
//! ever serialises, so the traits are markers and the derives expand to
//! nothing.

pub trait Serialize {}
pub trait Deserialize<'de> {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
