//! Two-level Sum-of-Products (SP) minimization.
//!
//! The classical baseline the paper compares SPP forms against, and the
//! source of the prime implicants that seed the SPP heuristic (Algorithm 3
//! step 1): Quine–McCluskey prime-implicant generation followed by a
//! minimum-literal set cover.
//!
//! # Examples
//!
//! ```
//! use spp_boolfn::BoolFn;
//! use spp_sp::minimize_sp;
//!
//! // x1·x2·x̄4 + x̄1·x2·x4 needs 6 literals as an SP form ...
//! let f = BoolFn::from_indices(3, &[0b011, 0b110]);
//! let result = minimize_sp(&f, &spp_cover::Limits::default());
//! assert_eq!(result.form.literal_count(), 6);
//! // ... while the SPP form x2·(x1 ⊕ x4) of the paper has 3.
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod espresso;
mod form;
mod minimize;
mod qm;

pub use espresso::{minimize_sp_heuristic, SpHeuristicResult};
pub use form::SpForm;
pub use minimize::{cover_primes, minimize_sp, SpMinResult};
pub use qm::prime_implicants;
