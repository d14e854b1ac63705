//! Neural-network layers built on the autograd tape.
//!
//! Each layer registers its weights in a [`crate::ParamStore`] at
//! construction and exposes a `forward(&Graph, &ParamStore, ...)` method that
//! records the computation on the tape, so a single layer instance can be run
//! against both a trained store and a momentum-updated copy with the same
//! layout (the MoCo pattern used by SARN).

mod ffn;
mod gat;
mod gru;
mod linear;

pub use ffn::{Activation, Ffn};
pub use gat::{Block, EdgeIndex, GatEncoder, GatLayer};
pub use gru::{Gru, GruStack};
pub use linear::Linear;
