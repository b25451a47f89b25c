//! A shared introspection surface over predictor structures.
//!
//! The BTB and the CBP are both set-indexed, fold-hashed prediction
//! memories; attacks and reports that "read predictor state" (occupancy
//! scans, flush-and-retrain protocols) should not care which structure
//! they are pointed at. This
//! trait is that one interface — [`crate::Btb`] and [`crate::Cbp`] both
//! implement it, and [`crate::Bpu::predictor_states`] hands back every
//! structure behind it.

/// Uniform read/reset access to one predictor structure's state.
pub trait PredictorState {
    /// Short structure name ("btb", "cbp").
    fn name(&self) -> &'static str;

    /// Total entries the structure can hold (sets × ways).
    fn capacity(&self) -> usize;

    /// Entries currently holding trained content. For tagged structures
    /// this counts allocated entries; for untagged counter arrays it
    /// counts counters moved off their reset value.
    fn live_entries(&self) -> usize;

    /// Flush every entry back to reset state (the IBPB path).
    fn flush(&mut self);
}
