//! Constants the end-to-end benchmark (`perfbench/`) shares with the
//! engine's callers.

/// Monte Carlo samples per trial for a packed-tally `estimate_gain`
/// (`Engine::with_packed_tally`). 32 words of 64 packed coins keep the
/// sampling error on `p_mechanism` near the exact kernel's own tie-credit
/// granularity while leaving the packed path dominated by resolution, not
/// coin drawing.
pub const PACKED_SAMPLES: u32 = 32;
